"""Contract derivation and security-rule merging tests.

The GOLDEN table in conftest holds independent transcriptions of the
expected POST-token and DELETE-user contracts; equivalence is checked by
exhaustive three-valued evaluation after atom abstraction.
"""

import pytest

from conftest import GOLDEN
from contractgate import expr as E
from contractgate.contracts import (
    derive_contracts,
    derive_functional_contract,
    merge_security_rules,
    render_contract,
    render_contracts,
    UnmodeledMethodError,
)
from contractgate.model import SecurityRule
from oracle import k3_equivalent


def golden_expr(method, uri, phase):
    return E.parse_expression(GOLDEN[(method, uri, phase)])


class TestGoldenEquivalence:
    @pytest.mark.parametrize("method,uri", [
        ("POST", "/v3/auth/tokens"),
        ("DELETE", "/v3/users/{user_id}"),
    ])
    @pytest.mark.parametrize("phase", ["pre", "post"])
    def test_derived_matches_transcription(self, fixture_contracts, method, uri, phase):
        contract = fixture_contracts[(method, uri)]
        derived = contract.pre if phase == "pre" else contract.post
        assert k3_equivalent(derived, golden_expr(method, uri, phase))

    def test_post_token_post_has_scoped_and_unscoped_branches(self, fixture_contracts):
        text = E.to_text(fixture_contracts[("POST", "/v3/auth/tokens")].post)
        assert "token.catalog->size()=1" in text
        assert "token.catalog->size()=0" in text

    def test_post_token_pre_has_scope_disjunction(self, fixture_contracts):
        text = E.to_text(fixture_contracts[("POST", "/v3/auth/tokens")].pre)
        assert "request.scope->size()=1" in text
        assert "request.scope='unscope'" in text

    def test_delete_user_role_present_in_pre_and_post(self, fixture_contracts):
        contract = fixture_contracts[("DELETE", "/v3/users/{user_id}")]
        rendered = render_contract(contract)
        assert rendered.count("user.role='admin'") == 2
        assert "user.role='admin'" in E.to_text(contract.pre)
        assert "user.role='admin'" in E.to_text(contract.post)


class TestSnapshotPaths:
    def test_delete_snapshot_paths(self, fixture_contracts):
        contract = fixture_contracts[("DELETE", "/v3/users/{user_id}")]
        got = {str(p) for p in contract.snapshot_paths}
        assert got == {
            "self.processing",
            "token.token",
            "token.expires_at",
            "user.id",
            "user.role",
        }

    def test_snapshot_paths_cover_pre_and_antecedents(self, fixture_contracts):
        for contract in fixture_contracts.values():
            needed = E.free_paths(contract.pre) | E.antecedent_paths(contract.post)
            needed = {
                p for p in needed
                if p.namespace in (E.Namespace.RESOURCE, E.Namespace.REQUEST,
                                   E.Namespace.SELF)
            }
            assert needed <= set(contract.snapshot_paths)

    def test_catalog_not_snapshotted(self, fixture_contracts):
        contract = fixture_contracts[("POST", "/v3/auth/tokens")]
        assert "token.catalog" not in {str(p) for p in contract.snapshot_paths}


class TestMerging:
    def _base(self, loaded_model):
        _, bm, _ = loaded_model
        return derive_functional_contract("DELETE", "/v3/users/{user_id}", bm)

    def test_empty_rule_list_is_identity(self, loaded_model):
        contract = self._base(loaded_model)
        assert merge_security_rules(contract, []) == contract

    def test_unrelated_rules_are_ignored(self, loaded_model):
        contract = self._base(loaded_model)
        other = SecurityRule(
            id="x", http_method="PUT", uri_template="/elsewhere",
            kind="unconditional", rule_expr=E.parse_expression("user.role='admin'"),
        )
        assert merge_security_rules(contract, [other]) == contract

    def test_unconditional_rule_lands_in_both_phases(self, loaded_model):
        contract = self._base(loaded_model)
        rule = SecurityRule(
            id="rbac", http_method="DELETE", uri_template="/v3/users/{user_id}",
            kind="unconditional",
            rule_expr=E.parse_expression("user.role='superuser'"),
        )
        merged = merge_security_rules(contract, [rule])
        assert "user.role='superuser'" in E.to_text(merged.pre)
        assert "user.role='superuser'" in E.to_text(merged.post)
        # the double check: it must be a top-level conjunct on both sides
        assert any(
            E.to_text(c) == "user.role='superuser'" for c in E.conjuncts(merged.pre)
        )
        assert any(
            E.to_text(c) == "user.role='superuser'" for c in E.conjuncts(merged.post)
        )

    def test_conditional_rules_or_into_pre_and_imply_into_post(self, loaded_model):
        contract = self._base(loaded_model)
        rules = [
            SecurityRule(
                id=f"r{i}", http_method="DELETE",
                uri_template="/v3/users/{user_id}", kind="conditional",
                if_expr=E.parse_expression(f"request.mode='{m}'"),
                then_expr=E.parse_expression("user.id->size()=0"),
            )
            for i, m in enumerate(["soft", "hard"])
        ]
        merged = merge_security_rules(contract, rules)
        pre_text = E.to_text(merged.pre)
        assert "request.mode='soft' or request.mode='hard'" in pre_text
        post_conjuncts = [E.to_text(c) for c in E.conjuncts(merged.post)]
        assert "request.mode='soft' ==> user.id->size()=0" in post_conjuncts
        assert "request.mode='hard' ==> user.id->size()=0" in post_conjuncts


class TestDerivation:
    def test_unmodeled_method_raises(self, loaded_model):
        _, bm, _ = loaded_model
        with pytest.raises(UnmodeledMethodError):
            derive_functional_contract("PUT", "/v3/auth/tokens", bm)

    def test_actor_annotation_lowers_to_role_predicate(self, loaded_model):
        _, bm, _ = loaded_model
        contract = derive_functional_contract("DELETE", "/v3/users/{user_id}", bm)
        assert "user.role='admin'" in E.to_text(contract.pre)
        assert "user.role='admin'" in E.to_text(contract.post)

    def test_contract_ids(self, fixture_contracts):
        assert {c.id for c in fixture_contracts.values()} == {
            "POST /v3/auth/tokens",
            "DELETE /v3/users/{user_id}",
        }

    def test_derivation_is_deterministic(self, loaded_model):
        _, bm, rules = loaded_model
        first = render_contracts(derive_contracts(bm, rules))
        second = render_contracts(derive_contracts(bm, rules))
        assert first == second

    def test_render_parses_back(self, fixture_contracts):
        for contract in fixture_contracts.values():
            rendered = render_contract(contract)
            pre_line = next(l for l in rendered.splitlines() if l.startswith("  pre:"))
            post_line = next(l for l in rendered.splitlines() if l.startswith("  post:"))
            assert E.parse_expression(pre_line.split(":", 1)[1]) == contract.pre
            assert E.parse_expression(post_line.split(":", 1)[1]) == contract.post
