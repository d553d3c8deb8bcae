"""Model loading, validation, serialization and route derivation tests."""

import pytest

from contractgate import expr as E
from contractgate.model import (
    Association,
    BehavioralModel,
    ModelError,
    ResourceDefinition,
    ResourceModel,
    derive_routes,
    load_model,
    validate_model,
)
from oracle import serialize_model

MINIMAL = """\
resource Root
  attr name: string
"""


class TestLoad:
    def test_fixture_definition_names(self, loaded_model):
        rm, _, _ = loaded_model
        assert {d.name for d in rm.definitions} == {
            "SecKS",
            "collection_tokens",
            "token",
            "collection_users",
            "user",
            "collection_roles",
            "role",
            "collection_projects",
            "project",
        }
        assert rm.root == "SecKS"

    def test_fixture_has_states_transitions_rules(self, loaded_model):
        _, bm, rules = loaded_model
        assert {t.http_method for t in bm.transitions} == {"POST", "DELETE"}
        assert any(t.actor_role == "admin" for t in bm.transitions)
        assert {r.kind for r in rules} == {"conditional"}

    def test_empty_document_is_an_error(self):
        with pytest.raises(ModelError, match="empty resource model"):
            load_model("")

    def test_get_trigger_is_rejected(self):
        doc = MINIMAL + (
            "state A: self.processing = False\n"
            "state B: self.processing = False\n"
            "transition t1: A -> B on GET /root\n"
        )
        with pytest.raises(ModelError, match="side-effect"):
            load_model(doc)

    def test_unknown_directive_reports_line(self):
        with pytest.raises(ModelError, match="line 3: unknown directive"):
            load_model(MINIMAL + "frobnicate x\n")

    def test_bad_expression_reports_line_and_offset(self):
        with pytest.raises(ModelError, match="line 3.*offset"):
            load_model(MINIMAL + "state A: a.x ==\n")

    def test_dangling_state_reference(self):
        doc = MINIMAL + (
            "state A: self.processing = False\n"
            "transition t1: A -> Missing on POST /root\n"
        )
        with pytest.raises(ModelError, match="unknown reference: Missing"):
            load_model(doc)

    def test_collection_prefix_shorthand(self):
        rm, _, _ = load_model(MINIMAL + "resource collection_things\n")
        assert rm.definition("collection_things").is_collection

    def test_unknown_attribute_type(self):
        with pytest.raises(ModelError, match="unknown attribute type"):
            load_model("resource Root\n  attr x: float\n")

    def test_bindings_loaded(self, loaded_model):
        rm, _, _ = loaded_model
        sources = {(str(b.path), b.source) for b in rm.bindings}
        assert ("user.credential", "request") in sources
        assert ("user.role", "token") in sources


class TestValidate:
    def test_fixture_is_clean(self, loaded_model):
        rm, bm, rules = loaded_model
        assert validate_model(rm, bm, rules) == []

    def test_collection_with_attribute(self):
        rm, bm, rules = load_model(
            MINIMAL + "resource collection_bad\n  attr x: string\n"
        )
        diags = validate_model(rm, bm, rules)
        assert any("collection must have no attributes" in d for d in diags)

    def test_empty_role_name(self):
        rm = ResourceModel(
            definitions=(
                ResourceDefinition("Root", "normal"),
                ResourceDefinition("leaf", "normal"),
            ),
            associations=(Association("Root", "leaf", ""),),
            root="Root",
        )
        bm = BehavioralModel(states=(), transitions=(), initial="")
        diags = validate_model(rm, bm, [])
        assert any("role name required for URI" in d for d in diags)

    def test_uri_unsafe_role_name(self):
        rm, bm, rules = load_model(
            MINIMAL
            + "resource leaf\n  attr x: string\nassoc Root -> leaf as Bad%Segment\n"
        )
        diags = validate_model(rm, bm, rules)
        assert any("not URI-safe" in d for d in diags)

    def test_unreachable_definition(self):
        rm, bm, rules = load_model(MINIMAL + "resource island\n  attr x: string\n")
        diags = validate_model(rm, bm, rules)
        assert any("not reachable from root" in d for d in diags)

    def test_unknown_resource_in_expression(self):
        rm, bm, rules = load_model(MINIMAL + "state A: ghost.x = 1\n")
        diags = validate_model(rm, bm, rules)
        assert any("unknown resource" in d for d in diags)

    def test_unroutable_transition_uri(self):
        doc = MINIMAL + (
            "state A: self.processing = False\n"
            "transition t1: A -> A on POST /nowhere\n"
        )
        rm, bm, rules = load_model(doc)
        diags = validate_model(rm, bm, rules)
        assert any("not in the route table" in d for d in diags)


class TestRoutes:
    def test_fixture_token_route(self, loaded_model):
        rm, bm, _ = loaded_model
        routes = derive_routes(rm, bm)
        entry = routes.for_definition("token")
        assert entry.uri_template == "/v3/auth/tokens"
        assert entry.allowed_methods == frozenset({"GET", "POST"})

    def test_fixture_user_route(self, loaded_model):
        rm, bm, _ = loaded_model
        routes = derive_routes(rm, bm)
        entry = routes.for_definition("user")
        assert entry.uri_template == "/v3/users/{user_id}"
        assert entry.allowed_methods == frozenset({"GET", "DELETE"})

    def test_root_only_model(self):
        rm, bm, _ = load_model(MINIMAL)
        routes = derive_routes(rm, bm)
        assert len(routes.entries) == 1
        assert routes.entries[0].definition == "Root"

    def test_match_extracts_parameters(self, loaded_model):
        rm, bm, _ = loaded_model
        routes = derive_routes(rm, bm)
        entry, params = routes.match("/v3/users/u-42")
        assert entry.definition == "user"
        assert params == {"user_id": "u-42"}

    def test_match_ignores_the_query_string(self, loaded_model):
        rm, bm, _ = loaded_model
        routes = derive_routes(rm, bm)
        entry, params = routes.match("/v3/users/u-42?x=1")
        assert entry.uri_template == "/v3/users/{user_id}"
        assert params == {"user_id": "u-42"}

    def test_match_rejects_unknown(self, loaded_model):
        rm, bm, _ = loaded_model
        routes = derive_routes(rm, bm)
        assert routes.match("/v9/nothing/here") is None

    def test_ambiguous_path_first_declared_wins(self):
        doc = (
            "resource Root\n  attr name: string\n"
            "resource leaf\n  attr x: string\n"
            "assoc Root -> leaf as first\n"
            "assoc Root -> leaf as second\n"
        )
        rm, bm, _ = load_model(doc)
        diags: list[str] = []
        routes = derive_routes(rm, bm, diagnostics=diags)
        assert routes.for_definition("leaf").uri_template == "/first"
        assert any("ambiguous route" in d for d in diags)

    def test_derivation_is_deterministic(self, loaded_model):
        rm, bm, _ = loaded_model
        assert derive_routes(rm, bm) == derive_routes(rm, bm)


class TestSerialize:
    def test_round_trip_is_structurally_equal(self, loaded_model, fixture_document):
        rm, bm, rules = loaded_model
        text = serialize_model(rm, bm, rules)
        rm2, bm2, rules2 = load_model(text)
        assert rm2 == rm
        assert bm2 == bm
        assert rules2 == rules
