"""Parser, printer and three-valued evaluator unit tests."""

import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractgate import expr as E
from oracle import (
    F,
    T,
    TRI_TO_TRIBOOL,
    U,
    environment_for,
    gen_boolean_expr,
    gen_expression_text,
    k3_equivalent,
    oracle_eval,
)

NOW = datetime(2026, 8, 1, 12, 0, 0, tzinfo=timezone.utc)


def env_from(table: dict, now=NOW) -> E.Environment:
    values = {E.make_path(key.split(".")): value for key, value in table.items()}
    return E.Environment(lambda p: values.get(p, E.ABSENT), now)


# ---------------------------------------------------------------------------
# Parsing


class TestParse:
    def test_conjunction_of_size_and_flag(self):
        e = E.parse_expression("Token.token->size()=0 and self.processing = False")
        assert isinstance(e, E.And)
        left, right = e.left, e.right
        assert isinstance(left, E.Compare) and left.op == "="
        assert isinstance(left.left, E.SizeOf)
        assert left.left.path == E.make_path(["Token", "token"])
        assert left.right == E.Literal(0)
        assert isinstance(right, E.Compare) and right.op == "="
        assert right.left == E.PathRef(E.make_path(["self", "processing"]))
        assert right.right == E.Literal(False)

    def test_bare_literal(self):
        assert E.parse_expression("True") == E.Literal(True)

    def test_clock_comparison(self):
        e = E.parse_expression("token.expires_at <= clockTime")
        assert e == E.Compare(
            "<=", E.PathRef(E.make_path(["token", "expires_at"])), E.ClockTime()
        )

    def test_resource_head_is_case_insensitive(self):
        upper = E.parse_expression("Token.token->size()=0")
        lower = E.parse_expression("token.token->size()=0")
        assert upper == lower
        keyed = {E.make_path(["Token", "token"]): 1, E.make_path(["token", "token"]): 2}
        assert keyed == {E.make_path(["token", "token"]): 2}

    def test_implies_is_right_associative(self):
        e = E.parse_expression("a.x=1 ==> b.x=2 ==> c.x=3")
        assert isinstance(e, E.Implies)
        assert isinstance(e.right, E.Implies)
        assert not isinstance(e.left, E.Implies)

    def test_precedence_and_binds_tighter_than_or(self):
        e = E.parse_expression("a.x=1 or b.x=2 and c.x=3")
        assert isinstance(e, E.Or)
        assert isinstance(e.right, E.And)

    def test_precedence_or_binds_tighter_than_implies(self):
        e = E.parse_expression("a.x=1 or b.x=2 ==> c.x=3")
        assert isinstance(e, E.Implies)
        assert isinstance(e.left, E.Or)

    def test_not_binds_tighter_than_and(self):
        e = E.parse_expression("not a.x.oclIsInvalid() and b.x=1")
        assert isinstance(e, E.And)
        assert isinstance(e.left, E.Not)

    def test_parentheses_override_precedence(self):
        e = E.parse_expression("a.x=1 and (b.x=2 or c.x=3)")
        assert isinstance(e, E.And)
        assert isinstance(e.right, E.Or)

    def test_syntax_error_reports_offset_and_expected(self):
        with pytest.raises(E.ExprSyntaxError) as info:
            E.parse_expression("a.x=1 and")
        assert info.value.offset == 9
        assert info.value.expected
        assert "offset 9" in str(info.value)

    def test_syntax_error_on_garbage_operator(self):
        with pytest.raises(E.ExprSyntaxError):
            E.parse_expression("a.x ~ 1")

    def test_string_literal(self):
        e = E.parse_expression("user.role = 'admin'")
        assert e.right == E.Literal("admin")

    @pytest.mark.parametrize("digit", ["²", "①"])
    def test_non_decimal_digit_is_a_syntax_error(self, digit):
        """A character that ``str.isdigit`` accepts but ``int`` does not is
        a syntax error at that character, not a crash."""
        with pytest.raises(E.ExprSyntaxError) as info:
            E.parse_expression(f"x = {digit}")
        assert info.value.offset == 4

    def test_non_ascii_identifier_is_a_syntax_error(self):
        """A name is ASCII (``expr.NAME``), as the model's names are."""
        with pytest.raises(E.ExprSyntaxError) as info:
            E.parse_expression("user.é = 'x'")
        assert info.value.offset == 5

    @pytest.mark.parametrize("src,offset", [("not١", 3), ("x١ = 1", 1), ("x = y٢", 5)])
    def test_digit_run_touching_a_name_is_a_syntax_error(self, src, offset):
        """A digit run that directly follows a name character is not an
        integer: ``not١`` is not ``not 1``."""
        with pytest.raises(E.ExprSyntaxError) as info:
            E.parse_expression(src)
        assert info.value.offset == offset

    def test_decimal_digits_of_any_script_are_an_integer(self):
        assert E.parse_expression("x = ١٢") == E.Compare(
            "=", E.PathRef(E.make_path(["x"])), E.Literal(12)
        )


# ---------------------------------------------------------------------------
# Printing


def _paths():
    # keywords and "end" are legal segments after a "."
    return st.builds(
        lambda head, rest: E.make_path([head] + rest),
        st.sampled_from(["a", "Token", "self", "request", "response"]),
        st.lists(st.sampled_from(["and", "or", "not", "end", "x"]), min_size=1, max_size=2),
    )


_LEAVES = st.one_of(
    st.builds(E.PathRef, _paths()),
    st.builds(E.SizeOf, _paths()),
    st.builds(E.IsInvalid, _paths()),
    st.just(E.CLOCK_TIME),
    st.builds(E.Literal, st.one_of(
        st.booleans(),
        st.integers(min_value=0, max_value=10**12),
        st.text(st.characters(blacklist_characters="'"), max_size=4),
    )),
)


def _trees(children):
    return st.one_of(
        st.builds(E.Not, children),
        st.builds(E.And, children, children),
        st.builds(E.Or, children, children),
        st.builds(E.Implies, children, children),
        st.builds(E.Compare, st.sampled_from(sorted(E.COMPARE_OPS)), children, children),
    )


ASTS = st.recursive(_LEAVES, _trees, max_leaves=12)


class TestValueSemantics:
    def test_connectives_with_equal_operands_are_unequal(self):
        a, b = E.parse_expression("a.x"), E.parse_expression("b.y")
        nodes = [E.And(a, b), E.Or(a, b), E.Implies(a, b)]
        for i, left in enumerate(nodes):
            for j, right in enumerate(nodes):
                assert (left == right) is (i == j)
                assert (left != right) is (i != j)

    def test_comparisons_differing_only_in_op_are_unequal(self):
        left, right = E.PathRef(E.make_path(["a", "x"])), E.Literal(1)
        nodes = [E.Compare(op, left, right) for op in E.COMPARE_OPS]
        assert len(set(nodes)) == len(E.COMPARE_OPS)
        assert E.Compare("<", left, right) != E.Compare("<=", left, right)

    def test_literals_of_different_types_are_unequal(self):
        """``True == 1`` in Python, but a literal's type is part of its identity."""
        pairs = [(E.Literal(True), E.Literal(1)), (E.Literal(False), E.Literal(0)),
                 (E.parse_expression("a = True"), E.parse_expression("a = 1"))]
        for left, right in pairs:
            assert left != right
            assert hash(left) != hash(right)
            assert len({left, right}) == 2

    def test_nodes_paths_and_values_are_immutable(self):
        e = E.parse_expression("a.x=1")
        cases = [(e, "op"), (e.left, "path"), (e.right, "value"), (E.CLOCK_TIME, "value"),
                 (E.make_path(["a", "x"]), "segments"), (E.integer(1), "data")]
        for obj, field in cases:
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
        assert E.to_text(e) == "a.x=1"


class TestPrint:
    def test_compact_comparisons_spaced_connectives(self):
        e = E.parse_expression("user.role = 'admin' and token.token->size()=1")
        assert E.to_text(e) == "user.role='admin' and token.token->size()=1"

    def test_parentheses_only_where_needed(self):
        e = E.parse_expression("a.x=1 and (b.x=2 or c.x=3)")
        assert E.to_text(e) == "a.x=1 and (b.x=2 or c.x=3)"
        e2 = E.parse_expression("(a.x=1 and b.x=2) or c.x=3")
        assert E.to_text(e2) == "a.x=1 and b.x=2 or c.x=3"

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(ASTS)
    def test_round_trip_on_generated_trees(self, e):
        assert E.parse_expression(E.to_text(e)) == e

    def test_comparison_operand_keeps_its_parentheses(self):
        for text in ("(a.x=True)=True", "(not a.x)=False", "a.y<>(a.x or a.z)"):
            assert E.to_text(E.parse_expression(text)) == text
        assert E.to_text(E.parse_expression("not a.x=True")) == "not a.x=True"

    def test_round_trip_on_generated_texts(self):
        rng = random.Random(424242)
        for _ in range(300):
            ast = E.parse_expression(gen_expression_text(rng))
            assert E.parse_expression(E.to_text(ast)) == ast


# ---------------------------------------------------------------------------
# Evaluation


class TestEvaluate:
    def test_size_of_absent_is_zero(self):
        e = E.parse_expression("Token.token->size()=0")
        assert E.evaluate(e, env_from({})) is E.TRUE

    def test_not_invalid_on_present_text(self):
        e = E.parse_expression("not request.scope.oclIsInvalid()")
        assert E.evaluate(e, env_from({"request.scope": E.text("project-x")})) is E.TRUE

    def test_absent_comparison_is_unknown(self):
        e = E.parse_expression("user.role = 'admin'")
        assert E.evaluate(e, env_from({})) is E.UNKNOWN

    def test_false_implies_unknown_is_true(self):
        e = E.parse_expression("self.a ==> self.b")
        env = env_from({"self.a": E.boolean(False), "self.b": E.INVALID})
        assert E.evaluate(e, env) is E.TRUE

    def test_invalid_operand_is_unknown(self):
        e = E.parse_expression("user.role = 'admin'")
        assert E.evaluate(e, env_from({"user.role": E.INVALID})) is E.UNKNOWN

    def test_size_counts(self):
        env = env_from(
            {"a.one": E.text("x"), "a.many": E.count(3), "a.bad": E.INVALID}
        )
        assert E.evaluate(E.parse_expression("a.one->size()=1"), env) is E.TRUE
        assert E.evaluate(E.parse_expression("a.many->size()=3"), env) is E.TRUE
        assert E.evaluate(E.parse_expression("a.bad->size()=0"), env) is E.UNKNOWN
        assert E.evaluate(E.parse_expression("a.gone->size()=0"), env) is E.TRUE

    def test_is_invalid_never_unknown(self):
        env = env_from({"a.bad": E.INVALID, "a.ok": E.integer(5)})
        assert E.evaluate(E.parse_expression("a.bad.oclIsInvalid()"), env) is E.TRUE
        assert E.evaluate(E.parse_expression("a.gone.oclIsInvalid()"), env) is E.TRUE
        assert E.evaluate(E.parse_expression("a.ok.oclIsInvalid()"), env) is E.FALSE

    def test_formula_operand_of_a_comparison_reads_as_a_boolean(self):
        env = env_from({"a.x": E.boolean(True)})
        assert E.evaluate(E.parse_expression("a.x.oclIsInvalid() = False"), env) is E.TRUE
        assert E.evaluate(E.parse_expression("a.gone.oclIsInvalid() = False"), env) is E.FALSE
        assert E.evaluate(E.parse_expression("(a.x = True) = True"), env) is E.TRUE
        assert E.evaluate(E.parse_expression("(not a.x) <> a.x"), env) is E.TRUE

    def test_unknown_formula_operand_makes_a_comparison_unknown(self):
        env = env_from({"a.x": E.boolean(True)})
        for text in ("(a.gone = 1) = True", "(a.x and a.gone) <> False", "a.x = (a.gone < 2)"):
            assert E.evaluate(E.parse_expression(text), env) is E.UNKNOWN

    def test_clock_comparison_uses_env_now(self):
        env = env_from({"token.expires_at": E.timestamp(NOW.replace(hour=13))})
        assert E.evaluate(
            E.parse_expression("clockTime <= token.expires_at"), env
        ) is E.TRUE
        assert E.evaluate(
            E.parse_expression("token.expires_at <= clockTime"), env
        ) is E.FALSE

    def test_ordering_across_kinds_is_unknown(self):
        env = env_from({"a.t": E.text("zzz")})
        assert E.evaluate(E.parse_expression("a.t < 3"), env) is E.UNKNOWN

    COMPARE_ENV = {
        "a.two": E.integer(2),
        "a.many": E.count(3),
        "a.word": E.text("beta"),
        "a.later": E.text("2026-08-01T13:00:00Z"),
        "a.earlier": E.text("2026-08-01T11:00:00+00:00"),
        "a.soon": E.text("soon"),
        "a.yes": E.boolean(True),
        "a.no": E.boolean(False),
        "a.doc": E.document({"k": [1]}),
        "a.same_doc": E.document({"k": [1]}),
    }

    @pytest.mark.parametrize(
        "text, expected",
        [
            # the ordering operators on numbers, counts and text
            ("a.two < 3", E.TRUE),
            ("a.two < 2", E.FALSE),
            ("a.two > 1", E.TRUE),
            ("a.two > 2", E.FALSE),
            ("a.two >= 2", E.TRUE),
            ("a.two >= 3", E.FALSE),
            ("a.two <= 1", E.FALSE),
            ("a.many > a.two", E.TRUE),
            ("a.many = 3", E.TRUE),
            ("a.many <> 3", E.FALSE),
            ("a.word < 'gamma'", E.TRUE),
            ("a.word >= 'gamma'", E.FALSE),
            # ISO text against a timestamp reads as a timestamp, on either side
            ("clockTime < a.later", E.TRUE),
            ("a.later > clockTime", E.TRUE),
            ("a.later <= clockTime", E.FALSE),
            ("clockTime >= a.earlier", E.TRUE),
            ("a.earlier >= clockTime", E.FALSE),
            ("clockTime = a.later", E.FALSE),
            ("clockTime <> a.earlier", E.TRUE),
            ("a.later = clockTime", E.FALSE),
            # unparseable text against a timestamp: unequal, never ordered
            ("clockTime = a.soon", E.FALSE),
            ("a.soon = clockTime", E.FALSE),
            ("clockTime <> a.soon", E.TRUE),
            ("a.soon <> clockTime", E.TRUE),
            ("clockTime < a.soon", E.UNKNOWN),
            ("a.soon >= clockTime", E.UNKNOWN),
            # booleans and documents compare for equality only
            ("a.yes = True", E.TRUE),
            ("a.yes <> a.no", E.TRUE),
            ("a.no < a.yes", E.UNKNOWN),
            ("a.yes >= False", E.UNKNOWN),
            ("a.doc = a.same_doc", E.TRUE),
            ("a.doc <> a.same_doc", E.FALSE),
            ("a.doc <= a.same_doc", E.UNKNOWN),
            ("a.doc > a.same_doc", E.UNKNOWN),
            ("a.doc = 1", E.FALSE),
        ],
    )
    def test_comparison(self, text, expected):
        env = env_from(self.COMPARE_ENV)
        assert E.evaluate(E.parse_expression(text), env) is expected

    def test_resolver_called_once_per_path(self):
        calls = []

        def resolver(path):
            calls.append(path)
            return E.boolean(True)

        env = E.Environment(resolver, NOW)
        e = E.parse_expression("self.p and self.p and self.p")
        assert E.evaluate(e, env) is E.TRUE
        assert len(calls) == 1

    def test_resolver_exception_folds_to_unknown(self):
        def resolver(path):
            raise RuntimeError("boom")

        env = E.Environment(resolver, NOW)
        assert E.evaluate(E.parse_expression("a.x = 1"), env) is E.UNKNOWN


class TestK3Tables:
    PAIRS = [(a, b) for a in (T, F, U) for b in (T, F, U)]

    def test_implies_matches_oracle_on_all_nine_pairs(self):
        e = E.parse_expression("self.a ==> self.b")
        pa, pb = E.make_path(["self", "a"]), E.make_path(["self", "b"])
        for a, b in self.PAIRS:
            assignment = {pa: a, pb: b}
            got = E.evaluate(e, environment_for(assignment, NOW))
            assert got is TRI_TO_TRIBOOL[oracle_eval(e, assignment)]

    def test_and_or_not_match_oracle(self):
        pa, pb = E.make_path(["self", "a"]), E.make_path(["self", "b"])
        for text in ("self.a and self.b", "self.a or self.b", "not self.a"):
            e = E.parse_expression(text)
            for a, b in self.PAIRS:
                assignment = {pa: a, pb: b}
                got = E.evaluate(e, environment_for(assignment, NOW))
                assert got is TRI_TO_TRIBOOL[oracle_eval(e, assignment)]


class TestOracleProperty:
    def test_evaluator_agrees_with_bruteforce_oracle(self):
        rng = random.Random(97)
        atoms = [E.make_path(["self", f"a{i}"]) for i in range(4)]
        tri = (T, F, U)
        for _ in range(150):
            e = gen_boolean_expr(rng, atoms)
            for combo in _all_assignments(atoms, tri):
                got = E.evaluate(e, environment_for(combo, NOW))
                assert got is TRI_TO_TRIBOOL[oracle_eval(e, combo)]

    def test_monotonicity_of_definedness(self):
        rng = random.Random(555)
        atoms = [E.make_path(["self", f"a{i}"]) for i in range(4)]
        for _ in range(150):
            e = gen_boolean_expr(rng, atoms)
            base = {p: rng.choice((T, F, U)) for p in atoms}
            unknowns = [p for p in atoms if base[p] == U]
            if not unknowns:
                base[rng.choice(atoms)] = U
                unknowns = [p for p in atoms if base[p] == U]
            before = E.evaluate(e, environment_for(base, NOW))
            refined = dict(base)
            refined[rng.choice(unknowns)] = rng.choice((T, F))
            after = E.evaluate(e, environment_for(refined, NOW))
            if before is E.TRUE:
                assert after is E.TRUE
            elif before is E.FALSE:
                assert after is E.FALSE


def _all_assignments(atoms, tri):
    import itertools

    for combo in itertools.product(tri, repeat=len(atoms)):
        yield dict(zip(atoms, combo))


# ---------------------------------------------------------------------------
# Path analysis and snapshot semantics


class TestPathAnalysis:
    def test_free_paths_of_invariant(self):
        e = E.parse_expression("Token.token->size()=0 and self.processing = False")
        assert E.free_paths(e) == {
            E.make_path(["token", "token"]),
            E.make_path(["self", "processing"]),
        }

    def test_free_paths_clock_only_is_empty(self):
        assert E.free_paths(E.parse_expression("clockTime <= clockTime")) == set()

    def test_antecedent_paths_single_implication(self):
        e = E.parse_expression("a.x=1 and b.y=2 ==> c.z=3")
        assert E.antecedent_paths(e) == {
            E.make_path(["a", "x"]),
            E.make_path(["b", "y"]),
        }

    def test_antecedent_paths_include_unconditional_conjuncts(self):
        e = E.parse_expression("d.w=4 and (a.x=1 ==> c.z=3)")
        assert E.antecedent_paths(e) == {
            E.make_path(["d", "w"]),
            E.make_path(["a", "x"]),
        }

    def test_no_implies_means_all_free_paths(self):
        e = E.parse_expression("a.x=1 and b.y=2")
        assert E.antecedent_paths(e) == E.free_paths(e)

    def test_snapshot_shadowing_only_in_antecedents(self):
        p = E.make_path(["a", "x"])
        env = E.Environment(
            lambda path: E.integer(2),
            NOW,
            phase="post",
            snapshot={p: E.integer(1)},
        )
        e = E.parse_expression("a.x=1 ==> a.x=2")
        # antecedent sees the snapshot (1), consequent the live value (2)
        assert E.evaluate(e, env) is E.TRUE


# ---------------------------------------------------------------------------
# Conjunct helpers, simplification, equivalence


class TestHelpers:
    def test_conjuncts_flatten(self):
        e = E.parse_expression("a.x=1 and b.y=2 and c.z=3")
        assert [E.to_text(c) for c in E.conjuncts(e)] == ["a.x=1", "b.y=2", "c.z=3"]

    def test_conjoin_disjoin_empty(self):
        assert E.conjoin([]) == E.Literal(True)
        assert E.disjoin([]) == E.Literal(False)

    def test_elide_true_drops_literal_true_conjuncts(self):
        e = E.And(E.Literal(True), E.parse_expression("a.x=1"))
        assert E.elide_true(e) == E.parse_expression("a.x=1")

    def test_elide_true_keeps_integer_one(self):
        e = E.And(E.Literal(1), E.parse_expression("a.x=1"))
        assert E.elide_true(e) == e

    def test_k3_equivalence_de_morgan(self):
        a = E.parse_expression("not (self.a and self.b)")
        b = E.parse_expression("not self.a or not self.b")
        assert k3_equivalent(a, b)

    def test_k3_equivalence_commutativity(self):
        assert k3_equivalent(
            E.parse_expression("self.a or self.b"),
            E.parse_expression("self.b or self.a"),
        )

    def test_k3_inequivalence(self):
        assert not k3_equivalent(
            E.parse_expression("self.a"), E.parse_expression("not self.a")
        )

    def test_excluded_middle_fails_in_k3(self):
        # `a or not a` is Unknown when a is Unknown, so it is not
        # equivalent to True — the fail-closed semantics depend on this.
        assert not k3_equivalent(
            E.parse_expression("self.a or not self.a"), E.Literal(True)
        )


def _generated_trees(seed: int, n: int = 150):
    """Random trees: boolean structure over atoms, and parsed texts that
    span the full grammar (literals, comparisons, clockTime)."""
    rng = random.Random(seed)
    atoms = [E.make_path(["self", f"a{i}"]) for i in range(4)]
    for _ in range(n):
        yield gen_boolean_expr(rng, atoms)
        yield E.parse_expression(gen_expression_text(rng))


def _subterms(e: E.Expression):
    yield e
    for name in ("left", "right", "operand"):
        child = getattr(e, name, None)
        if isinstance(child, E.Expression):
            yield from _subterms(child)


class TestTransform:
    def test_identity_function_rebuilds_an_equal_tree(self):
        for e in _generated_trees(31):
            rebuilt = E.transform(e, lambda n: n)
            assert rebuilt == e
            assert hash(rebuilt) == hash(e)

    def test_fn_runs_bottom_up_on_rebuilt_operands(self):
        e = E.parse_expression("a.x=1 and not (b.y or c.z)")
        seen = []

        def record(node):
            seen.append(E.to_text(node))
            return E.Or(node.left, node.right) if isinstance(node, E.And) else node

        assert E.to_text(E.transform(e, record)) == "a.x=1 or not (b.y or c.z)"
        assert seen == ["a.x=1", "b.y", "c.z", "b.y or c.z", "not (b.y or c.z)",
                        "a.x=1 and not (b.y or c.z)"]

    def test_elide_true_leaves_no_literal_true_conjunct(self):
        for e in _generated_trees(32):
            for node in _subterms(E.elide_true(e)):
                if isinstance(node, E.And):
                    for operand in (node.left, node.right):
                        assert not (isinstance(operand, E.Literal)
                                    and operand.value is True)

    def test_elide_true_preserves_meaning(self):
        for e in _generated_trees(33, n=60):
            assert k3_equivalent(E.elide_true(e), e)


class TestTimestamps:
    def test_parse_timestamp_accepts_z_suffix(self):
        dt = E.parse_timestamp("2026-08-01T12:00:00Z")
        assert dt == NOW

    def test_parse_timestamp_rejects_garbage(self):
        assert E.parse_timestamp("not-a-time") is None
