"""Model loading, validation, serialization and route derivation tests."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractgate import expr as E
from contractgate.model import (
    ATTRIBUTE_TYPES,
    MAX_GUARD_ATOMS,
    SIDE_EFFECT_METHODS,
    UNBOUNDED,
    Association,
    Attribute,
    BehavioralModel,
    Binding,
    ModelError,
    ResourceDefinition,
    ResourceModel,
    SecurityRule,
    State,
    Transition,
    derive_routes,
    load_model,
    validate_model,
)
from oracle import T, gen_boolean_expr, oracle_eval, serialize_model

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

    @pytest.mark.parametrize("document,message", [
        ("resource\n", "line 1: resource requires a name"),
        ("resource 9x\n", "line 1: invalid resource name '9x'"),
        ("resource Root\n  attr a-b: string\n", "line 2: invalid attribute name 'a-b'"),
        ("resource Root\n  attr 1x: string\n", "line 2: invalid attribute name '1x'"),
        ("resource Root\n  attr 'q: string id\n", "line 2: invalid attribute name \"'q\""),
        ("resource Root\n  attr é: string\n", "line 2: invalid attribute name 'é'"),
        ("resource Root\n  attr a.b: string\n", "line 2: invalid attribute name 'a.b'"),
        ("attr x: string\n", "line 1: attr outside a resource block"),
        (MINIMAL + "state A: True\n  attr y: string\n",
         "line 4: attr outside a resource block"),
        ("resource Root\n  attr x: float\n",
         "line 2: unknown attribute type 'float' "
         "(expected one of string, integer, boolean, timestamp, document)"),
        ("resource Root\n  attr x string\n", "line 2: malformed attr line: 'attr x string'"),
        (MINIMAL + "assoc Root leaf as x\n",
         "line 3: malformed assoc line: 'assoc Root leaf as x'"),
        (MINIMAL + "assoc Root -> Root as r 1" + "0" * 5000 + "..*\n",
         "line 3: assoc cardinality has more than 18 digits"),
        (MINIMAL + "state A True\n", "line 3: state requires ': <expression>'"),
        (MINIMAL + "state A: True\ntransition t1 A -> A on POST /\n",
         "line 4: malformed transition line: 'transition t1 A -> A on POST /'"),
        (MINIMAL + "state A: True\ntransition t1: A -> A on POST / actor: o'brien\n",
         "line 4: malformed transition line: \"transition t1: A -> A on POST / actor: o'brien\""),
        (MINIMAL + "rule r1 POST /: always True\n",
         "line 3: malformed rule line: 'rule r1 POST /: always True'"),
        (MINIMAL + "bind root.name request x\n",
         "line 3: malformed bind line: 'bind root.name request x'"),
        (MINIMAL + "state A: True\ntransition t1: A -> A on GET /\n",
         "line 4: transition 't1' triggered by GET: only side-effect methods "
         "(PUT, POST, DELETE) may trigger transitions"),
        (MINIMAL + "bind root from request x\n",
         "line 3: bind path must be <resource>.<attribute>"),
        (MINIMAL + "bind self.x from request x\n",
         "line 3: bind path must be <resource>.<attribute>"),
        (MINIMAL + "bind root.na-me from request x\n",
         "line 3: invalid bind path segment 'na-me'"),
        (MINIMAL + "frobnicate x\n", "line 3: unknown directive 'frobnicate'"),
        (MINIMAL + "state A: a.x ==\n",
         "line 3: in expression 'a.x ==': syntax error at offset 6: "
         "got '=', expected one of (, clockTime, literal, path"),
        (MINIMAL + "rule r1 on POST /: if a.x == then True\n",
         "line 3: in expression 'a.x ==': syntax error at offset 5: "
         "got '=', expected one of (, clockTime, literal, path"),
        ("# nothing but a comment\n", "empty resource model"),
        (MINIMAL + "transition t1: A -> B on POST /\n", "transitions declared without states"),
        (MINIMAL + "state A: True\ntransition t1: A -> Missing on POST /\n",
         "unknown reference: Missing"),
        (MINIMAL + "assoc Root -> ghost as x\n", "unknown reference: ghost"),
    ])
    def test_error_message(self, document, message):
        with pytest.raises(ModelError) as info:
            load_model(document)
        assert str(info.value) == message

    @pytest.mark.parametrize("line,clause,text", [
        ("rule r1 on POST /: always user.name <> 'a#b'", "rule_expr", "user.name <> 'a#b'"),
        ("rule r1 on POST /: if request.scope = 'p then q' then True", "if_expr",
         "request.scope = 'p then q'"),
        ("transition t1: A -> A on POST / guard: a.b = ' effect: x' effect: a.c = 1",
         "guard", "a.b = ' effect: x'"),
        ("transition t1: A -> A on POST / effect: a.c = ' actor: y' actor: admin",
         "effect", "a.c = ' actor: y'"),
        ("transition t1: A -> A on POST / guard: a.b <> ' guard: #' # a comment",
         "guard", "a.b <> ' guard: #'"),
    ])
    def test_literal_holds_a_comment_mark_or_clause_keyword(self, line, clause, text):
        _, bm, rules = load_model(MINIMAL + "state A: True\n" + line + "\n")
        loaded = rules[0] if line.startswith("rule") else bm.transitions[0]
        assert getattr(loaded, clause) == E.parse_expression(text)

    @pytest.mark.parametrize("line,loads", [
        # an unclosed quote keeps the rest of the line, which is refused
        ("rule r on POST /: always a.b 'x # c", False),
        ("transition t1: A -> A on POST / guard: a.b = 'x effect: c", False),
        # an apostrophe after the comment mark is comment text
        ("resource user  # the user's record", True),
    ])
    def test_quote_and_comment_mark(self, line, loads):
        document = MINIMAL + "state A: True\n" + line + "\n"
        if loads:
            load_model(document)
        else:
            with pytest.raises(ModelError):
                load_model(document)

    def test_unclosed_quote_on_a_long_line_is_refused_in_linear_time(self):
        # each clause can take a lone quote and the rest of the line, so the
        # pattern never has to try every split of the line before it fails
        clauses = "guard: " + "a effect: " * 3000 + "'"
        started = time.perf_counter()
        with pytest.raises(ModelError):
            load_model(MINIMAL + f"state A: True\ntransition t1: A -> A on POST / {clauses}\n")
        assert time.perf_counter() - started < 2.0

    def test_records_are_immutable(self, loaded_model):
        rm, bm, rules = loaded_model
        records = [rm, rm.definitions[0], rm.definitions[0].attributes[0],
                   rm.associations[0], rm.bindings[0], bm, bm.states[0], bm.transitions[0],
                   rules[0], derive_routes(rm, bm), derive_routes(rm, bm).entries[0]]
        for record in records:
            with pytest.raises(AttributeError):
                setattr(record, type(record)._fields[0], None)

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

    def test_rule_no_transition_triggers(self, fixture_document):
        doc = fixture_document.decode() + (
            "rule admin_reads on GET /v3/users/{user_id}: always user.role='admin'\n"
        )
        diags = validate_model(*load_model(doc))
        assert diags == [
            "rule admin_reads: no transition on GET /v3/users/{user_id}, "
            "so the rule is never checked"
        ]

    def test_path_deeper_than_its_attribute(self):
        rm, bm, rules = load_model(
            MINIMAL + "state Odd: root.name.first = 'bob'\nbind root.name.x from request a\n"
        )
        assert validate_model(rm, bm, rules) == [
            "state Odd: path root.name.first goes deeper than its attribute",
            "bind: path root.name.x goes deeper than its attribute",
        ]

    def test_bind_and_expression_paths_get_one_check(self):
        doc = MINIMAL + (
            "resource collection_things\nassoc Root -> collection_things as things\n"
            "state A: ghost.x = 1 and root.nope = 1 and collection_things.x = 1\n"
            "bind ghost.x from request a\nbind root.nope from token b\n"
            "bind collection_things.x from request c\n"
        )
        assert validate_model(*load_model(doc)) == [
            "state A: unknown attribute collection_things.x",
            "state A: unknown resource 'ghost' in ghost.x",
            "state A: unknown attribute root.nope",
            "bind: unknown attribute collection_things.x",
            "bind: unknown resource 'ghost' in ghost.x",
            "bind: unknown attribute root.nope",
        ]

    def test_guard_that_can_never_hold(self, fixture_document):
        guard = b"guard: user.id->size()=1 actor"
        doc = fixture_document.replace(
            guard, b"guard: user.id->size()=1 and not user.id->size()=1 actor"
        )
        assert doc != fixture_document
        assert validate_model(*load_model(doc)) == [
            "transition t3: can never fire from state Token_Issued"
        ]

    def test_state_invariant_that_can_never_hold(self, fixture_document):
        """As t3's target state, User_Deleted's invariant is the consequent
        of its postcondition: every admin DELETE would be performed, then
        answered 502."""
        invariant = b"state User_Deleted: token.token->size()=1 and user.id->size()=0"
        doc = fixture_document.replace(
            invariant, b"state User_Deleted: user.id->size()=0 and not user.id->size()=0"
        )
        assert doc != fixture_document
        assert validate_model(*load_model(doc)) == [
            "state User_Deleted: invariant can never hold"
        ]

    @pytest.mark.parametrize("old,clause", [
        ("then token.token->size()=1 and token.catalog->size()=1",
         "then token.token->size()=1 and not token.token->size()=1"),
        ("if request.scope->size()=1 and request.scope <> 'unscope' and "
         "not request.scope.oclIsInvalid() then token.token->size()=1 and "
         "token.catalog->size()=1",
         "always token.catalog->size()=1 and False"),
    ])
    def test_rule_clause_that_can_never_hold(self, fixture_document, old, clause):
        doc = fixture_document.replace(old.encode(), clause.encode())
        assert doc != fixture_document
        kind = clause.split()[0]
        assert validate_model(*load_model(doc)) == [
            f"rule auth_scoped: {kind} clause can never hold"
        ]

    def test_contract_path_with_no_source(self, fixture_document):
        """``project`` is neither the addressed resource of a DELETE on a
        user nor at a fixed route, so its path reads Absent on every
        request: the guard would refuse every admin DELETE."""
        guard = b"guard: user.id->size()=1 actor"
        doc = fixture_document.replace(
            guard, b"guard: user.id->size()=1 and project.name = 'demo' actor"
        )
        assert doc != fixture_document
        assert validate_model(*load_model(doc)) == [
            "DELETE /v3/users/{user_id}: path project.name has no source, "
            "so it reads Absent on every request"
        ]

    def test_token_bind_with_no_token_route_has_no_source(self):
        doc = MINIMAL + (
            "resource collection_things\nresource thing\n  attr id: string id\n"
            "  attr role: string\n"
            "assoc Root -> collection_things as things\n"
            "assoc collection_things -> thing as item\n"
            "bind thing.role from token roles.0.name\n"
            "state A: True\n"
            "transition t1: A -> A on DELETE /things/{thing_id} guard: thing.role = 'admin'\n"
        )
        assert validate_model(*load_model(doc)) == [
            "DELETE /things/{thing_id}: path thing.role has no source, "
            "so it reads Invalid on every request"
        ]

    @pytest.mark.parametrize("state,guard,fires", [
        ("self.a", "not self.a", False),  # the invariant takes part
        ("True", "False", False),
        ("True", "'text'", False),  # a text literal's truth is Unknown
        ("True", "self.a or not self.a", True),  # Unknown when self.a is
        ("True", "self.a ==> self.a", True),
        ("True", "self.a = 1 and not self.a = 1", False),
        ("self.a = True", "not self.a = 1", True),  # two atoms: a boolean is not 1
        ("False", None, False),
    ])
    def test_firing_condition(self, state, guard, fires):
        clause = f" guard: {guard}" if guard else ""
        doc = MINIMAL + f"state A: {state}\ntransition t1: A -> A on POST /{clause}\n"
        expected = [] if fires else ["transition t1: can never fire from state A"]
        if state == "False":
            expected.insert(0, "state A: invariant can never hold")
        assert validate_model(*load_model(doc)) == expected

    @pytest.mark.parametrize("atoms", [MAX_GUARD_ATOMS, MAX_GUARD_ATOMS + 1])
    def test_firing_condition_with_too_many_atoms_is_not_checked(self, atoms):
        guard = " and ".join(f"self.a{i}" for i in range(atoms)) + " and not self.a0"
        doc = MINIMAL + f"state A: True\ntransition t1: A -> A on POST / guard: {guard}\n"
        expected = ["transition t1: can never fire from state A"]
        assert validate_model(*load_model(doc)) == (expected if atoms <= MAX_GUARD_ATOMS else [])

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_firing_diagnostic_matches_k3_oracle(self, seed):
        """The diagnostic is given exactly when no three-valued assignment
        of the atoms makes the source invariant and the guard both TRUE, and
        the state's own diagnostic when none makes its invariant TRUE."""
        rng = random.Random(seed)
        atoms = [E.make_path(["self", name]) for name in "abc"]
        invariant, guard = gen_boolean_expr(rng, atoms), gen_boolean_expr(rng, atoms)
        transition = f"transition t1: A -> A on POST / guard: {E.to_text(guard)}"
        doc = MINIMAL + f"state A: {E.to_text(invariant)}\n{transition}\n"

        def never(e):
            return all(
                oracle_eval(e, dict(zip(atoms, values))) != T
                for values in itertools.product("TFU", repeat=len(atoms))
            )

        diags = validate_model(*load_model(doc))
        assert diags == (
            (["state A: invariant can never hold"] if never(invariant) else [])
            + (["transition t1: can never fire from state A"]
               if never(E.And(invariant, guard)) else [])
        )

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
        routes = derive_routes(rm, bm)
        assert routes.for_definition("leaf").uri_template == "/first"

    def test_derivation_is_deterministic(self, loaded_model):
        rm, bm, _ = loaded_model
        assert derive_routes(rm, bm) == derive_routes(rm, bm)


# Contracts of every node kind, some with a text literal that holds a comment
# mark or a clause keyword, which is text there; the expression language has
# its own round-trip tests.
_EXPRESSIONS = st.sampled_from([
    "self.processing = False",
    "Token.token->size()=0 and clockTime <= token.expires_at",
    "not request.scope.oclIsInvalid() or request.scope <> 'a b-1'",
    "(user.id->size()=1 ==> user.role='admin') = True",
    "True",
    "user.name <> 'a#b' and user.name <> '#'",
    "request.scope = 'p then q' or request.scope = ' then '",
    "user.id = ' guard: x' ==> user.name = ' effect: y'",
    "not user.role = ' actor: admin'",
]).map(E.parse_expression)
_URIS = st.sampled_from(["/", "/v3/users/{user_id}"])


def _resource(draw, name: str) -> ResourceDefinition:
    attrs = draw(st.lists(st.sampled_from(["id", "key", "name"]), unique=True, max_size=3))
    marked = draw(st.sampled_from([None, *attrs]))
    if marked is None and "id" in attrs:
        marked = "id"  # an attribute named id is the id attribute unless one is marked
    flagged = name.startswith("collection_") or draw(st.booleans())
    return ResourceDefinition(
        name,
        "collection" if flagged else "normal",
        tuple(Attribute(a, draw(st.sampled_from(ATTRIBUTE_TYPES))) for a in attrs),
        marked,
    )


def _association(draw, names: list[str]) -> Association:
    ends = (draw(st.sampled_from(names)), draw(st.sampled_from(names)))
    role = draw(st.sampled_from(["item", "v3/users"]))
    card = draw(st.sampled_from(["absent", "numeric", "star"]))
    if card == "absent":
        return Association(*ends, role)
    low = draw(st.integers(0, 3))
    high = draw(st.integers(0, 3)) if card == "numeric" else UNBOUNDED
    return Association(*ends, role, low, high)


def _transition(draw, tid: str, states: list[str]) -> Transition:
    optional = st.none() | _EXPRESSIONS
    return Transition(
        id=tid,
        source=draw(st.sampled_from(states)),
        target=draw(st.sampled_from(states)),
        http_method=draw(st.sampled_from(SIDE_EFFECT_METHODS)),
        uri_template=draw(_URIS),
        guard=draw(optional),
        effect=draw(optional),
        actor_role=draw(st.sampled_from([None, "admin"])),
    )


def _rule(draw, rid: str) -> SecurityRule:
    method, uri = draw(st.sampled_from(["GET", "POST", "DELETE"])), draw(_URIS)
    if draw(st.booleans()):
        return SecurityRule(rid, method, uri, "unconditional", rule_expr=draw(_EXPRESSIONS))
    return SecurityRule(
        rid, method, uri, "conditional", if_expr=draw(_EXPRESSIONS), then_expr=draw(_EXPRESSIONS)
    )


@st.composite
def _models(draw):
    resources = ["Root", "leaf", "collection_users", "group"]
    names = draw(st.lists(st.sampled_from(resources), min_size=1, unique=True))
    definitions = tuple(_resource(draw, name) for name in names)
    associations = tuple(
        _association(draw, names) for _ in range(draw(st.integers(0, 3)))
    )
    bindings = tuple(
        Binding(
            E.make_path([draw(st.sampled_from(names)), draw(st.sampled_from(["id", "role"]))]),
            draw(st.sampled_from(["request", "token"])),
            tuple(draw(st.lists(st.sampled_from(["auth", "0", "name"]), min_size=1, max_size=3))),
        )
        for _ in range(draw(st.integers(0, 2)))
    )
    states = draw(st.lists(st.sampled_from(["Ready", "Issued", "Gone"]), unique=True))
    tids = draw(st.lists(st.sampled_from(["t1", "t2", "t3"]), unique=True)) if states else []
    rids = draw(st.lists(st.sampled_from(["r1", "r2", "r3"]), unique=True))
    rm = ResourceModel(definitions, associations, names[0], bindings)
    bm = BehavioralModel(
        tuple(State(s, draw(_EXPRESSIONS)) for s in states),
        tuple(_transition(draw, tid, states) for tid in tids),
        states[0] if states else "",
    )
    return rm, bm, [_rule(draw, rid) for rid in rids]


class TestSerialize:
    def test_round_trip_is_structurally_equal(self, loaded_model, fixture_document):
        rm, bm, rules = loaded_model
        text = serialize_model(rm, bm, rules)
        rm2, bm2, rules2 = load_model(text)
        assert rm2 == rm
        assert bm2 == bm
        assert rules2 == rules

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_models())
    def test_round_trip_on_generated_models(self, model):
        loaded = load_model(serialize_model(*model))
        assert loaded == model
        assert repr(loaded) == repr(model)
