"""Independent oracles, references and generators used by the unit and
acceptance tests.

``k3_equivalent`` decides whether two contract formulas agree under every
three-valued assignment of their atoms; it compiles each formula to closures
because the POST-token postcondition has 11 atoms (3^11 assignments).

The K3 oracle is a deliberately naive re-implementation of Kleene's
three-valued tables (encoded as dict lookups over {'T','F','U'}) so that it
shares no code with the package's evaluator.
"""

import itertools
import random
import string

from contractgate import expr as E
from contractgate.model import UNBOUNDED, BehavioralModel, ResourceModel, SecurityRule

T, F, U = "T", "F", "U"

_NOT = {T: F, F: T, U: U}
_AND = {
    (T, T): T, (T, F): F, (T, U): U,
    (F, T): F, (F, F): F, (F, U): F,
    (U, T): U, (U, F): F, (U, U): U,
}
_OR = {
    (T, T): T, (T, F): T, (T, U): T,
    (F, T): T, (F, F): F, (F, U): U,
    (U, T): T, (U, F): U, (U, U): U,
}


def oracle_eval(e: E.Expression, assignment: dict) -> str:
    """Brute-force K3 evaluation of an atom-abstracted expression whose
    leaves are PathRef atoms (or boolean literals)."""
    if isinstance(e, E.And):
        return _AND[oracle_eval(e.left, assignment), oracle_eval(e.right, assignment)]
    if isinstance(e, E.Or):
        return _OR[oracle_eval(e.left, assignment), oracle_eval(e.right, assignment)]
    if isinstance(e, E.Not):
        return _NOT[oracle_eval(e.operand, assignment)]
    if isinstance(e, E.Implies):
        # l ==> r  ===  (not l) or r
        return _OR[_NOT[oracle_eval(e.left, assignment)],
                   oracle_eval(e.right, assignment)]
    if isinstance(e, E.PathRef):
        return assignment[e.path]
    if isinstance(e, E.Literal) and isinstance(e.value, bool):
        return T if e.value else F
    raise AssertionError(f"non-atomic leaf in abstracted expression: {e!r}")


# ---------------------------------------------------------------------------
# Atom abstraction and exhaustive K3 comparison


def abstract_atoms(e: E.Expression, atoms: dict[str, E.Path]) -> E.Expression:
    """Replace every atomic subformula with a bare monitor-variable reference,
    keyed by its printed text.  ``atoms`` accumulates text -> placeholder path
    across calls so two formulas share variables."""

    def abstract(node: E.Expression) -> E.Expression:
        if isinstance(node, (E.And, E.Or, E.Implies, E.Not)):
            return node
        if isinstance(node, E.Literal) and isinstance(node.value, bool):
            return node
        key = E.to_text(node)
        if key not in atoms:
            atoms[key] = E.Path(E.Namespace.SELF, (f"atom_{len(atoms)}",))
        return E.PathRef(atoms[key])

    return E.transform(e, abstract)


_TRI_VALUES = (E.TRUE, E.FALSE, E.UNKNOWN)


def _compile_abstracted(e: E.Expression, index: dict[E.Path, int]):
    """Compile an abstracted formula into a closure over the assignment
    tuple, so exhaustive enumeration stays fast."""
    if isinstance(e, E.And):
        l = _compile_abstracted(e.left, index)
        r = _compile_abstracted(e.right, index)
        return lambda v: E.tri_and(l(v), r(v))
    if isinstance(e, E.Or):
        l = _compile_abstracted(e.left, index)
        r = _compile_abstracted(e.right, index)
        return lambda v: E.tri_or(l(v), r(v))
    if isinstance(e, E.Implies):
        l = _compile_abstracted(e.left, index)
        r = _compile_abstracted(e.right, index)
        return lambda v: E.tri_implies(l(v), r(v))
    if isinstance(e, E.Not):
        o = _compile_abstracted(e.operand, index)
        return lambda v: E.tri_not(o(v))
    if isinstance(e, E.PathRef):
        i = index[e.path]
        return lambda v: v[i]
    if isinstance(e, E.Literal) and isinstance(e.value, bool):
        const = E.from_bool(e.value)
        return lambda v: const
    raise TypeError(f"not an abstracted formula node: {e!r}")


def k3_equivalent(a: E.Expression, b: E.Expression, max_atoms: int = 12) -> bool:
    """Exhaustively check that two formulas agree under every assignment of
    their atoms (by printed text) to {True, False, Unknown}."""
    atoms: dict[str, E.Path] = {}
    aa = abstract_atoms(a, atoms)
    bb = abstract_atoms(b, atoms)
    index = {p: i for i, p in enumerate(atoms.values())}
    if len(index) > max_atoms:
        raise ValueError(f"too many atoms for exhaustive comparison: {len(index)}")
    fa = _compile_abstracted(aa, index)
    fb = _compile_abstracted(bb, index)
    for combo in itertools.product(_TRI_VALUES, repeat=len(index)):
        if fa(combo) is not fb(combo):
            return False
    return True


_TRI_VALUE = {
    T: E.boolean(True),
    F: E.boolean(False),
    U: E.INVALID,  # an Invalid boolean operand evaluates as Unknown
}


def environment_for(assignment: dict, now=None) -> E.Environment:
    from datetime import datetime, timezone

    table = {path: _TRI_VALUE[tri] for path, tri in assignment.items()}

    def resolver(path):
        return table.get(path, E.ABSENT)

    return E.Environment(resolver, now or datetime.now(timezone.utc))


TRI_TO_TRIBOOL = {T: E.TRUE, F: E.FALSE, U: E.UNKNOWN}


def gen_boolean_expr(rng: random.Random, atoms: list[E.Path], depth: int = 4):
    """Random boolean-structure expression whose leaves are PathRef atoms."""
    if depth == 0 or rng.random() < 0.3:
        return E.PathRef(rng.choice(atoms))
    kind = rng.randrange(4)
    if kind == 0:
        return E.And(gen_boolean_expr(rng, atoms, depth - 1),
                     gen_boolean_expr(rng, atoms, depth - 1))
    if kind == 1:
        return E.Or(gen_boolean_expr(rng, atoms, depth - 1),
                    gen_boolean_expr(rng, atoms, depth - 1))
    if kind == 2:
        return E.Implies(gen_boolean_expr(rng, atoms, depth - 1),
                         gen_boolean_expr(rng, atoms, depth - 1))
    return E.Not(gen_boolean_expr(rng, atoms, depth - 1))


_IDENT_CHARS = string.ascii_lowercase + "_"


def _gen_ident(rng: random.Random) -> str:
    while True:
        ident = "".join(rng.choice(_IDENT_CHARS) for _ in range(rng.randrange(1, 8)))
        if ident not in ("and", "or", "not"):
            return ident


def _gen_path_text(rng: random.Random) -> str:
    heads = ["token", "user", "request", "self", "response", _gen_ident(rng)]
    head = rng.choice(heads)
    tail = ".".join(_gen_ident(rng) for _ in range(rng.randrange(1, 3)))
    return f"{head}.{tail}"


def _gen_operand(rng: random.Random) -> str:
    kind = rng.randrange(5)
    if kind == 0:
        return _gen_path_text(rng)
    if kind == 1:
        return str(rng.randrange(0, 100))
    if kind == 2:
        safe = string.ascii_lowercase + string.digits + "-_ "
        return "'" + "".join(rng.choice(safe) for _ in range(rng.randrange(0, 8))) + "'"
    if kind == 3:
        return f"{_gen_path_text(rng)}->size()"
    return "clockTime"


def gen_expression_text(rng: random.Random, depth: int = 3) -> str:
    """Random expression in concrete syntax, spanning the full grammar."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(5)
        if kind == 0:
            op = rng.choice(["=", "<>", "<", "<=", ">", ">="])
            return f"{_gen_operand(rng)} {op} {_gen_operand(rng)}"
        if kind == 1:
            return f"{_gen_path_text(rng)}->size()={rng.randrange(0, 3)}"
        if kind == 2:
            return f"{_gen_path_text(rng)}.oclIsInvalid()"
        if kind == 3:
            return rng.choice(["True", "False"])
        return _gen_path_text(rng)
    kind = rng.randrange(5)
    left = gen_expression_text(rng, depth - 1)
    right = gen_expression_text(rng, depth - 1)
    if kind == 0:
        return f"{left} and {right}"
    if kind == 1:
        return f"{left} or {right}"
    if kind == 2:
        return f"{left} ==> {right}"
    if kind == 3:
        return f"not ({left})"
    return f"({left})"


# ---------------------------------------------------------------------------
# Reference diagnosis: the monitor's check loops as they were before each
# contract was lowered once into checks, and the precondition's rule for
# which conjuncts a refusal names


def check_precondition(contract, env: E.Environment) -> list:
    failed = []
    for conjunct in E.conjuncts(contract.pre):
        value = E.evaluate(conjunct, env)
        if value is not E.TRUE:
            failed.append((E.to_text(conjunct), value))
    return failed


def check_precondition_probing(contract, env: E.Environment, probes) -> list:
    """The precondition's failed conjuncts when no probe is sent once one
    has failed, replayed over the full evaluation.  ``probes`` holds the
    probes each conjunct needs, in text order.  The conjuncts are taken
    cheapest first: fewest probes not yet sent, text order among equals.
    At the first one that is not TRUE, every conjunct whose probes have all
    been sent is taken too, and the rest are not.  The taken conjuncts that
    are not TRUE are reported in text order."""
    full = [(E.to_text(c), E.evaluate(c, env)) for c in E.conjuncts(contract.pre)]
    sent, taken, pending = set(), set(), list(range(len(full)))
    while pending:
        cost = {i: len(probes[i] - sent) for i in pending}
        first = min(pending, key=lambda i: (cost[i], i))
        pending.remove(first)
        taken.add(first)
        sent |= probes[first]
        if full[first][1] is not E.TRUE:
            taken |= {i for i in pending if probes[i] <= sent}
            break
    return [full[i] for i in sorted(taken) if full[i][1] is not E.TRUE]


def check_postcondition(contract, env: E.Environment) -> list:
    failed = []
    for conjunct in E.conjuncts(contract.post):
        value = E.evaluate(conjunct, env)
        if value is E.TRUE:
            continue
        if isinstance(conjunct, E.Implies):
            antecedent = E.evaluate(conjunct.left, env, antecedent=True)
            if antecedent is E.TRUE:
                # name the failing consequent conjuncts for diagnosis
                for part in E.conjuncts(conjunct.right):
                    part_value = E.evaluate(part, env)
                    if part_value is not E.TRUE:
                        failed.append((E.to_text(part), part_value))
                continue
        failed.append((E.to_text(conjunct), value))
    return failed


# ---------------------------------------------------------------------------
# Model serialization (round-trips through load_model)


def serialize_model(
    rm: ResourceModel, bm: BehavioralModel, rules: list[SecurityRule]
) -> str:
    lines: list[str] = []
    ordered = [d for d in rm.definitions if d.name == rm.root]
    ordered += [d for d in rm.definitions if d.name != rm.root]
    for d in ordered:
        flag = " collection" if d.is_collection and not d.name.startswith("collection_") else ""
        lines.append(f"resource {d.name}{flag}")
        for attr in d.attributes:
            marker = " id" if d.id_attribute == attr.name else ""
            lines.append(f"  attr {attr.name}: {attr.type}{marker}")
    for a in rm.associations:
        card = f" {a.min_card}..{'*' if a.max_card == UNBOUNDED else a.max_card}"
        lines.append(f"assoc {a.source} -> {a.target} as {a.role_name}{card}")
    for b in rm.bindings:
        lines.append(f"bind {b.path} from {b.source} {'.'.join(b.json_path)}")
    for s in bm.states:
        lines.append(f"state {s.name}: {E.to_text(s.invariant)}")
    for t in bm.transitions:
        parts = [
            f"transition {t.id}: {t.source} -> {t.target} on {t.http_method} {t.uri_template}"
        ]
        if t.guard is not None:
            parts.append(f"guard: {E.to_text(t.guard)}")
        if t.effect is not None:
            parts.append(f"effect: {E.to_text(t.effect)}")
        if t.actor_role:
            parts.append(f"actor: {t.actor_role}")
        lines.append(" ".join(parts))
    for r in rules:
        if r.kind == "unconditional":
            lines.append(
                f"rule {r.id} on {r.http_method} {r.uri_template}: always {E.to_text(r.rule_expr)}"
            )
        else:
            lines.append(
                f"rule {r.id} on {r.http_method} {r.uri_template}: "
                f"if {E.to_text(r.if_expr)} then {E.to_text(r.then_expr)}"
            )
    return "\n".join(lines) + "\n"
