"""Derive per-method contracts from the behavioral model and fold the
security rules into them.

The functional precondition of a method is the disjunction, over every
transition it triggers, of the source-state invariant conjoined with the
transition guard.  The postcondition is a conjunction of implications: if a
transition's firing condition held before execution, the target-state
invariant (and effect) must hold afterwards.  Actor annotations lower to a
``user.role='<role>'`` predicate on the precondition and on the transition's
consequent.  Conditional security rules add their ``if`` disjunction to the
precondition and an ``if ==> then`` conjunct to the postcondition;
unconditional rules are conjoined to both sides (the double check).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import expr as E
from .model import BehavioralModel, SecurityRule, Transition


class UnmodeledMethodError(LookupError):
    """No transition is triggered by the requested (method, uri) pair."""


class Check(NamedTuple):
    """A top-level conjunct lowered for diagnosis.  A postcondition
    implication also keeps its antecedent and its consequent's conjuncts."""

    text: str
    expr: E.Expression
    antecedent: Optional[E.Expression] = None
    consequent: tuple["Check", ...] = ()


def _lower(e: E.Expression, split_implications: bool) -> tuple[Check, ...]:
    return tuple(
        Check(E.to_text(c), c, c.left, _lower(c.right, False))
        if split_implications and isinstance(c, E.Implies)
        else Check(E.to_text(c), c)
        for c in E.conjuncts(e)
    )


_SNAPSHOT_NAMESPACES = (E.Namespace.RESOURCE, E.Namespace.REQUEST, E.Namespace.SELF)


class Contract:
    """A method's contract.  What follows from ``pre`` and ``post`` alone is
    computed once, when the contract is built: the paths to capture before
    execution, in text order, and each side lowered for diagnosis."""

    __slots__ = ("method", "uri_template", "pre", "post",
                 "snapshot_paths", "pre_checks", "post_checks")

    def __init__(self, method: str, uri_template: str, pre: E.Expression, post: E.Expression):
        self.method = method
        self.uri_template = uri_template
        self.pre = pre
        self.post = post
        paths = E.free_paths(pre) | E.antecedent_paths(post)
        kept = [p for p in paths if p.namespace in _SNAPSHOT_NAMESPACES]
        self.snapshot_paths = tuple(sorted(kept, key=str))
        self.pre_checks = _lower(pre, split_implications=False)
        self.post_checks = _lower(post, split_implications=True)

    @property
    def id(self) -> str:
        return f"{self.method} {self.uri_template}"


def _actor_predicate(role: str) -> E.Expression:
    return E.Compare("=", E.PathRef(E.make_path(["user", "role"])), E.Literal(role))


def derive_functional_contract(
    method: str, uri_template: str, bm: BehavioralModel
) -> Contract:
    matching = [
        t
        for t in bm.transitions
        if t.http_method == method and t.uri_template == uri_template
    ]
    if not matching:
        raise UnmodeledMethodError(f"unmodeled method: {method} {uri_template}")

    pre_terms: list[E.Expression] = []
    post_terms: list[E.Expression] = []
    for t in matching:
        firing = _firing_condition(t, bm)
        pre_term = firing
        consequent = _result_condition(t, bm)
        if t.actor_role:
            actor = _actor_predicate(t.actor_role)
            pre_term = E.And(pre_term, actor)
            consequent = E.And(consequent, actor)
        pre_terms.append(E.elide_true(pre_term))
        post_terms.append(E.elide_true(E.Implies(firing, consequent)))

    return Contract(method, uri_template, E.disjoin(pre_terms), E.conjoin(post_terms))


def _firing_condition(t: Transition, bm: BehavioralModel) -> E.Expression:
    source = bm.state(t.source)
    invariant = source.invariant if source else E.LIT_TRUE
    guard = t.guard if t.guard is not None else E.LIT_TRUE
    return E.elide_true(E.And(invariant, guard))


def _result_condition(t: Transition, bm: BehavioralModel) -> E.Expression:
    target = bm.state(t.target)
    invariant = target.invariant if target else E.LIT_TRUE
    effect = t.effect if t.effect is not None else E.LIT_TRUE
    return E.elide_true(E.And(invariant, effect))


def merge_security_rules(c: Contract, rules: list[SecurityRule]) -> Contract:
    applicable = [
        r
        for r in rules
        if r.http_method == c.method and r.uri_template == c.uri_template
    ]
    if not applicable:
        return c

    pre = c.pre
    post = c.post
    conditional = [r for r in applicable if r.kind == "conditional"]
    if conditional:
        pre = E.And(pre, E.disjoin([r.if_expr for r in conditional]))
        for r in conditional:
            post = E.And(post, E.Implies(r.if_expr, r.then_expr))
    for r in applicable:
        if r.kind == "unconditional":
            pre = E.And(pre, r.rule_expr)
            post = E.And(post, r.rule_expr)

    return Contract(c.method, c.uri_template, pre, post)


def derive_contracts(bm: BehavioralModel, rules: list[SecurityRule]) -> list[Contract]:
    """All contracts for the model, one per distinct (method, uri) trigger,
    in deterministic order."""
    seen: list[tuple[str, str]] = []
    for t in bm.transitions:
        key = (t.http_method, t.uri_template)
        if key not in seen:
            seen.append(key)
    return [
        merge_security_rules(derive_functional_contract(m, uri, bm), rules)
        for m, uri in seen
    ]


def render_contract(c: Contract) -> str:
    lines = [
        f"contract {c.method} {c.uri_template}",
        f"  pre:  {E.to_text(c.pre)}",
        f"  post: {E.to_text(c.post)}",
    ]
    return "\n".join(lines) + "\n"


def render_contracts(contracts: list[Contract]) -> str:
    return "\n".join(render_contract(c) for c in contracts)
