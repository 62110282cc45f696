"""Rule-based expert system with non-monotonic retraction.

Rules activate on crisp range membership, contradictions retract activated
rules (processed in precedence layers, each layer deciding all its firings
before it applies any, so mutually contradicting rules knock each other
out), and the surviving rules are valued and aggregated into one trust
scalar.  An editor's crisp valuation of a knowledge base (the activated
rules and the contradiction premises that hold) is computed once; the
retraction here and the argumentation elicitation both read it.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

from .kb.model import Dnf, KnowledgeBase

log = logging.getLogger(__name__)

HEURISTICS = ("h1", "h2", "h3", "h4")


class MissingFeatureError(KeyError):
    """A knowledge base reads a feature that the feature vector lacks;
    raised by the evaluation plan before any editor is evaluated."""


@dataclass(frozen=True)
class Activation:
    """Def-style quantities of an activated rule antecedent."""

    v: float
    r_min: float
    r_max: float


@dataclass(frozen=True)
class ActivatedRule:
    rule_label: str
    activation: Activation
    value: float
    consequent_level: str
    weight: int


def evaluate_antecedent(antecedent: Dnf, features, kb: KnowledgeBase) -> Activation | None:
    """Crisp DNF activation with the activation value and its range.

    A disjunct holds when every premise value lies in its term's range
    (saturated terms are unbounded above; the value is then clamped to the
    saturation bound).  Over the satisfied disjuncts, conjunction maps to min
    and disjunction to max, applied alike to values, lower and upper bounds,
    which keeps ``r_min <= v <= r_max``.
    """
    satisfied: list[tuple[float, float, float]] = []
    for conj in antecedent:
        v = r_min = r_max = None
        for fname, tlabel in conj:
            term = kb.terms[(fname, tlabel)]
            x = features[fname]
            if not term.contains(x):
                break
            x = min(x, term.upper)
            v = x if v is None else min(v, x)
            r_min = term.lower if r_min is None else min(r_min, term.lower)
            r_max = term.upper if r_max is None else min(r_max, term.upper)
        else:
            satisfied.append((v, r_min, r_max))
    if not satisfied:
        return None
    return Activation(
        v=max(s[0] for s in satisfied),
        r_min=max(s[1] for s in satisfied),
        r_max=max(s[2] for s in satisfied),
    )


def rule_value(v: float, r_min: float, r_max: float, l_c: float, u_c: float) -> float:
    """Linear map of the activation value into the consequent range.

    ``l_c < u_c`` is a direct linear relationship, ``l_c > u_c`` a contrary
    one, ``l_c == u_c`` a constant.  A degenerate premise range (constant
    premises) is treated as activation at the range top.
    """
    if r_max == r_min:
        return u_c
    f = (u_c - l_c) / (r_max - r_min) * (v - r_max) + u_c
    lo, hi = min(l_c, u_c), max(l_c, u_c)
    return min(max(f, lo), hi)


def activate_rules(kb: KnowledgeBase, features) -> dict[str, ActivatedRule]:
    """Evaluate every rule; value the activated ones."""
    out: dict[str, ActivatedRule] = {}
    for rule in kb.rules.values():
        act = evaluate_antecedent(rule.antecedent, features, kb)
        if act is None:
            continue
        l_c, u_c = kb.trust_levels[rule.consequent_level].lower, kb.trust_levels[rule.consequent_level].upper
        out[rule.label] = ActivatedRule(
            rule_label=rule.label,
            activation=act,
            value=rule_value(act.v, act.r_min, act.r_max, l_c, u_c),
            consequent_level=rule.consequent_level,
            weight=kb.rule_weight(rule.label),
        )
    return out


class Valuation(NamedTuple):
    """An editor's crisp valuation of a knowledge base: the activated rules
    in knowledge-base order, and the distinct contradiction premise
    antecedents that hold."""

    activated: dict[str, ActivatedRule]
    holding: frozenset[Dnf]


def valuation(kb: KnowledgeBase, features) -> Valuation:
    """Every rule antecedent and every distinct contradiction premise
    antecedent, each evaluated once."""
    activated = activate_rules(kb, features)
    return Valuation(activated, frozenset(
        p for p in kb.premise_antecedents if evaluate_antecedent(p, features, kb) is not None))


def resolve_contradictions(
    kb: KnowledgeBase, valuation: Valuation,
) -> tuple[tuple[ActivatedRule, ...], tuple[tuple[str, str], ...]]:
    """Retract activated rules hit by fired contradictions: the surviving
    rules in knowledge-base order and the (rule, contradiction) retractions.

    Contradictions are processed layer by layer along the precedence graph.
    A layer decides which of its contradictions fire, from the state at layer
    entry, before it applies any of them, so topologically incomparable
    contradictions (including cyclic groups) act simultaneously and cannot
    shadow one another.  Premises fire a contradiction when they hold in the
    valuation.  A contradiction retracted in an earlier layer no longer
    fires; a rule retracted in an earlier layer no longer discharges the
    contradictions whose antecedent it is.
    """
    surviving = dict(valuation.activated)
    retracted: set[str] = set()
    discarded: list[tuple[str, str]] = []
    for layer in kb.layers:
        fired = [
            e for e in layer
            if e.label not in retracted
            and (e.rule in surviving if e.premises is None else e.premises in valuation.holding)
        ]
        for e in fired:
            for target in e.rule_targets:
                if target in surviving:
                    del surviving[target]
                    discarded.append((target, e.label))
            retracted.update(e.contradiction_targets)
    return tuple(surviving.values()), tuple(discarded)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _weighted_mean(pairs) -> float:
    pairs = list(pairs)
    total = sum(w for _v, w in pairs)
    if total == 0:
        log.warning("total rule weight is 0; falling back to unweighted mean")
        return _mean(v for v, _w in pairs)
    return sum(v * w for v, w in pairs) / total


def aggregate(surviving, heuristic: str) -> float | None:
    """Aggregate surviving rule values: h1/h2 largest same-consequent group
    (ties averaged across groups), h3/h4 all survivors; h2/h4 weighted."""
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}")
    rules = list(surviving)
    if not rules:
        return None
    weighted = heuristic in ("h2", "h4")
    if heuristic in ("h3", "h4"):
        if weighted:
            return _weighted_mean((r.value, r.weight) for r in rules)
        return _mean(r.value for r in rules)
    groups: dict[str, list[ActivatedRule]] = {}
    for r in rules:
        groups.setdefault(r.consequent_level, []).append(r)
    top = max(len(g) for g in groups.values())
    largest = [g for g in groups.values() if len(g) == top]
    if weighted:
        means = [_weighted_mean((r.value, r.weight) for r in g) for g in largest]
    else:
        means = [_mean(r.value for r in g) for g in largest]
    return _mean(means)

