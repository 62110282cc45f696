"""Rule-based expert system with non-monotonic retraction.

Rules activate on crisp range membership, contradictions retract activated
rules (processed in precedence layers, each layer deciding all its firings
before it applies any, so mutually contradicting rules knock each other
out), and the surviving rules are valued and aggregated into one trust
scalar.  An editor's crisp valuation of a knowledge base (the activated
rules and the contradiction premises that hold) is computed once; the
retraction here and the argumentation elicitation both read it.  The
crisp side of a knowledge base is compiled once, on first use: its rules
into a ``RuleTable`` that knowledge bases with equal rules share, so one
activation per editor serves them all, its contradiction premises into
crisp tests, and its contradiction layers into indexes by antecedent and
target, so that retraction reads only what the surviving rules and holding
premises fire against the surviving rules.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple
from weakref import WeakValueDictionary

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


# A DNF compiled for crisp tests: per disjunct, its conjuncts as (feature,
# lower, upper, saturated) and the disjunct's premise range, the min of its
# terms' lower bounds and the min of their upper bounds.
CrispDnf = tuple[tuple[tuple[tuple[str, float, float, bool], ...], float, float], ...]


def crisp_dnf(kb: KnowledgeBase, dnf: Dnf) -> CrispDnf:
    """``dnf`` with each premise replaced by its term's range."""
    compiled = []
    for conj in dnf:
        terms = [kb.terms[premise] for premise in conj]
        compiled.append((
            tuple((fname, t.lower, t.upper, t.saturated) for (fname, _l), t in zip(conj, terms)),
            min(t.lower for t in terms), min(t.upper for t in terms)))
    return tuple(compiled)


def activation(dnf: CrispDnf, features) -> Activation | None:
    """Crisp DNF activation with the activation value and its range.

    A disjunct holds when every premise value lies in its term's range
    (saturated terms are unbounded above; the value is then clamped to the
    saturation bound).  Over the satisfied disjuncts, conjunction maps to min
    and disjunction to max, applied alike to values, lower and upper bounds,
    which keeps ``r_min <= v <= r_max``.
    """
    satisfied = []
    for conj, r_min, r_max in dnf:
        v = None
        for fname, lower, upper, saturated in conj:
            x = features[fname]
            if not (lower <= x if saturated else lower <= x <= upper):
                break
            if upper < x:
                x = upper
            if v is None or x < v:
                v = x
        else:
            satisfied.append((v, r_min, r_max))
    if not satisfied:
        return None
    return Activation(*map(max, zip(*satisfied)))


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


@dataclass(frozen=True, eq=False)
class RuleTable:
    """A knowledge base's rules compiled for crisp activation, in KB order:
    each rule's label, crisp antecedent, consequent range and level, and
    weight.  ``compile_rules`` interns it by that content, so knowledge
    bases with equal rules, terms, trust levels and feature weights hold
    one table; it compares and hashes by identity, so the evaluation plan
    keys the activation those knowledge bases share on it."""

    rules: tuple[tuple[str, CrispDnf, float, float, str, int], ...]


# Interned rule tables by content; an entry lives as long as some knowledge
# base holds its table.
_RULE_TABLES: WeakValueDictionary[tuple, RuleTable] = WeakValueDictionary()


def compile_rules(kb: KnowledgeBase) -> RuleTable:
    """``kb``'s interned rule table, which ``KnowledgeBase.rule_table``
    builds on first use."""
    content = tuple(
        (label, crisp_dnf(kb, rule.antecedent), level.lower, level.upper,
         rule.consequent_level, kb.rule_weight(label))
        for label, rule in kb.rules.items()
        for level in (kb.trust_levels[rule.consequent_level],))
    return _RULE_TABLES.setdefault(content, RuleTable(content))


def compile_premises(kb: KnowledgeBase) -> tuple[tuple[Dnf, CrispDnf], ...]:
    """The distinct premise antecedents of ``kb``'s contradictions, each
    with its crisp test, which ``KnowledgeBase.premise_table`` builds on
    first use."""
    return tuple((p, crisp_dnf(kb, p)) for p in dict.fromkeys(
        c.premises for c in kb.contradictions.values() if c.premises is not None))


def activate_rules(kb: KnowledgeBase, features) -> dict[str, ActivatedRule]:
    """Evaluate every rule of ``kb.rule_table``; value the activated ones."""
    out: dict[str, ActivatedRule] = {}
    for label, dnf, l_c, u_c, level, weight in kb.rule_table.rules:
        act = activation(dnf, features)
        if act is not None:
            value = rule_value(act.v, act.r_min, act.r_max, l_c, u_c)
            out[label] = ActivatedRule(label, act, value, level, weight)
    return out


class Valuation(NamedTuple):
    """An editor's crisp valuation of a knowledge base: the activated rules
    in knowledge-base order, and the distinct contradiction premise
    antecedents that hold."""

    activated: dict[str, ActivatedRule]
    holding: frozenset[Dnf]


def valuation(kb: KnowledgeBase, features, activated: dict[str, ActivatedRule]) -> Valuation:
    """The valuation of ``kb`` whose activated rules are ``activated``, as
    ``activate_rules`` returns them: each distinct contradiction premise
    antecedent is tested once."""
    return Valuation(activated, frozenset(
        p for p, test in kb.premise_table if activation(test, features) is not None))


# A layer's contradictions indexed for retraction by antecedent, a rule
# label or premises: the rule retractions by (antecedent, rule target), each
# as (position of the contradiction in the layer, position of the target
# among its rule targets, label, target); and the contradictions that
# retract contradictions by antecedent, each as (label, contradiction
# targets).
LayerIndex = tuple[dict[tuple[str | Dnf, str], tuple[tuple[int, int, str, str], ...]],
                   dict[str | Dnf, tuple[tuple[str, tuple[str, ...]], ...]]]


def index_layers(kb: KnowledgeBase) -> tuple[LayerIndex, ...]:
    """Each of ``kb.layers`` indexed for retraction, which
    ``KnowledgeBase.layer_index`` builds on first use."""
    indexes = []
    for layer in kb.layers:
        hits: dict = {}
        disarms: dict = {}
        for i, e in enumerate(layer):
            antecedent = e.rule if e.premises is None else e.premises
            for k, target in enumerate(e.rule_targets):
                hits.setdefault((antecedent, target), []).append((i, k, e.label, target))
            if e.contradiction_targets:
                disarms.setdefault(antecedent, []).append((e.label, e.contradiction_targets))
        indexes.append(({key: tuple(v) for key, v in hits.items()},
                        {key: tuple(v) for key, v in disarms.items()}))
    return tuple(indexes)


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
    contradictions whose antecedent it is.  A layer looks up in
    ``kb.layer_index`` only what its surviving rules and holding premises
    fire against its surviving rules, and applies it in layer order.
    """
    surviving = dict(valuation.activated)
    retracted: set[str] = set()
    discarded: list[tuple[str, str]] = []
    for hits, disarms in kb.layer_index:
        antecedents = (*surviving, *valuation.holding)
        fired = sorted(hit for pair in product(antecedents, surviving)
                       for hit in hits.get(pair, ()) if hit[2] not in retracted)
        disarmed = [targets for antecedent in antecedents
                    for label, targets in disarms.get(antecedent, ()) if label not in retracted]
        for _i, _k, label, target in fired:
            if target in surviving:
                del surviving[target]
                discarded.append((target, label))
        for targets in disarmed:
            retracted.update(targets)
    return tuple(surviving.values()), tuple(discarded)


def means(groups: list[list[tuple[float, float]]], weighted: bool) -> list[float]:
    """The mean of the values of each non-empty group of ``(value,
    weight)`` pairs, weighted when ``weighted``.  A group of zero total
    weight falls back to its unweighted mean, with one WARNING per call
    however many groups do."""
    out = []
    fell_back = False
    for pairs in groups:
        if weighted:
            total = sum(w for _v, w in pairs)
            if total:
                out.append(sum(v * w for v, w in pairs) / total)
                continue
            fell_back = True
        out.append(sum(v for v, _w in pairs) / len(pairs))
    if fell_back:
        log.warning("total weight is 0; falling back to unweighted mean")
    return out


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
        return means([[(r.value, r.weight) for r in rules]], weighted)[0]
    groups: dict[str, list[ActivatedRule]] = {}
    for r in rules:
        groups.setdefault(r.consequent_level, []).append(r)
    top = max(len(g) for g in groups.values())
    tied = means([[(r.value, r.weight) for r in g] for g in groups.values() if len(g) == top],
                 weighted)
    return sum(tied) / len(tied)
