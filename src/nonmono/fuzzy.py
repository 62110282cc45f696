"""Mamdani-style fuzzy pipeline with a possibilistic non-monotonic layer.

Stages: fuzzify crisp inputs, combine premise grades into rule necessities
(t-norm/t-conorm), shrink necessities through contradictions (possibility of
every proposition is fixed at 1, so an attacker Q caps its target at
``1 - Nec(Q)``), apply normalised rule weights, aggregate per trust level
disjunctively, defuzzify the clipped level curves.
"""
from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .kb.model import (
    MAX_FEATURE_WEIGHT,
    Dnf,
    Fmf,
    KbValidationError,
    KnowledgeBase,
)

log = logging.getLogger(__name__)

DEFAULT_RESOLUTION = 1001
MAX_TIE_EPS = 1e-9


@dataclass(frozen=True)
class FuzzyOperatorSet:
    id: str
    t_norm: Callable[[float, float], float]
    t_conorm: Callable[[float, float], float]


OPERATORS = {
    "zadeh": FuzzyOperatorSet("zadeh", min, max),
    "product": FuzzyOperatorSet("product", lambda x, y: x * y, lambda x, y: x + y - x * y),
    "lukasiewicz": FuzzyOperatorSet(
        "lukasiewicz", lambda x, y: max(x + y - 1.0, 0.0), lambda x, y: min(x + y, 1.0)
    ),
}


@dataclass(frozen=True)
class AggregatedFuzzySet:
    """Trust-level truth values and the resulting clipped membership curve."""

    level_truths: dict[str, float]
    xs: tuple[float, ...]
    mu: tuple[float, ...]


def fuzzify(features, kb: KnowledgeBase, variant: str = "triangular") -> dict[tuple[str, str], float]:
    """Membership grade of every (feature, term) pair for a feature vector.

    Inputs are clamped to the feature domain first, so values beyond a
    saturation bound keep full membership in the saturated term.
    """
    grades: dict[tuple[str, str], float] = {}
    for fname, feat in kb.features.items():
        if fname not in features:
            raise KeyError(f"feature {fname!r} missing from feature vector")
        x = min(max(features[fname], feat.domain_min), feat.domain_max)
        for term in feat.terms:
            grades[(fname, term.label)] = term.fmf(variant)(x)
    return grades


def dnf_necessity(dnf: Dnf, grades, ops: FuzzyOperatorSet) -> float:
    """AND via t-norm, OR via t-conorm over a DNF antecedent."""
    acc = None
    for conj in dnf:
        val = None
        for premise in conj:
            g = grades[premise]
            val = g if val is None else ops.t_norm(val, g)
        acc = val if acc is None else ops.t_conorm(acc, val)
    return acc


def necessity_update(nec: float, supports, attackers) -> float:
    """Possibilistic update of one proposition's necessity.

    The union over supporting necessities is a max (including the current
    value); every attacker Q intersects in a cap of ``1 - Nec(Q)``.
    """
    value = nec
    for s in supports:
        value = max(value, s)
    for a in attackers:
        value = min(value, 1.0 - a)
    return value


def initial_necessities(kb: KnowledgeBase, grades, ops: FuzzyOperatorSet) -> dict[str, float]:
    return {label: dnf_necessity(rule.antecedent, grades, ops) for label, rule in kb.rules.items()}


def resolve_possibility(
    kb: KnowledgeBase,
    necessities: dict[str, float],
    grades,
    ops: FuzzyOperatorSet,
) -> dict[str, float]:
    """Shrink rule necessities through the contradiction precedence graph.

    Layers run root to leaf.  A layer first takes the necessity of each of
    its contradictions from the state at layer entry (a rule antecedent reads
    the rule's current necessity, premises their static grade, each capped by
    the contradictions that attack it), then applies all their caps, so
    cyclic or incomparable contradictions are solved simultaneously.
    """
    rule_nec = dict(necessities)
    contra_cap = dict.fromkeys(kb.contradictions, 1.0)
    for layer in kb.layers:
        layer_nec = [
            min(rule_nec[e.rule] if e.premises is None
                else dnf_necessity(e.premises, grades, ops), contra_cap[e.label])
            for e in layer
        ]
        for e, q in zip(layer, layer_nec):
            for target in e.rule_targets:
                rule_nec[target] = necessity_update(rule_nec[target], (), (q,))
            for target in e.contradiction_targets:
                contra_cap[target] = min(contra_cap[target], 1.0 - q)
    return rule_nec


def apply_rule_weights(necessities: dict[str, float], kb: KnowledgeBase) -> dict[str, float]:
    """Scale each necessity by its rule weight normalised over the maximum weight."""
    return {
        label: (kb.rule_weight(label) / MAX_FEATURE_WEIGHT) * nec
        for label, nec in necessities.items()
    }


_GRID = tuple(i / (DEFAULT_RESOLUTION - 1) for i in range(DEFAULT_RESOLUTION))


@lru_cache(maxsize=128)
def _level_curve(fmf: Fmf) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """Membership of every grid point in one level function, with the part
    before its first maximum and the rest reversed, both ascending.  Keyed
    by the function's value, so equal functions of different KBs share a
    curve.  Clipping by bisection needs a unimodal curve, which every fmf
    shape gives; a curve that is not raises ``KbValidationError``."""
    curve = tuple(map(fmf, _GRID))
    peak = curve.index(max(curve))
    left, rrev = curve[:peak], curve[peak:][::-1]
    if any(b < a for a, b in zip(left, curve[1:peak + 1])) or any(
            b < a for a, b in zip(rrev, rrev[1:])):
        raise KbValidationError(f"level function {fmf!r} is not unimodal on the grid")
    return curve, left, rrev


def _clip(fmf: Fmf, truth: float) -> tuple[float, ...]:
    """``min(truth, c)`` at every point ``c`` of the level curve.  ``min``
    keeps ``truth`` exactly where ``c >= truth``, which on a unimodal curve
    is the run ``[a, b)`` that bisecting its two ascending halves finds."""
    curve, left, rrev = _level_curve(fmf)
    a = bisect_left(left, truth)
    b = len(curve) - bisect_left(rrev, truth)
    return curve[:a] + (truth,) * (b - a) + curve[b:]


def aggregate_levels(
    necessities: dict[str, float],
    kb: KnowledgeBase,
    variant: str = "triangular",
) -> AggregatedFuzzySet:
    """Disjunctive aggregation: level truth = max over rules inferring it;
    the output curve is the pointwise max of level functions clipped there."""
    truths = {level: 0.0 for level in kb.trust_levels}
    for label, nec in necessities.items():
        level = kb.rules[label].consequent_level
        truths[level] = max(truths[level], nec)
    clipped = [_clip(tl.fmf(variant), truths[level]) for level, tl in kb.trust_levels.items()]
    mu = clipped[0] if len(clipped) == 1 else tuple(map(max, *clipped))
    return AggregatedFuzzySet(level_truths=truths, xs=_GRID, mu=mu)


def defuzzify(agg: AggregatedFuzzySet, method: str) -> float | None:
    """Centroid or mean-of-max of the aggregated curve; a flat zero curve
    defuzzifies to no value."""
    peak = max(agg.mu, default=0.0)
    if peak <= 0.0:
        return None
    if method == "centroid":
        area = sum(agg.mu)
        return sum(x * m for x, m in zip(agg.xs, agg.mu)) / area
    if method == "mean_of_max":
        top = [x for x, m in zip(agg.xs, agg.mu) if m >= peak - MAX_TIE_EPS]
        return sum(top) / len(top)
    raise ValueError(f"unknown defuzzification method {method!r}")


def resolved_necessities(kb: KnowledgeBase, grades, operator: str) -> dict[str, float]:
    """Rule necessities under ``operator`` after the possibilistic layer."""
    ops = OPERATORS[operator]
    return resolve_possibility(kb, initial_necessities(kb, grades, ops), grades, ops)


def weighted_levels(kb: KnowledgeBase, necessities: dict[str, float], use_weights: bool,
                    variant: str) -> AggregatedFuzzySet:
    """Aggregated level curve, from weighted necessities when ``use_weights``."""
    if use_weights:
        necessities = apply_rule_weights(necessities, kb)
    return aggregate_levels(necessities, kb, variant)

