"""Mamdani-style fuzzy pipeline with a possibilistic non-monotonic layer.

Stages: fuzzify crisp inputs, combine premise grades into rule necessities
(t-norm/t-conorm), shrink necessities through contradictions (possibility of
every proposition is fixed at 1, so an attacker Q caps its target at
``1 - Nec(Q)``), apply normalised rule weights and take each trust level's
truth as the max over the rules inferring it, aggregate the level functions
clipped at those truths disjunctively, defuzzify.  The contradictions are
read from per-KB cap tables (``KnowledgeBase.cap_layers``).  The level
truths are a hashable ``LevelTruths``: an interned ``LevelSet`` (the level
names and their functions' cached curves, compared by identity) and the
truths in level order.  ``aggregate_levels`` and ``defuzzify`` read nothing
else, so equal level truths, from any KB, operator or weights flag, have
one output.  The output curve is kept as pieces of cached level curves in
grid order: a stretch one clipped level dominates is a reference to that
level, and only short stretches where levels cross hold values.
Defuzzification reads the pieces and the levels' runs and never the
1001-point curve ``mu``, which is assembled from the pieces only when read.
Each result sums the same floats in the same order, in one ``sum`` call, as
a per-contradiction, per-grid-point walk does, so it is equal to that
walk's on every Python version, including the compensated float ``sum`` of
3.12 and later.
"""
from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, repeat
from operator import mul
from typing import Callable, NamedTuple
from weakref import WeakValueDictionary

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
    """Trust-level truth values, the clipped levels of nonzero truth, and
    the pieces of their pointwise max over ``xs`` in grid order.  ``mu``,
    that max at every grid point, is assembled from the pieces when first
    read; ``defuzzify`` does not read it."""

    level_truths: dict[str, float]
    xs: tuple[float, ...]
    levels: list[ClippedLevel]
    pieces: list[Piece]

    @cached_property
    def mu(self) -> tuple[float, ...]:
        if not self.pieces:
            return (0.0,) * len(self.xs)
        return tuple(chain.from_iterable(
            values if level is None else _slice(level, p, q)
            for p, q, level, values in self.pieces))


def fuzzify(features, kb: KnowledgeBase, variant: str = "triangular") -> dict[tuple[str, str], float]:
    """Membership grade of every (feature, term) pair for a feature vector.

    Inputs are clamped to the feature domain first, so values beyond a
    saturation bound keep full membership in the saturated term.
    """
    grades: dict[tuple[str, str], float] = {}
    for fname, feat in kb.features.items():
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


def initial_necessities(kb: KnowledgeBase, grades, ops: FuzzyOperatorSet) -> dict[str, float]:
    return {label: dnf_necessity(rule.antecedent, grades, ops) for label, rule in kb.rules.items()}


# One target's attackers in a layer: the target's label and the slots of
# the layer's attacker necessities that reach it.
Cap = tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class CapLayer:
    """One contradiction layer compiled for the possibilistic update.

    ``antecedents`` are the layer's distinct antecedents, each a rule label
    or DNF premises; the first slots of the layer's attacker necessities
    are theirs.  ``held`` pairs an antecedent's index with the label of an
    attacker that some contradiction targets, whose necessity is its
    antecedent's capped by its own ``contra_cap``; the held attackers take
    the slots after the antecedents.  ``rule_caps`` and
    ``contradiction_caps`` list every target of the layer, in the order the
    layer first attacks it, with the slots of the attackers that reach it.
    """

    antecedents: tuple[str | Dnf, ...]
    held: tuple[tuple[int, str], ...]
    rule_caps: tuple[Cap, ...]
    contradiction_caps: tuple[Cap, ...]


def compile_caps(kb: KnowledgeBase) -> tuple[CapLayer, ...]:
    """``kb.layers`` as cap tables, one per layer, for ``resolve_possibility``."""
    targeted = {t for c in kb.contradictions.values() for t in c.contradiction_targets}
    compiled = []
    for layer in kb.layers:
        antecedents: dict[str | Dnf, int] = {}
        sources = [antecedents.setdefault(e.rule if e.premises is None else e.premises,
                                          len(antecedents)) for e in layer]
        held: list[tuple[int, str]] = []
        slots = []
        for e, i in zip(layer, sources):
            if e.label in targeted:
                held.append((i, e.label))
                slots.append(len(antecedents) + len(held) - 1)
            else:
                slots.append(i)
        caps: tuple[dict, dict] = ({}, {})
        for e, slot in zip(layer, slots):
            for by_target, targets in zip(caps, (e.rule_targets, e.contradiction_targets)):
                for t in targets:
                    by_target.setdefault(t, {})[slot] = None
        rule_caps, contradiction_caps = (
            tuple((t, tuple(attackers)) for t, attackers in by_target.items())
            for by_target in caps)
        compiled.append(CapLayer(tuple(antecedents), tuple(held), rule_caps, contradiction_caps))
    return tuple(compiled)


def resolve_possibility(
    kb: KnowledgeBase,
    necessities: dict[str, float],
    grades,
    ops: FuzzyOperatorSet,
) -> dict[str, float]:
    """Shrink rule necessities through the contradiction precedence graph.

    Layers run root to leaf, over the cap tables ``kb.cap_layers``.  A layer
    first takes the necessity of each distinct antecedent from the state at
    layer entry (a rule label reads the rule's current necessity, premises
    their static grade), each attacker's capped at 1, or, when the attacker
    is itself a target, at the cap the contradictions attacking it left.
    It then applies one cap ``1 - max q`` per target, so cyclic or
    incomparable contradictions are solved simultaneously.  That single cap
    equals one cap ``1 - q`` per attacker, because ``min`` is exact and
    ``1.0 - q`` does not increase with ``q``.
    """
    rule_nec = dict(necessities)
    contra_cap: dict[str, float] = {}
    for layer in kb.cap_layers:
        vals = [rule_nec[a] if a.__class__ is str else dnf_necessity(a, grades, ops)
                for a in layer.antecedents]
        qs = [min(v, 1.0) for v in vals]
        qs += [min(vals[i], contra_cap.get(label, 1.0)) for i, label in layer.held]
        for target, attackers in layer.rule_caps:
            rule_nec[target] = min(rule_nec[target], 1.0 - max([qs[i] for i in attackers]))
        for target, attackers in layer.contradiction_caps:
            contra_cap[target] = min(contra_cap.get(target, 1.0),
                                     1.0 - max([qs[i] for i in attackers]))
    return rule_nec


def apply_rule_weights(necessities: dict[str, float], kb: KnowledgeBase) -> dict[str, float]:
    """Scale each necessity by its rule weight normalised over the maximum weight."""
    return {
        label: (kb.rule_weight(label) / MAX_FEATURE_WEIGHT) * nec
        for label, nec in necessities.items()
    }


_GRID = tuple(i / (DEFAULT_RESOLUTION - 1) for i in range(DEFAULT_RESOLUTION))

# Grid segments this short, where no level dominates, are maximised point by
# point instead of being halved further.
_LEAF = 16


# A level function on the grid: its curve, the curve's two ascending halves
# and its products with the grid points (see ``_level_curve``).
LevelCurve = tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...], tuple[float, ...]]


@lru_cache(maxsize=128)
def _level_curve(fmf: Fmf) -> LevelCurve:
    """Membership of every grid point in one level function, with the part
    before its first maximum and the rest reversed, both ascending, and
    every grid point times its membership.  Keyed by the function's value,
    so equal functions of different KBs share a curve.  Clipping by
    bisection and bounding by endpoints need a unimodal curve, which every
    fmf shape gives; a curve that is not raises ``KbValidationError``."""
    curve = tuple(map(fmf, _GRID))
    peak = curve.index(max(curve))
    left, rrev = curve[:peak], curve[peak:][::-1]
    if any(b < a for a, b in zip(left, curve[1:peak + 1])) or any(
            b < a for a, b in zip(rrev, rrev[1:])):
        raise KbValidationError(f"level function {fmf!r} is not unimodal on the grid")
    return curve, left, rrev, tuple(map(mul, _GRID, curve))


@dataclass(frozen=True, eq=False)
class LevelSet:
    """A knowledge base's trust levels under one fmf variant: their names
    in KB order and their functions' cached curves.  ``level_set`` interns
    it by the names and functions, so equal level sets of different KBs are
    one object; it compares and hashes by identity, so a lookup never
    hashes the functions."""

    names: tuple[str, ...]
    curves: tuple[LevelCurve, ...]


# Interned level sets by (name, function) pairs; an entry lives as long as
# some knowledge base holds its level set.
_LEVEL_SETS: WeakValueDictionary[tuple[tuple[str, Fmf], ...], LevelSet] = WeakValueDictionary()


def level_set(kb: KnowledgeBase, variant: str | None) -> LevelSet:
    """``kb``'s trust levels under ``variant``, built on the KB's first use
    of the variant and kept in ``kb.level_sets``, so that helper processes
    forked afterwards inherit it with its curves."""
    found = kb.level_sets.get(variant)
    if found is None:
        content = tuple((label, tl.fmf(variant)) for label, tl in kb.trust_levels.items())
        fresh = LevelSet(tuple(label for label, _fmf in content),
                         tuple(_level_curve(fmf) for _label, fmf in content))
        found = kb.level_sets[variant] = _LEVEL_SETS.setdefault(content, fresh)
    return found


class LevelTruths(NamedTuple):
    """Each trust level's truth, in ``levels.names`` order: the input of
    ``aggregate_levels``, and so the key on which the models of a matrix
    share it.  Two are equal exactly when their level sets are one object
    and their truths are equal floats.  A truth starts from 0.0 and takes
    only a value that compares above it, which neither -0.0 nor a NaN does,
    so a truth is never either: equal truths are the same bits, and an
    equal key has the same aggregate."""

    levels: LevelSet
    truths: tuple[float, ...]


def level_truths(kb: KnowledgeBase, necessities: dict[str, float], use_weights: bool,
                 variant: str | None) -> LevelTruths:
    """Disjunctive level truths: each level's truth is the max over the
    rules inferring it of their necessities, weighted when ``use_weights``."""
    if use_weights:
        necessities = apply_rule_weights(necessities, kb)
    truths = dict.fromkeys(kb.trust_levels, 0.0)
    rules = kb.rules
    for label, nec in necessities.items():
        level = rules[label].consequent_level
        if nec > truths[level]:  # max(truths[level], nec), without the call
            truths[level] = nec
    return LevelTruths(level_set(kb, variant), tuple(truths.values()))


# A level clipped at its truth: (curve, index of its first maximum, truth,
# a, b, products, left, rrev), where ``[a, b)`` is the run of grid points
# at which the curve reaches the truth, and the last three are the
# ``_level_curve`` tuples after the curve.
ClippedLevel = tuple[tuple[float, ...], int, float, int, int,
                     tuple[float, ...], tuple[float, ...], tuple[float, ...]]

# A piece of the output curve on grid points ``[p, q)``: (p, q, level,
# None) where one clipped level dominates, (p, q, None, values) where the
# levels cross and the values are their per-point max.  The values are a
# list, not a tuple: CPython keeps up to 2000 freed tuples of each length
# below 20 for reuse, and leaves of 16 points would fill those and raise
# peak memory.
Piece = tuple[int, int, ClippedLevel | None, list[float] | None]


def _clipped_level(level_curve: LevelCurve, truth: float) -> ClippedLevel:
    """``min(truth, c)`` keeps ``truth`` exactly where ``c >= truth``, which
    on a unimodal curve is the run that bisecting its two ascending halves
    finds; everywhere else it keeps the curve.  A truth at or above the
    peak keeps the whole curve, so its run is left empty and the centroid
    reads the cached products there too."""
    curve, left, rrev, xc = level_curve
    peak = len(left)
    if truth >= curve[peak]:
        return curve, peak, truth, peak, peak, xc, left, rrev
    return (curve, peak, truth, bisect_left(left, truth),
            len(curve) - bisect_left(rrev, truth), xc, left, rrev)


def _run(level: ClippedLevel, p: int, q: int) -> tuple[int, int]:
    """The level's truth run clamped to grid points ``[p, q)``."""
    a, b = level[3], level[4]
    return min(max(a, p), q), min(max(b, p), q)


def _slice(level: ClippedLevel, p: int, q: int) -> tuple[float, ...]:
    """The clipped level on grid points ``[p, q)``."""
    curve, truth = level[0], level[2]
    a, b = _run(level, p, q)
    return curve[p:a] + (truth,) * (b - a) + curve[b:q]


def _envelope(levels: list[ClippedLevel]) -> list[Piece]:
    """The pointwise max of clipped levels, as pieces in grid order.

    On a grid segment each clipped level is unimodal, so its least value is
    at an endpoint and its greatest at an endpoint or at the curve's peak.
    A level whose greatest value is below another's least is dropped there;
    where one level's least value is at or above every other's greatest,
    the segment is a piece naming that level.  Otherwise the segment is
    halved, down to ``_LEAF`` points, which are maximised point by point.
    ``max`` returns one of its arguments, so every point equals the
    per-point max.
    """
    pieces: list[Piece] = []
    segments = [(0, len(_GRID), levels)]
    while segments:
        p, q, candidates = segments.pop()
        last = q - 1
        lows, highs = [], []
        for curve, peak, t, _a, _b, _xc, _left, _rrev in candidates:
            first, end = curve[p], curve[last]
            lows.append(min(t, first, end))
            highs.append(min(t, curve[peak] if p <= peak < q else max(first, end)))
        floor = max(lows)
        top = lows.index(floor)
        if max(highs[:top] + highs[top + 1:], default=floor) <= floor:
            pieces.append((p, q, candidates[top], None))
            continue
        kept = [level for level, hi in zip(candidates, highs) if hi >= floor]
        if q - p <= _LEAF:
            pieces.append((p, q, None, list(map(max, *(_slice(level, p, q) for level in kept)))))
        else:
            mid = (p + q) // 2
            segments.append((mid, q, kept))
            segments.append((p, mid, kept))
    return pieces


def aggregate_levels(level_truths: LevelTruths) -> AggregatedFuzzySet:
    """Disjunctive aggregation: the output curve is the pointwise max of
    the level functions clipped at their truths, kept as pieces of the
    cached level curves.  A level of truth 0 is left out: clipped, it is 0
    everywhere, and every curve is at least 0."""
    levels, truths = level_truths
    kept = [_clipped_level(curve, truth)
            for curve, truth in zip(levels.curves, truths) if truth > 0.0]
    return AggregatedFuzzySet(dict(zip(levels.names, truths)), _GRID, kept,
                              _envelope(kept) if kept else [])


def defuzzify(agg: AggregatedFuzzySet, method: str) -> float | None:
    """Centroid or mean-of-max of the aggregated curve; a flat zero curve
    defuzzifies to no value.

    The peak of the curve is the largest of the levels' ``min(truth,
    curve[peak])``, each a value of the curve.  Mean-of-max sums the grid
    points within ``MAX_TIE_EPS`` of the peak: on a unimodal curve a
    level's points at or above that bound are one run, found by bisecting
    its ascending halves, and the union of the runs is summed left to
    right.  The centroid sums every ``x * mu`` and every ``mu`` left to
    right, read from the pieces: a dominated stretch gives the level's
    cached products and values outside its truth run and ``x * truth`` and
    the truth inside it.  Each is one ``sum`` over the same floats in the
    same order as a walk over ``mu``, so it equals that walk's result.
    """
    if method not in ("centroid", "mean_of_max"):
        raise ValueError(f"unknown defuzzification method {method!r}")
    peak = max([min(t, curve[top]) for curve, top, t, *_ in agg.levels], default=0.0)
    if peak <= 0.0:
        return None
    xs = agg.xs
    if method == "centroid":
        moments, masses = [], []
        for p, q, level, values in agg.pieces:
            if level is None:
                moments.append(map(mul, xs[p:q], values))
                masses.append(values)
            else:
                curve, t, xc = level[0], level[2], level[5]
                a, b = _run(level, p, q)
                moments += (xc[p:a], map(mul, xs[a:b], repeat(t)), xc[b:q])
                masses += (curve[p:a], repeat(t, b - a), curve[b:q])
        return sum(chain.from_iterable(moments)) / sum(chain.from_iterable(masses))
    bound = peak - MAX_TIE_EPS
    runs = sorted((bisect_left(left, bound), len(curve) - bisect_left(rrev, bound))
                  for curve, _peak, t, _a, _b, _xc, left, rrev in agg.levels if t >= bound)
    top, count, end = [], 0, 0
    for a, b in runs:
        a = max(a, end)
        if a < b:
            top.append(xs[a:b])
            count += b - a
            end = b
    return sum(chain.from_iterable(top)) / count


def resolved_necessities(kb: KnowledgeBase, grades, operator: str) -> dict[str, float]:
    """Rule necessities under ``operator`` after the possibilistic layer."""
    ops = OPERATORS[operator]
    return resolve_possibility(kb, initial_necessities(kb, grades, ops), grades, ops)
