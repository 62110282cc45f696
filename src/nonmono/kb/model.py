"""Immutable domain model for knowledge bases.

A knowledge base couples quantitative features (with linguistic terms mapped
to numeric ranges and fuzzy membership functions) to IF-THEN trust rules and
to contradictions (meta-rules that retract other rules or contradictions).
A contradiction is one record that all three engines read: its antecedent is
a rule label or premises, and its targets come split into rules and
contradictions.  ``contradiction_graph`` orders the records into the layers
in which the engines fire them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..argumentation import ArgumentationFramework
    from ..fuzzy import CapLayer, LevelSet

__all__ = [
    "Fmf",
    "LinguisticTerm",
    "Feature",
    "TrustLevel",
    "Premise",
    "Rule",
    "Contradiction",
    "KnowledgeBase",
    "KbValidationError",
    "contradiction_graph",
]

MAX_FEATURE_WEIGHT = 8


class KbValidationError(ValueError):
    """Raised when a knowledge base violates a structural invariant.

    ``declaration`` names the offending declaration as a ``(keyword,
    label)`` pair, such as ``("rule", "B1")``, when there is one, so that a
    parser can report the line that declared it.
    """

    def __init__(self, message: str, declaration: tuple[str, str] | None = None):
        super().__init__(message)
        self.declaration = declaration


@dataclass(frozen=True)
class Fmf:
    """Fuzzy membership function: triangular, trapezoidal, gaussian or crisp."""

    shape: str
    params: tuple[float, ...]

    _ARITY = {"triangular": 3, "trapezoidal": 4, "gaussian": 2, "crisp": 2}

    def __post_init__(self):
        if self.shape not in self._ARITY:
            raise KbValidationError(f"unknown fmf shape {self.shape!r}")
        if len(self.params) != self._ARITY[self.shape]:
            raise KbValidationError(
                f"fmf {self.shape} expects {self._ARITY[self.shape]} parameters, "
                f"got {len(self.params)}"
            )
        p = self.params
        if self.shape == "gaussian":
            if p[1] <= 0:
                raise KbValidationError("gaussian sigma must be > 0")
        elif list(p) != sorted(p):
            raise KbValidationError(f"fmf {self.shape} parameters must be ordered: {p}")

    def __call__(self, x: float) -> float:
        p = self.params
        if self.shape == "gaussian":
            mu, sigma = p
            return math.exp(-((x - mu) ** 2) / (2 * sigma * sigma))
        if self.shape == "crisp":
            return 1.0 if p[0] <= x <= p[1] else 0.0
        if self.shape == "triangular":
            a, b, c = p
            if x < a or x > c:
                return 0.0
            if x <= b:
                return (x - a) / (b - a) if b > a else 1.0
            return (c - x) / (c - b) if c > b else 1.0
        a, b, c, d = p
        if x < a or x > d:
            return 0.0
        if x < b:
            return (x - a) / (b - a)
        if x <= c:
            return 1.0
        return (d - x) / (d - c)


def _select_fmf(fmfs: dict[str, Fmf], variant: str | None, kind: str, label: str) -> Fmf:
    """Membership function for ``variant``, falling back to the sole one."""
    if variant is not None and variant in fmfs:
        return fmfs[variant]
    if not fmfs:
        raise KbValidationError(f"{kind} {label}: no membership function declared")
    return next(iter(fmfs.values()))


@dataclass(frozen=True)
class LinguisticTerm:
    """A named numeric range of a feature, e.g. ``medium_high = [10, 19]``.

    ``upper`` may be a saturation bound standing in for an unbounded range;
    ``saturated`` records that.  ``fmfs`` maps variant name (``triangular`` /
    ``gaussian``) to a membership function; terms modelled with a single
    function store it under its shape family and serve it for any variant.
    """

    label: str
    lower: float
    upper: float
    fmfs: dict[str, Fmf] = field(default_factory=dict)
    saturated: bool = False

    def __post_init__(self):
        if self.lower > self.upper:
            raise KbValidationError(
                f"term {self.label}: lower {self.lower} > upper {self.upper}"
            )

    def fmf(self, variant: str | None = None) -> Fmf:
        return _select_fmf(self.fmfs, variant, "term", self.label)

    def contains(self, value: float) -> bool:
        """Crisp range membership; saturated terms are unbounded above."""
        if self.saturated:
            return value >= self.lower
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class Feature:
    name: str
    weight: int
    terms: tuple[LinguisticTerm, ...]
    domain_min: float
    domain_max: float

    def __post_init__(self):
        if not 0 <= self.weight <= MAX_FEATURE_WEIGHT:
            raise KbValidationError(
                f"feature {self.name}: weight {self.weight} outside [0, {MAX_FEATURE_WEIGHT}]"
            )
        ordered = sorted(self.terms, key=lambda t: (t.lower, t.upper))
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.lower < prev.upper:
                raise KbValidationError(
                    f"feature {self.name}: terms {prev.label} and {cur.label} overlap"
                )
        for t in self.terms:
            if t.lower < self.domain_min or (t.upper > self.domain_max):
                raise KbValidationError(
                    f"feature {self.name}: term {t.label} outside domain "
                    f"[{self.domain_min}, {self.domain_max}]"
                )


@dataclass(frozen=True)
class TrustLevel:
    """A consequent level with its numeric range and membership functions."""

    label: str
    lower: float
    upper: float
    fmfs: dict[str, Fmf] = field(default_factory=dict)

    def fmf(self, variant: str | None = None) -> Fmf:
        return _select_fmf(self.fmfs, variant, "trust level", self.label)


# A premise is a (feature, term) pair; an antecedent is a DNF over premises:
# a tuple of disjuncts, each a tuple of conjoined premises.
Premise = tuple[str, str]
Dnf = tuple[tuple[Premise, ...], ...]


@dataclass(frozen=True)
class Rule:
    label: str
    antecedent: Dnf
    consequent_level: str

    def features(self) -> set[str]:
        return {f for conj in self.antecedent for (f, _t) in conj}


@dataclass(frozen=True)
class Contradiction:
    """A meta-rule: when its antecedent holds, its targets are retracted.

    The antecedent is either the label of a ``rule`` or the ``premises`` of a
    DNF; the other is None.  The targets are split into ``rule_targets`` and
    ``contradiction_targets``, each in declaration order; a group target is
    expanded at parse time into the member labels.  ``unresolved`` lists
    targets that name no declared rule or contradiction (kept, surfaced as
    warnings, never fired).  ``mutual_with`` links the twin of a
    mutual-exclusion pair, whose ``rule`` targets the other rule.
    """

    label: str
    rule: str | None
    premises: Dnf | None
    rule_targets: tuple[str, ...]
    contradiction_targets: tuple[str, ...]
    unresolved: tuple[str, ...] = ()
    mutual_with: str | None = None


@dataclass(frozen=True)
class KnowledgeBase:
    """Features, trust levels, rules and contradictions.  The structures
    derived from them (distinct contradiction premises, contradiction layers,
    their possibilistic cap tables, fuzzy level sets, argumentation
    framework, rule weights) are built on first use and kept with the
    knowledge base."""

    id: str
    features: dict[str, Feature]
    trust_levels: dict[str, TrustLevel]
    rules: dict[str, Rule]
    contradictions: dict[str, Contradiction]

    def validate(self) -> None:
        """Check cross-references and the trust-level tiling of [0, 1]."""
        levels = sorted(self.trust_levels.values(), key=lambda l: (l.lower, l.upper))
        if not levels:
            raise KbValidationError("no trust levels declared")
        if levels[0].lower != 0.0:
            raise KbValidationError("trust levels must span [0, 1]", ("trustlevel", levels[0].label))
        if levels[-1].upper != 1.0:
            raise KbValidationError("trust levels must span [0, 1]", ("trustlevel", levels[-1].label))
        for prev, cur in zip(levels, levels[1:]):
            if cur.lower != prev.upper:
                raise KbValidationError(
                    f"trust levels {prev.label} and {cur.label} do not tile [0, 1]",
                    ("trustlevel", cur.label),
                )
        for rule in self.rules.values():
            where = ("rule", rule.label)
            self._check_dnf(rule.antecedent, where)
            if rule.consequent_level not in self.trust_levels:
                raise KbValidationError(
                    f"rule {rule.label}: unknown trust level {rule.consequent_level!r}", where
                )
        for c in self.contradictions.values():
            where = ("contradiction", c.label)
            if c.rule is None:
                self._check_dnf(c.premises, where)
            elif c.rule not in self.rules:
                raise KbValidationError(f"contradiction {c.label}: unknown rule {c.rule!r}", where)
            dangling = [t for t in c.rule_targets if t not in self.rules] + [
                t for t in c.contradiction_targets if t not in self.contradictions]
            if dangling:
                raise KbValidationError(
                    f"contradiction {c.label}: dangling target {dangling[0]!r}", where
                )

    def _check_dnf(self, dnf: Dnf | None, where: tuple[str, str]) -> None:
        name = " ".join(where)
        if not dnf or any(not conj for conj in dnf):
            raise KbValidationError(f"{name}: empty antecedent", where)
        for conj in dnf:
            for premise in conj:
                if premise not in self.terms:
                    fname, tlabel = premise
                    if fname not in self.features:
                        raise KbValidationError(f"{name}: unknown feature {fname!r}", where)
                    raise KbValidationError(
                        f"{name}: feature {fname} has no term {tlabel!r}", where)

    @cached_property
    def terms(self) -> dict[Premise, LinguisticTerm]:
        """The linguistic term of every ``(feature, term)`` premise."""
        return {(name, t.label): t for name, f in self.features.items() for t in f.terms}

    @cached_property
    def premise_antecedents(self) -> tuple[Dnf, ...]:
        """The distinct premise antecedents of the contradictions."""
        return tuple(dict.fromkeys(
            c.premises for c in self.contradictions.values() if c.premises is not None))

    @cached_property
    def layers(self) -> tuple[tuple[Contradiction, ...], ...]:
        return contradiction_graph(self)

    @cached_property
    def cap_layers(self) -> tuple[CapLayer, ...]:
        from .. import fuzzy  # fuzzy imports this module

        return fuzzy.compile_caps(self)

    @cached_property
    def level_sets(self) -> dict[str | None, LevelSet]:
        """The trust levels under each fmf variant used so far, as
        ``fuzzy.level_set`` builds them."""
        return {}

    @cached_property
    def framework(self) -> ArgumentationFramework:
        from .. import argumentation  # argumentation imports this module

        return argumentation.build_af(self)

    @cached_property
    def _rule_weights(self) -> dict[str, int]:
        return {
            label: max(self.features[f].weight for f in rule.features())
            for label, rule in self.rules.items()
        }

    def rule_weight(self, rule_label: str) -> int:
        """Weight of a rule: max weight over its antecedent's features."""
        return self._rule_weights[rule_label]


def contradiction_graph(kb: KnowledgeBase) -> tuple[tuple[Contradiction, ...], ...]:
    """The contradictions in firing order: Kahn layers over the cycle
    condensation of the contradiction-on-contradiction edges, root first.
    Every contradiction of a strongly connected component shares its
    component's layer, and a layer is sorted by label."""
    labels = sorted(kb.contradictions)
    edges = {label: kb.contradictions[label].contradiction_targets for label in labels}
    comp_of = _tarjan_scc(labels, edges)
    comps: dict[int, list[str]] = {}
    for n, c in comp_of.items():
        comps.setdefault(c, []).append(n)
    # longest-path depth of each component in the condensation, by Kahn's
    # order: a component's depth is final once all its predecessors are done
    comp_succ = {
        c: {comp_of[t] for n in members for t in edges[n] if comp_of[t] != c}
        for c, members in comps.items()
    }
    indegree = dict.fromkeys(comps, 0)
    for succs in comp_succ.values():
        for s in succs:
            indegree[s] += 1
    depth = dict.fromkeys(comps, 0)
    ready = [c for c in comps if indegree[c] == 0]
    for c in ready:
        for s in comp_succ[c]:
            depth[s] = max(depth[s], depth[c] + 1)
            indegree[s] -= 1
            if indegree[s] == 0:
                ready.append(s)
    layers: list[list[Contradiction]] = [[] for _ in range(1 + max(depth.values(), default=0))]
    for label in labels:
        layers[depth[comp_of[label]]].append(kb.contradictions[label])
    return tuple(map(tuple, layers))


def _tarjan_scc(nodes: list[str], edges: dict[str, tuple[str, ...]]) -> dict[str, int]:
    """Iterative Tarjan; returns node -> component id (deterministic)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    comp_of: dict[str, int] = {}
    counter = iter(range(len(nodes) * 2 + 1))
    n_comps = 0

    for root in nodes:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, ei = work[-1]
            if ei == 0:
                index[node] = low[node] = next(counter)
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for j in range(ei, len(edges[node])):
                succ = edges[node][j]
                if succ not in index:
                    work[-1] = (node, j + 1)
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp_of[w] = n_comps
                    if w == node:
                        break
                n_comps += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp_of

