"""Five-layer defeasible argumentation over a knowledge base.

Layer 1-2 turn rules into forecast arguments and contradictions into
mitigating arguments with attacks (mutual-exclusion contradiction pairs
become rebuttal attacks directly between the two forecast arguments).
Layer 3 elicits the per-editor sub-framework from the editor's crisp
valuation, the one the expert engine retracts over (an argument is active
when its rule activated, or when its premises hold), optionally filtering
attacks by argument strength.  Layer 4 computes acceptance (grounded,
complete, preferred, stable labellings, or categoriser scores).  Layer 5
accrues the accepted forecast-argument values into one scalar.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from operator import itemgetter

from . import expert
from .kb.model import Dnf, KnowledgeBase

log = logging.getLogger(__name__)

IN, OUT, UNDEC = "in", "out", "undec"
ENUMERATION_CAP = 24
CAT_TIE_EPS = 1e-9
CAT_TOLERANCE = 1e-9
CAT_MAX_ITER = 10**5
CAT_DAMPING = 0.5


class FrameworkTooLargeError(ValueError):
    """Exact labelling enumeration refused; use grounded or categoriser."""


@dataclass(frozen=True)
class Argument:
    label: str
    kind: str  # "forecast" | "mitigating"
    premises: Dnf
    strength: int
    consequent_level: str | None = None
    attack_kind: str = "rebuttal"  # of every attack it makes
    rule: str | None = None  # whose activation makes it active; None: its premises


@dataclass(frozen=True)
class ArgumentationFramework:
    arguments: dict[str, Argument]
    attacks: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Labelling:
    labels: dict[str, str]

    def in_set(self) -> frozenset[str]:
        return frozenset(a for a, l in self.labels.items() if l == IN)

    def undec_set(self) -> frozenset[str]:
        return frozenset(a for a, l in self.labels.items() if l == UNDEC)


def build_af(kb: KnowledgeBase) -> ArgumentationFramework:
    """Arguments and attacks of a whole knowledge base.

    Every rule yields a forecast argument; every directed contradiction a
    mitigating argument attacking its targets (premise-based antecedents are
    undercutting attacks, rule-based ones undermining).  The two halves of a
    mutual-exclusion pair collapse into rebuttal attacks straight between
    the conflicting forecast arguments.  Unresolved targets yield no attack.
    """
    args: dict[str, Argument] = {}
    attacks: list[tuple[str, str]] = []
    for rule in kb.rules.values():
        args[rule.label] = Argument(
            label=rule.label,
            kind="forecast",
            premises=rule.antecedent,
            strength=kb.rule_weight(rule.label),
            consequent_level=rule.consequent_level,
            rule=rule.label,
        )
    for c in kb.contradictions.values():
        if c.unresolved:
            log.warning("contradiction %s: unresolved target(s) %s; attack omitted",
                        c.label, ", ".join(c.unresolved))
        targets = c.rule_targets + c.contradiction_targets
        if c.mutual_with is not None:
            attacks.extend((c.rule, tgt) for tgt in targets)
            continue
        premises = c.premises or kb.rules[c.rule].antecedent
        args[c.label] = Argument(
            label=c.label,
            kind="mitigating",
            premises=premises,
            strength=max(kb.features[f].weight for conj in premises for (f, _t) in conj),
            attack_kind="undercutting" if c.rule is None else "undermining",
            rule=c.rule,
        )
        attacks.extend((c.label, tgt) for tgt in targets)
    return ArgumentationFramework(args, tuple(attacks))


def elicit_subaf(af: ArgumentationFramework, valuation: expert.Valuation,
                 use_strength: bool = False) -> ArgumentationFramework:
    """Sub-framework of the arguments active under the editor's crisp
    valuation: an argument with a rule is active when that rule activated,
    one without when its premises hold.  An attack survives when both
    endpoints are active and, under strength filtering, the source is at
    least as strong as the target."""
    activated, holding = valuation
    active = {
        label: arg for label, arg in af.arguments.items()
        if (arg.premises in holding if arg.rule is None else arg.rule in activated)
    }
    attacks = []
    for src, tgt in af.attacks:
        if src not in active or tgt not in active:
            continue
        if use_strength and active[src].strength < active[tgt].strength:
            continue
        attacks.append((src, tgt))
    return ArgumentationFramework(active, tuple(attacks))


def grounded(af: ArgumentationFramework) -> Labelling:
    """The unique maximal-undec reinstatement labelling: in when all
    attackers are out, out when some attacker is in, undec otherwise.

    A worklist labels each argument at most once.  Every argument counts
    its attackers that are not yet OUT; one whose count reaches 0 is IN,
    its unlabelled targets are OUT, and their targets' counts drop.  What
    is never labelled is UNDEC.  Keys come in ``af.arguments`` order.
    """
    targets: dict[str, list[str]] = {a: [] for a in af.arguments}
    live = dict.fromkeys(af.arguments, 0)
    for src, tgt in af.attacks:
        targets[src].append(tgt)
        live[tgt] += 1
    labels: dict[str, str] = {}
    todo = [a for a, n in live.items() if n == 0]
    while todo:
        a = todo.pop()
        labels[a] = IN
        for t in targets[a]:
            if t in labels:
                continue
            labels[t] = OUT
            for u in targets[t]:
                live[u] -= 1
                if live[u] == 0:
                    todo.append(u)
    return Labelling({a: labels.get(a, UNDEC) for a in af.arguments})


def complete(af: ArgumentationFramework) -> list[Labelling]:
    """All complete labellings.

    Every complete labelling extends the grounded one on its in/out parts,
    and it is fixed by its in-set: OUT is what the in-set attacks, UNDEC
    the rest (Caminada 2006).  So only the conflict-free subsets of the
    grounded-undec region are searched, by an include/exclude walk over the
    sorted region that never takes an argument attacking itself, attacked
    by a chosen one or attacking one.  A subset is kept when every chosen
    argument has all its region attackers OUT and every UNDEC argument has
    an UNDEC attacker.  Labellings come sorted by their labels over the
    sorted region, IN before OUT before UNDEC.  Refuses frameworks whose
    undecided region exceeds ENUMERATION_CAP arguments.
    """
    base = grounded(af).labels
    region = sorted(a for a, l in base.items() if l == UNDEC)
    if len(region) > ENUMERATION_CAP:
        raise FrameworkTooLargeError(
            f"{len(region)} arguments in the undecided region exceeds the "
            f"exact-enumeration cap of {ENUMERATION_CAP}; use grounded or "
            f"categoriser semantics"
        )
    # attackers outside the region are grounded-out and decide nothing here
    attackers = {a: set() for a in region}
    targets = {a: set() for a in region}
    for src, tgt in af.attacks:
        if src in attackers and tgt in attackers:
            attackers[tgt].add(src)
            targets[src].add(tgt)
    region_set = frozenset(region)
    kept: list[tuple[tuple[int, ...], dict[str, str]]] = []
    rank = {IN: 0, OUT: 1, UNDEC: 2}

    def leaf(in_set: list[str]) -> None:
        out = set().union(*(targets[a] for a in in_set))
        if any(not attackers[a] <= out for a in in_set):
            return
        undec = region_set - out - set(in_set)
        if any(attackers[a].isdisjoint(undec) for a in undec):
            return
        labels = dict(base)
        labels.update({a: OUT for a in out})
        labels.update({a: IN for a in in_set})
        kept.append((tuple(rank[labels[a]] for a in region), labels))

    def search(i: int, in_set: list[str], blocked: frozenset[str]) -> None:
        if i == len(region):
            leaf(in_set)
            return
        a = region[i]
        if a not in blocked and a not in attackers[a]:
            in_set.append(a)
            search(i + 1, in_set, blocked | targets[a] | attackers[a])
            in_set.pop()
        search(i + 1, in_set, blocked)

    search(0, [], frozenset())
    kept.sort(key=lambda k: k[0])
    return [Labelling(labels) for _key, labels in kept]


def preferred(af: ArgumentationFramework) -> list[Labelling]:
    """Complete labellings with subset-maximal in-sets."""
    all_complete = complete(af)
    in_sets = [l.in_set() for l in all_complete]
    return [
        l for l, s in zip(all_complete, in_sets)
        if not any(s < other for other in in_sets)
    ]


def stable(af: ArgumentationFramework) -> list[Labelling]:
    """Complete labellings with no undec argument."""
    return [l for l in complete(af) if not l.undec_set()]


def categoriser(af: ArgumentationFramework) -> dict[str, float]:
    """Fixed point of ``Cat(a) = 1 / (1 + sum of attacker scores)``.

    Damped Jacobi iteration from all ones, over the attacked arguments
    only: an unattacked argument is exactly 1 in every round, so it is
    left out of the rounds and the residual.  Each round computes every
    next value from the previous round's scores, summing attacker scores
    in ``af.attacks`` order.  One undamped application after convergence
    returns scores whose residual stays below ``CAT_TOLERANCE`` while
    acyclic chains come out exact.  Keys come in ``af.arguments`` order.
    """
    index = {a: i for i, a in enumerate(af.arguments)}
    incoming: dict[int, list[int]] = {}
    for src, tgt in af.attacks:
        incoming.setdefault(index[tgt], []).append(index[src])
    attacked = list(incoming)
    # each gathers the attacker scores in order; a lone attacker is gathered
    # as a one-item slice, since ``itemgetter(j)`` returns a bare score
    gathers = [itemgetter(*srcs) if len(srcs) > 1 else itemgetter(slice(srcs[0], srcs[0] + 1))
               for srcs in incoming.values()]
    scores = [1.0] * len(index)
    for _ in range(CAT_MAX_ITER):
        nxt = [1.0 / (1.0 + sum(gather(scores))) for gather in gathers]
        prev = [scores[i] for i in attacked]
        residual = max([abs(n - p) for n, p in zip(nxt, prev)], default=0.0)
        if residual < CAT_TOLERANCE / 2:
            # this round's values are the undamped application
            for i, n in zip(attacked, nxt):
                scores[i] = n
            return dict(zip(af.arguments, scores))
        for i, n, p in zip(attacked, nxt, prev):
            scores[i] = p + CAT_DAMPING * (n - p)
    raise RuntimeError(
        f"categoriser did not converge within {CAT_MAX_ITER} iterations (residual {residual:.3e})"
    )


# a function of its own, which ``elicit`` calls, because the benchmark's
# tracer rebinds it by name
def argument_value(valuation: expert.Valuation, arg: Argument) -> float:
    """Trust value of an activated forecast argument: its rule's value."""
    return valuation.activated[arg.rule].value


def _accrue_values(pairs: list[tuple[float, int]], weighted: bool) -> float | None:
    if not pairs:
        return None
    if not weighted:
        return sum(v for v, _w in pairs) / len(pairs)
    total = sum(w for _v, w in pairs)
    if total == 0:
        log.warning("total argument strength is 0; falling back to unweighted mean")
        return sum(v for v, _w in pairs) / len(pairs)
    return sum(v * w for v, w in pairs) / total


def accrue_extensions(subaf: ArgumentationFramework, labellings: list[Labelling],
                      values: dict[str, float], weighted: bool) -> float | None:
    """Cardinality accrual: keep the largest extensions (all accepted
    arguments counted); ties average the per-extension trusts.  Extensions
    without an accepted forecast argument contribute nothing."""
    if not labellings:
        return None
    sizes = [len(l.in_set()) for l in labellings]
    top = max(sizes)
    trusts = []
    for l, size in zip(labellings, sizes):
        if size != top:
            continue
        pairs = [
            (values[a], subaf.arguments[a].strength)
            for a in sorted(l.in_set())
            if subaf.arguments[a].kind == "forecast"
        ]
        trust = _accrue_values(pairs, weighted)
        if trust is not None:
            trusts.append(trust)
    if not trusts:
        return None
    return sum(trusts) / len(trusts)


def accrue_categoriser(subaf: ArgumentationFramework, scores: dict[str, float],
                       values: dict[str, float], weighted: bool) -> float | None:
    """Top-ranked accrual over forecast arguments only; mitigating arguments
    have already played their part in the ranking."""
    forecast = [a for a, arg in subaf.arguments.items() if arg.kind == "forecast"]
    if not forecast:
        return None
    best = max(scores[a] for a in forecast)
    pairs = [
        (values[a], subaf.arguments[a].strength)
        for a in sorted(forecast)
        if scores[a] >= best - CAT_TIE_EPS
    ]
    return _accrue_values(pairs, weighted)


@dataclass(frozen=True)
class ArgumentationOutcome:
    """One editor's argumentation run: the trust and the structures that
    produced it.  Extension-based semantics fill ``labellings``, the
    categoriser fills ``scores``."""

    trust: float | None
    subaf: ArgumentationFramework
    values: dict[str, float]
    labellings: list[Labelling] | None = None
    scores: dict[str, float] | None = None

    def trace(self) -> dict:
        """JSON-ready trace: activated arguments, kept attacks, forecast
        values, labellings or scores, then the trust."""
        subaf = self.subaf
        trace: dict = {
            "activated_arguments": sorted(subaf.arguments),
            "kept_attacks": [
                {"from": s, "to": t, "kind": subaf.arguments[s].attack_kind}
                for s, t in subaf.attacks
            ],
            "forecast_values": {a: self.values[a] for a in sorted(self.values)},
        }
        if self.scores is not None:
            trace["scores"] = {a: self.scores[a] for a in sorted(self.scores)}
        else:
            trace["labellings"] = [
                {a: l.labels[a] for a in sorted(l.labels)} for l in self.labellings
            ]
        trace["trust"] = self.trust
        return trace


def elicit(kb: KnowledgeBase, valuation: expert.Valuation,
           use_strength: bool) -> tuple[ArgumentationFramework, dict[str, float]]:
    """The semantics-independent part of a run: the editor's sub-framework
    and the values of its forecast arguments."""
    subaf = elicit_subaf(kb.framework, valuation, use_strength)
    values = {
        a: argument_value(valuation, arg)
        for a, arg in subaf.arguments.items()
        if arg.kind == "forecast"
    }
    return subaf, values


def label_and_accrue(subaf: ArgumentationFramework, values: dict[str, float],
                     semantics: str, use_strength: bool) -> ArgumentationOutcome:
    """Acceptance under ``semantics`` and accrual of the accepted values."""
    if semantics == "categoriser":
        scores = categoriser(subaf)
        trust = accrue_categoriser(subaf, scores, values, weighted=use_strength)
        return ArgumentationOutcome(trust, subaf, values, scores=scores)
    if semantics == "grounded":
        labellings = [grounded(subaf)]
    elif semantics == "preferred":
        labellings = preferred(subaf)
    elif semantics == "stable":
        labellings = stable(subaf)
    else:
        raise ValueError(f"unknown semantics {semantics!r}")
    trust = accrue_extensions(subaf, labellings, values, weighted=use_strength)
    return ArgumentationOutcome(trust, subaf, values, labellings=labellings)


def run_argumentation(kb: KnowledgeBase, features, semantics: str,
                      use_strength: bool) -> ArgumentationOutcome:
    """Full per-editor pipeline: value, elicit, label, accrue."""
    subaf, values = elicit(kb, expert.valuation(kb, features), use_strength)
    return label_and_accrue(subaf, values, semantics, use_strength)
