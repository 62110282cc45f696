"""Five-layer defeasible argumentation over a knowledge base.

Layer 1-2 turn rules into forecast arguments and contradictions into
mitigating arguments with attacks (mutual-exclusion contradiction pairs
become rebuttal attacks directly between the two forecast arguments).
Layer 3 elicits the per-editor sub-framework from the editor's crisp
valuation, the one the expert engine retracts over (an argument is active
when its rule activated, or when its premises hold), optionally filtering
attacks by argument strength.  It reads the framework's arguments indexed
by rule or premises and its attacks indexed by source, each attack with
its static strength filter, so it visits only what activated.  Layer 4
computes acceptance (grounded, complete, preferred, stable labellings, or
categoriser scores); the complete labellings are searched over integer
masks of the grounded-undecided region.  Layer 5 accrues the accepted
forecast-argument values into one scalar.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def index(self) -> FrameworkIndex:
        """``index_framework(self)``, built on first read: what
        ``elicit_subaf`` reads of a whole knowledge base's framework."""
        return index_framework(self)

    @cached_property
    def grounded_labelling(self) -> Labelling:
        """``grounded(self)``, labelled on first read and then shared by
        the grounded, complete, preferred and stable semantics."""
        return grounded(self)


@dataclass(frozen=True)
class Labelling:
    labels: dict[str, str]

    def in_set(self) -> frozenset[str]:
        """The IN arguments, collected on the first call."""
        return self._in_set

    @cached_property
    def _in_set(self) -> frozenset[str]:
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
            strength=kb.weight(rule.antecedent),
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
            strength=kb.weight(premises),
            attack_kind="undercutting" if c.rule is None else "undermining",
            rule=c.rule,
        )
        attacks.extend((c.label, tgt) for tgt in targets)
    return ArgumentationFramework(args, tuple(attacks))


# A framework's arguments by antecedent, a rule label or premises, each as
# (position in ``arguments``, label); and its attacks between arguments by
# source, each as (position in ``attacks``, target, whether the source is
# at least as strong as the target).
FrameworkIndex = tuple[dict[str | Dnf, tuple[tuple[int, str], ...]],
                       dict[str, tuple[tuple[int, str, bool], ...]]]


def index_framework(af: ArgumentationFramework) -> FrameworkIndex:
    """The arguments of ``af`` by antecedent and its attacks by source."""
    args = af.arguments
    by_antecedent: dict = {}
    for i, (label, arg) in enumerate(args.items()):
        by_antecedent.setdefault(arg.premises if arg.rule is None else arg.rule, []).append(
            (i, label))
    by_source: dict = {}
    for i, (src, tgt) in enumerate(af.attacks):
        if src in args and tgt in args:
            by_source.setdefault(src, []).append(
                (i, tgt, args[src].strength >= args[tgt].strength))
    return ({k: tuple(v) for k, v in by_antecedent.items()},
            {k: tuple(v) for k, v in by_source.items()})


def elicit_subaf(af: ArgumentationFramework, valuation: expert.Valuation,
                 use_strength: bool = False) -> ArgumentationFramework:
    """Sub-framework of the arguments active under the editor's crisp
    valuation: an argument with a rule is active when that rule activated,
    one without when its premises hold.  An attack survives when both
    endpoints are active and, under strength filtering, the source is at
    least as strong as the target.  Arguments and attacks are looked up in
    ``af.index`` and keep their order in ``af``."""
    by_antecedent, by_source = af.index
    positions = sorted(entry for antecedent in (*valuation.activated, *valuation.holding)
                       for entry in by_antecedent.get(antecedent, ()))
    active = {label: af.arguments[label] for _i, label in positions}
    kept = sorted(i for src in active for i, tgt, strong in by_source.get(src, ())
                  if tgt in active and (strong or not use_strength))
    return ArgumentationFramework(active, tuple(af.attacks[i] for i in kept))


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
    the rest (Caminada 2006).  So the search starts from the framework's
    shared ``grounded_labelling``, and when its undecided region is empty
    that labelling is the only complete one, returned without a search.
    Otherwise ``_region_labellings`` searches the conflict-free subsets of
    the region.  Refuses frameworks whose undecided region exceeds
    ENUMERATION_CAP arguments.
    """
    base = af.grounded_labelling
    region = sorted(a for a, l in base.labels.items() if l == UNDEC)
    if not region:
        return [base]
    if len(region) > ENUMERATION_CAP:
        raise FrameworkTooLargeError(
            f"{len(region)} arguments in the undecided region exceeds the "
            f"exact-enumeration cap of {ENUMERATION_CAP}; use grounded or "
            f"categoriser semantics"
        )
    return _region_labellings(af, base.labels, region)


def _region_labellings(af: ArgumentationFramework, base: dict[str, str],
                       region: list[str]) -> list[Labelling]:
    """The complete labellings that extend the grounded labels ``base`` over
    the sorted, non-empty undecided ``region``.

    An include/exclude walk over the region never takes an argument
    attacking itself, attacked by a chosen one or attacking one.  A subset
    is kept when every chosen argument has all its region attackers OUT and
    every UNDEC argument has an UNDEC attacker.  Labellings come sorted by
    their labels over the region, IN before OUT before UNDEC.  Sets of
    region arguments are integer masks, bit i standing for ``region[i]``.
    """
    # attackers outside the region are grounded-out and decide nothing here
    index = {a: i for i, a in enumerate(region)}
    attackers = [0] * len(region)
    targets = [0] * len(region)
    for src, tgt in af.attacks:
        if src in index and tgt in index:
            attackers[index[tgt]] |= 1 << index[src]
            targets[index[src]] |= 1 << index[tgt]
    everything = (1 << len(region)) - 1
    kept: list[tuple[tuple[int, ...], dict[str, str]]] = []

    def leaf(chosen: int, out: int, needed: int) -> None:
        # ``needed`` holds the attackers of the chosen arguments
        if needed & ~out:
            return
        undec = everything & ~out & ~chosen
        if any(undec >> i & 1 and not attackers[i] & undec for i in range(len(region))):
            return
        labels = dict(base)
        ranks = []
        for i, a in enumerate(region):
            if chosen >> i & 1:
                labels[a] = IN
                ranks.append(0)
            elif out >> i & 1:
                labels[a] = OUT
                ranks.append(1)
            else:
                ranks.append(2)
        kept.append((tuple(ranks), labels))

    def search(i: int, chosen: int, out: int, needed: int, blocked: int) -> None:
        if i == len(region):
            leaf(chosen, out, needed)
            return
        b = 1 << i
        if not (blocked | attackers[i]) & b:
            search(i + 1, chosen | b, out | targets[i], needed | attackers[i],
                   blocked | targets[i] | attackers[i])
        search(i + 1, chosen, out, needed, blocked)

    search(0, 0, 0, 0, 0)
    kept.sort(key=lambda k: k[0])
    return [Labelling(labels) for _key, labels in kept]


def preferred(af: ArgumentationFramework) -> list[Labelling]:
    """Complete labellings with subset-maximal in-sets.  Where the grounded
    region is empty, that is the framework's shared grounded labelling."""
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


def _forecast_pairs(subaf: ArgumentationFramework, values: dict[str, float],
                    accepted) -> list[tuple[float, float]]:
    """``(value, strength)`` of each forecast argument in ``accepted``, in
    sorted order: what an accrual averages."""
    arguments = subaf.arguments
    return [(values[a], arguments[a].strength) for a in sorted(accepted)
            if arguments[a].kind == "forecast"]


def accrue_extensions(subaf: ArgumentationFramework, labellings: list[Labelling],
                      values: dict[str, float], weighted: bool) -> float | None:
    """Cardinality accrual: keep the largest extensions (all accepted
    arguments counted); ties average the per-extension trusts.  Extensions
    without an accepted forecast argument contribute nothing."""
    if not labellings:
        return None
    sizes = [len(l.in_set()) for l in labellings]
    top = max(sizes)
    groups = []
    for l, size in zip(labellings, sizes):
        if size != top:
            continue
        pairs = _forecast_pairs(subaf, values, l.in_set())
        if pairs:
            groups.append(pairs)
    if not groups:
        return None
    trusts = expert.means(groups, weighted)
    return sum(trusts) / len(trusts)


def accrue_categoriser(subaf: ArgumentationFramework, scores: dict[str, float],
                       values: dict[str, float], weighted: bool) -> float | None:
    """Top-ranked accrual over forecast arguments only; mitigating arguments
    have already played their part in the ranking."""
    forecast = [a for a, arg in subaf.arguments.items() if arg.kind == "forecast"]
    if not forecast:
        return None
    best = max(scores[a] for a in forecast)
    top = [a for a in forecast if scores[a] >= best - CAT_TIE_EPS]
    return expert.means([_forecast_pairs(subaf, values, top)], weighted)[0]


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


def labellings(subaf: ArgumentationFramework, semantics: str) -> list[Labelling] | None:
    """The accepted labellings under an extension-based ``semantics``; None
    under the categoriser, which ranks by ``categoriser`` scores instead."""
    if semantics == "categoriser":
        return None
    if semantics == "grounded":
        return [subaf.grounded_labelling]
    if semantics == "preferred":
        return preferred(subaf)
    if semantics == "stable":
        return stable(subaf)
    raise ValueError(f"unknown semantics {semantics!r}")


def label_and_accrue(subaf: ArgumentationFramework, values: dict[str, float],
                     semantics: str, use_strength: bool) -> float | None:
    """Trust: acceptance under ``semantics`` and accrual of the accepted
    values, where ``values`` holds every forecast argument's, as ``elicit``
    returns them.

    The categoriser accrual reads only the top tie set of forecast scores,
    so when some forecast argument is unattacked, no round runs.  An
    unattacked argument scores exactly 1.  With N attacks (N is at most the
    argument count when no attack repeats) every score, in every round,
    lies in [1/(1+N), 1], so an attacked argument scores at most
    1/(1 + 1/(1+N)) = (1+N)/(2+N), which is below ``1 - CAT_TIE_EPS`` for
    any N under 10**8.  The top tie set is then exactly the unattacked
    forecast arguments, accrued in sorted order as ``accrue_categoriser``
    accrues them, so the trust is the same float.
    """
    accepted = labellings(subaf, semantics)
    if accepted is not None:
        return accrue_extensions(subaf, accepted, values, weighted=use_strength)
    attacked = {t for _s, t in subaf.attacks}
    pairs = _forecast_pairs(subaf, values, values.keys() - attacked)
    if pairs:
        return expert.means([pairs], use_strength)[0]
    return accrue_categoriser(subaf, categoriser(subaf), values, weighted=use_strength)
