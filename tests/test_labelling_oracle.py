"""The shared grounded labelling and the bitmask region search against the
enumeration they replaced.

Before each sub-framework kept one grounded labelling, read on first use,
``complete`` labelled the framework again on every call and searched the
grounded-undecided region even when it was empty.  That ``complete``, and
the ``preferred`` over it, are kept below, verbatim but for the module
prefix, as the oracle; ``stable`` is unchanged and filters the oracle's
complete labellings.  The region search, which now walks integer masks,
is compared on its own with the string-set search it replaced, kept below
verbatim, on seeded regions of up to 12 arguments.  ``complete``, ``preferred`` and ``stable`` must equal
the oracle's, list order and each labelling's key order included, on the
KB2 sub-frameworks of the differential test's boundary vectors (among them
non-empty regions) and on seeded toy frameworks, whether or not the shared
labelling was read before.
"""
from __future__ import annotations

import random

import pytest

from conftest import crisp_valuation
from nonmono import argumentation as arg
from nonmono.argumentation import (
    ENUMERATION_CAP,
    IN,
    OUT,
    UNDEC,
    ArgumentationFramework,
    FrameworkTooLargeError,
    Labelling,
)
from test_argumentation import toy_af
from test_differential import _boundary_vectors

BOUNDARY_EDITORS = 60
TOY_FRAMEWORKS = 300
TOY_REGIONS = 400


# ``complete`` and ``preferred`` before the shared labelling, verbatim but
# for the module prefix of ``grounded`` and for the search over the region,
# which is the parent's string-set ``_region_labellings``, kept verbatim
# below it and called here with the same arguments.

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
    base = arg.grounded(af).labels
    region = sorted(a for a, l in base.items() if l == UNDEC)
    if len(region) > ENUMERATION_CAP:
        raise FrameworkTooLargeError(
            f"{len(region)} arguments in the undecided region exceeds the "
            f"exact-enumeration cap of {ENUMERATION_CAP}; use grounded or "
            f"categoriser semantics"
        )
    return _region_labellings(af, base, region)


def _region_labellings(af: ArgumentationFramework, base: dict[str, str],
                       region: list[str]) -> list[Labelling]:
    """The complete labellings that extend the grounded labels ``base`` over
    the sorted, non-empty undecided ``region``.

    An include/exclude walk over the region never takes an argument
    attacking itself, attacked by a chosen one or attacking one.  A subset
    is kept when every chosen argument has all its region attackers OUT and
    every UNDEC argument has an UNDEC attacker.  Labellings come sorted by
    their labels over the region, IN before OUT before UNDEC.
    """
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
    return [l for l in complete(af) if not l.undec_set()]


SEMANTICS = ((arg.complete, complete), (arg.preferred, preferred), (arg.stable, stable))


def _items(labellings: list[Labelling]) -> list[list[tuple[str, str]]]:
    return [list(l.labels.items()) for l in labellings]


def _assert_as_oracle(make) -> None:
    """Each semantics over a fresh ``make()`` equals the oracle's over
    another, with the shared labelling read first and not read."""
    for read_first in (False, True):
        for semantics, oracle in SEMANTICS:
            af = make()
            if read_first:
                _ = af.grounded_labelling
            got, want = semantics(af), oracle(make())
            assert got == want and _items(got) == _items(want)


def _region(af: ArgumentationFramework) -> list[str]:
    return [a for a, l in arg.grounded(af).labels.items() if l == UNDEC]


def test_boundary_subframeworks_match_the_oracle(kb1, kb2):
    regions = []
    for vec in _boundary_vectors(BOUNDARY_EDITORS, (kb1, kb2)):
        valuation = crisp_valuation(kb2, vec)
        for strength in (False, True):
            make = lambda: arg.elicit_subaf(kb2.framework, valuation, strength)
            _assert_as_oracle(make)
            regions.append(len(_region(make())))
    # the search runs on some of them, and the shortcut on others
    assert 0 in regions and max(regions) > 1


def test_toy_frameworks_match_the_oracle():
    rng = random.Random(20062)
    regions = []
    for _ in range(TOY_FRAMEWORKS):
        n = rng.randint(1, 10)
        p = rng.choice((0.0, 0.1, 0.25, 0.4))
        names = [f"a{i}" for i in range(n)]
        attacks = [(a, b) for a in names for b in names if rng.random() < p]
        make = lambda: toy_af({a: 1 for a in names}, attacks)
        _assert_as_oracle(make)
        regions.append(len(_region(make())))
    assert 0 in regions and max(regions) > 1


def test_bitmask_region_search_matches_the_oracle():
    # seeded toy frameworks whose grounded labelling leaves up to 12
    # arguments undecided, the search compared on its own
    rng = random.Random(20063)
    regions = []
    for _ in range(TOY_REGIONS):
        n = rng.randint(2, 12)
        p = rng.choice((0.15, 0.25, 0.35, 0.5))
        names = [f"a{i:02d}" for i in range(n)]
        rng.shuffle(names)
        # a cycle through every argument leaves them all undecided unless
        # some unattacked argument decides them
        attacks = [(a, b) for a in names for b in names if rng.random() < p]
        attacks += [(a, b) for a, b in zip(names, names[1:] + names[:1]) if rng.random() < 0.8]
        af = toy_af({a: 1 for a in names}, attacks)
        base = arg.grounded(af).labels
        region = sorted(a for a, l in base.items() if l == UNDEC)
        if not region:
            continue
        got, want = arg._region_labellings(af, base, region), _region_labellings(af, base, region)
        assert got == want and _items(got) == _items(want), attacks
        regions.append(len(region))
    assert max(regions) == 12 and len(set(regions)) > 5


@pytest.mark.parametrize("attacks", [
    [],
    [("A", "B"), ("B", "C")],
    # a cycle that the grounded labelling decides
    [("A", "B"), ("B", "A"), ("C", "A"), ("C", "B"), ("C", "D"), ("D", "D")],
])
def test_empty_region_returns_the_shared_labelling_without_a_search(attacks, monkeypatch):
    searches = []
    monkeypatch.setattr(arg, "_region_labellings", lambda *a: searches.append(a))
    labelled = []
    real = arg.grounded
    monkeypatch.setattr(arg, "grounded", lambda af: labelled.append(af) or real(af))
    af = toy_af({a: 1 for a in "ABCD"}, attacks)
    for semantics in (arg.complete, arg.preferred, arg.stable):
        (labelling,) = semantics(af)
        assert labelling is af.grounded_labelling
    assert arg.labellings(af, "grounded") == [af.grounded_labelling]
    assert searches == [] and labelled == [af]


def test_grounded_labelling_is_computed_once_per_subframework(monkeypatch):
    labelled = []
    real = arg.grounded
    monkeypatch.setattr(arg, "grounded", lambda af: labelled.append(af) or real(af))
    af = toy_af({"A": 1, "B": 1, "C": 1}, [("A", "B"), ("B", "A"), ("B", "C")])
    for semantics in ("grounded", "preferred", "stable", "grounded", "preferred"):
        arg.labellings(af, semantics)
    assert labelled == [af]
    # another framework with equal arguments and attacks labels its own
    twin = toy_af({"A": 1, "B": 1, "C": 1}, [("A", "B"), ("B", "A"), ("B", "C")])
    assert twin == af and twin.grounded_labelling is not af.grounded_labelling
    assert labelled == [af, twin]


def test_in_set_is_collected_once():
    lab = Labelling({"A": IN, "B": OUT, "C": UNDEC, "D": IN})
    assert lab.in_set() == {"A", "D"}
    assert lab.in_set() is lab.in_set()
    assert lab == Labelling({"A": IN, "B": OUT, "C": UNDEC, "D": IN})
