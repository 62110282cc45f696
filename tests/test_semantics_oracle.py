"""Exhaustive-enumeration oracle for the labelling semantics.

Every random framework is labelled two ways: by the engine (grounded seed
plus search over the undecided region) and by filtering all 3^n total
labellings through the two reinstatement conditions.  The acceptance suite
runs the full 500-framework version; this module keeps a fast slice plus the
structural inclusion properties.
"""
import itertools
import random

from conftest import attackers_of
from nonmono import argumentation as arg


def random_af(rng: random.Random, n: int, p: float = 0.3):
    names = [f"a{i}" for i in range(n)]
    args = {
        name: arg.Argument(name, "forecast", ((("f", "on"),),), 1, "high")
        for name in names
    }
    attacks = tuple(
        (a, b) for a in names for b in names if a != b and rng.random() < p
    )
    return arg.ArgumentationFramework(args, attacks)


def brute_force_labellings(af):
    names = sorted(af.arguments)
    attackers = attackers_of(af)
    out = []
    for combo in itertools.product(("in", "out", "undec"), repeat=len(names)):
        labels = dict(zip(names, combo))
        ok = True
        for a in names:
            has_in = any(labels[b] == "in" for b in attackers[a])
            all_out = all(labels[b] == "out" for b in attackers[a])
            want = "in" if all_out else ("out" if has_in else "undec")
            if labels[a] != want:
                ok = False
                break
        if ok:
            out.append(labels)
    return out


def as_sets(labellings):
    return {
        (frozenset(a for a, l in lab.items() if l == "in"),
         frozenset(a for a, l in lab.items() if l == "out"))
        for lab in labellings
    }


def check_framework(af):
    oracle = brute_force_labellings(af)
    oracle_sets = as_sets(oracle)
    complete = arg.complete(af)
    assert as_sets([l.labels for l in complete]) == oracle_sets

    grounded = arg.grounded(af)
    by_undec = max(oracle, key=lambda lab: sum(1 for v in lab.values() if v == "undec"))
    assert sum(1 for v in grounded.labels.values() if v == "undec") == \
        sum(1 for v in by_undec.values() if v == "undec")
    assert grounded.labels in oracle

    in_sets = [frozenset(a for a, l in lab.items() if l == "in") for lab in oracle]
    maximal = {s for s in in_sets if not any(s < o for o in in_sets)}
    assert {l.in_set() for l in arg.preferred(af)} == maximal

    oracle_stable = as_sets([lab for lab in oracle
                             if all(v != "undec" for v in lab.values())])
    assert as_sets([l.labels for l in arg.stable(af)]) == oracle_stable

    # structural inclusions: grounded is the unique minimal-in complete
    # labelling, preferred are in-maximal, stable labellings sit among them
    grounded_in = grounded.in_set()
    assert all(grounded_in <= s for s in in_sets)
    for pref in arg.preferred(af):
        assert grounded_in <= pref.in_set()
    for st in arg.stable(af):
        assert st.in_set() in maximal


def run_oracle(count: int, seed: int = 20210115):
    rng = random.Random(seed)
    for i in range(count):
        n = 1 + i % 10
        check_framework(random_af(rng, n))


def test_semantics_match_enumeration_oracle_quick():
    run_oracle(120)
