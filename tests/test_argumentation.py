import itertools
import math
import random
import sys
import traceback

import pytest

from conftest import attackers_of
from nonmono import argumentation as arg
from nonmono import expert
from nonmono.kb import parse_kb

PHI = (math.sqrt(5) - 1) / 2


def toy_af(strengths: dict[str, int], attacks):
    args = {
        label: arg.Argument(label, "forecast", ((("f", "on"),),), s, "high", rule=label)
        for label, s in strengths.items()
    }
    return arg.ArgumentationFramework(args, tuple(attacks))


def test_build_af_counts(kb1):
    af = arg.build_af(kb1)
    forecast = [a for a in af.arguments.values() if a.kind == "forecast"]
    mitigating = [a for a in af.arguments.values() if a.kind == "mitigating"]
    assert len(forecast) == 29
    assert len(mitigating) == 43
    assert ("CC1", "B1") in af.attacks
    assert ("Bot.b", "U3") in af.attacks
    assert af.arguments["CC1"].attack_kind == "undermining"
    assert af.arguments["Bot.b"].attack_kind == "undercutting"
    # unresolved Bot.a target produces the argument but no attack
    assert "Bot.a" in af.arguments
    assert all(src != "Bot.a" for src, _t in af.attacks)


def test_build_af_empty():
    src = """
feature f weight 1 domain [0.0, 1.0] {
    term on = [0.0, 1.0] fmf crisp(0.0, 1.0)
}
trustlevel low = [0.0, 1.0] fmf crisp(0.0, 1.0)
"""
    af = arg.build_af(parse_kb(src).kb)
    assert af.arguments == {} and af.attacks == ()


def test_build_af_kb2_rebuttals(kb2):
    af = arg.build_af(kb2)
    forecast = [a for a in af.arguments.values() if a.kind == "forecast"]
    mitigating = [a for a in af.arguments.values() if a.kind == "mitigating"]
    assert len(forecast) == 29
    assert len(mitigating) == 55          # directed rows only; mutual rows collapse
    rebuttals = [(s, t) for s, t in af.attacks if af.arguments[s].attack_kind == "rebuttal"]
    assert len(rebuttals) == 2 * 252
    for src, tgt in rebuttals:
        assert (tgt, src) in af.attacks
        assert af.arguments[src].kind == "forecast"
        assert af.arguments[tgt].kind == "forecast"


def test_build_af_mixed_targets(mixed_kb):
    # A's premises undercut rule S and contradiction B; B's rule R undermines T
    af = arg.build_af(mixed_kb)
    assert af.attacks == (("A", "S"), ("A", "B"), ("B", "T"))
    assert af.arguments["A"].attack_kind == "undercutting"
    assert af.arguments["B"].attack_kind == "undermining"
    assert af.arguments["B"].premises == mixed_kb.rules["R"].antecedent


def test_elicit_strength_filter(kb1):
    src_feats = {"f": 0.5}
    src = """
feature f weight 1 domain [0.0, 1.0] {
    term on = [0.0, 1.0] fmf crisp(0.0, 1.0)
}
trustlevel low = [0.0, 1.0] fmf crisp(0.0, 1.0)
rule A: IF f is on THEN trust is low
rule B: IF f is on THEN trust is low
"""
    kb = parse_kb(src).kb
    af = toy_af({"A": 5, "B": 3}, [("A", "B"), ("B", "A")])
    valuation = expert.valuation(kb, src_feats)
    kept = arg.elicit_subaf(af, valuation, use_strength=True)
    assert ("A", "B") in kept.attacks
    assert ("B", "A") not in kept.attacks
    binary = arg.elicit_subaf(af, valuation, use_strength=False)
    assert set(binary.attacks) == {("A", "B"), ("B", "A")}


def test_elicit_drops_inactive_endpoints(kb1):
    fv = dict(pages=1, activity=1, anonymous=1, not_minor=0.5, comments=0.1,
              presence=0.5, frequency=0.5, regularity=0.5, bytes=50)
    af = arg.build_af(kb1)
    sub = arg.elicit_subaf(af, expert.valuation(kb1, fv))
    # CC17 attacks C4; C4 inactive here, so the attack must be gone
    assert "CC17" in sub.arguments
    assert all(t != "C4" for _s, t in sub.attacks)


def test_strength_scaling_invariance(kb1):
    src = """
feature f weight 1 domain [0.0, 1.0] {
    term on = [0.0, 1.0] fmf crisp(0.0, 1.0)
}
trustlevel low = [0.0, 1.0] fmf crisp(0.0, 1.0)
rule A: IF f is on THEN trust is low
rule B: IF f is on THEN trust is low
rule C: IF f is on THEN trust is low
"""
    kb = parse_kb(src).kb
    attacks = [("A", "B"), ("B", "C"), ("C", "A"), ("B", "A")]
    base = toy_af({"A": 1, "B": 4, "C": 2}, attacks)
    scaled = toy_af({"A": 3, "B": 12, "C": 6}, attacks)
    valuation = expert.valuation(kb, {"f": 0.5})
    kept_base = arg.elicit_subaf(base, valuation, use_strength=True).attacks
    kept_scaled = arg.elicit_subaf(scaled, valuation, use_strength=True).attacks
    assert kept_base == kept_scaled


def test_grounded_chain():
    af = toy_af({"A": 1, "B": 1, "C": 1}, [("A", "B"), ("B", "C")])
    lab = arg.grounded(af)
    assert lab.labels == {"A": "in", "B": "out", "C": "in"}


def test_grounded_mutual_undecided():
    af = toy_af({"A": 1, "B": 1}, [("A", "B"), ("B", "A")])
    assert arg.grounded(af).undec_set() == {"A", "B"}


def test_grounded_no_attacks_all_in():
    af = toy_af({"A": 1, "B": 1}, [])
    assert arg.grounded(af).in_set() == {"A", "B"}


def test_preferred_mutual_pair():
    af = toy_af({"A": 1, "B": 1}, [("A", "B"), ("B", "A")])
    in_sets = sorted(sorted(l.in_set()) for l in arg.preferred(af))
    assert in_sets == [["A"], ["B"]]


def test_odd_cycle_semantics():
    af = toy_af({"A": 1, "B": 1, "C": 1}, [("A", "B"), ("B", "C"), ("C", "A")])
    assert [l.in_set() for l in arg.preferred(af)] == [frozenset()]
    assert arg.stable(af) == []


def test_no_attacks_single_stable():
    af = toy_af({"A": 1, "B": 1}, [])
    pref = arg.preferred(af)
    assert len(pref) == 1 and pref[0].in_set() == {"A", "B"}
    assert len(arg.stable(af)) == 1


def test_enumeration_cap():
    n = 30
    attacks = [(f"a{i}", f"a{(i + 1) % n}") for i in range(n)]
    attacks += [(f"a{(i + 1) % n}", f"a{i}") for i in range(n)]
    af = toy_af({f"a{i}": 1 for i in range(n)}, attacks)
    with pytest.raises(arg.FrameworkTooLargeError, match="grounded or"):
        arg.preferred(af)


def _three_way_complete(af):
    """The earlier enumeration, kept as an order oracle: each argument of
    the sorted grounded-undec region is branched over in/out/undec (in only
    while no attacker is in yet) and each total labelling is checked."""
    attackers = attackers_of(af)
    base = arg.grounded(af).labels
    region = sorted(a for a, l in base.items() if l == arg.UNDEC)
    results = []
    assignment = {}

    def valid(labels):
        for a, lab in labels.items():
            has_in = any(labels[b] == arg.IN for b in attackers[a])
            all_out = all(labels[b] == arg.OUT for b in attackers[a])
            if lab != (arg.IN if all_out else arg.OUT if has_in else arg.UNDEC):
                return False
        return True

    def search(i):
        if i == len(region):
            labels = dict(base)
            labels.update(assignment)
            if valid(labels):
                results.append(arg.Labelling(labels))
            return
        a = region[i]
        for lab in (arg.IN, arg.OUT, arg.UNDEC):
            if lab == arg.IN and any(assignment.get(b, base[b]) == arg.IN
                                     for b in attackers[a]):
                continue
            assignment[a] = lab
            search(i + 1)
            del assignment[a]

    search(0)
    return results


def test_complete_order_matches_three_way_walk():
    # preferred, stable and accrue_extensions read the labellings in order
    rng = random.Random(20061)
    for _ in range(300):
        n = rng.randint(1, 10)
        p = rng.choice((0.15, 0.25, 0.4))
        names = [f"a{i}" for i in range(n)]
        attacks = [(a, b) for a in names for b in names if rng.random() < p]
        af = toy_af({a: 1 for a in names}, attacks)
        assert arg.complete(af) == _three_way_complete(af)


def test_complete_wide_region_order():
    # 8 disjoint mutual attacks: a 16-argument undecided region
    names = [f"a{i:02d}" for i in range(16)]
    pairs = list(zip(names[::2], names[1::2]))
    attacks = [e for a, b in pairs for e in ((a, b), (b, a))]
    af = toy_af({a: 1 for a in names}, attacks)
    pair_labels = ((arg.IN, arg.OUT), (arg.OUT, arg.IN), (arg.UNDEC, arg.UNDEC))

    def expected(choices):
        return [
            {x: lab for pair, pick in zip(pairs, combo) for x, lab in zip(pair, pick)}
            for combo in itertools.product(choices, repeat=len(pairs))
        ]

    complete = arg.complete(af)
    assert len(complete) == 3 ** 8
    assert [l.labels for l in complete] == expected(pair_labels)
    preferred = arg.preferred(af)
    assert len(preferred) == 2 ** 8
    assert [l.labels for l in preferred] == expected(pair_labels[:2])


def test_categoriser_values():
    assert arg.categoriser(toy_af({"A": 1}, []))["A"] == 1.0
    chain = arg.categoriser(toy_af({"A": 1, "B": 1}, [("B", "A")]))
    assert chain["A"] == 0.5 and chain["B"] == 1.0
    mutual = arg.categoriser(toy_af({"A": 1, "B": 1}, [("A", "B"), ("B", "A")]))
    assert mutual["A"] == pytest.approx(PHI, abs=1e-6)
    assert mutual["B"] == pytest.approx(PHI, abs=1e-6)


def test_categoriser_residual():
    af = toy_af({c: 1 for c in "ABCDE"},
                [("A", "B"), ("B", "A"), ("B", "C"), ("C", "D"), ("D", "E"), ("E", "C")])
    scores = arg.categoriser(af)
    attackers = attackers_of(af)
    for a, s in scores.items():
        expected = 1.0 if not attackers[a] else 1.0 / (1.0 + sum(scores[b] for b in attackers[a]))
        assert abs(s - expected) < 1e-9
        assert 0.0 < s <= 1.0


def _dict_categoriser(af):
    """The earlier categoriser, kept as an order oracle: damped Jacobi that
    rebuilds a dict over every argument each round."""
    attackers = attackers_of(af)

    def apply(scores):
        return {
            a: 1.0 if not attackers[a] else 1.0 / (1.0 + sum(scores[b] for b in attackers[a]))
            for a in af.arguments
        }

    scores = {a: 1.0 for a in af.arguments}
    for _ in range(arg.CAT_MAX_ITER):
        nxt = apply(scores)
        residual = max((abs(nxt[a] - scores[a]) for a in scores), default=0.0)
        if residual < arg.CAT_TOLERANCE / 2:
            return apply(scores)
        scores = {a: scores[a] + arg.CAT_DAMPING * (nxt[a] - scores[a]) for a in scores}
    raise RuntimeError("oracle did not converge")


def _fixpoint_grounded(af):
    """The earlier grounded labelling, kept as an order oracle: passes over
    every unlabelled argument until none changes."""
    attackers = attackers_of(af)
    labels = {}
    changed = True
    while changed:
        changed = False
        for a in af.arguments:
            if a in labels:
                continue
            if all(labels.get(b) == arg.OUT for b in attackers[a]):
                labels[a] = arg.IN
                changed = True
            elif any(labels.get(b) == arg.IN for b in attackers[a]):
                labels[a] = arg.OUT
                changed = True
    return arg.Labelling({a: labels.get(a, arg.UNDEC) for a in af.arguments})


def _random_frameworks(seed, count):
    """Frameworks of 1-14 arguments with self-attacks, odd cycles and
    repeated attacks, attacks in shuffled order."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 14)
        names = [f"a{i}" for i in range(n)]
        rng.shuffle(names)
        p = rng.choice((0.1, 0.2, 0.35))
        attacks = [(a, b) for a in names for b in names if rng.random() < p]
        if n >= 3 and rng.random() < 0.5:
            x, y, z = rng.sample(names, 3)
            attacks += [(x, y), (y, z), (z, x)]
        attacks += [rng.choice(attacks) for _ in range(rng.randint(0, 3))] if attacks else []
        rng.shuffle(attacks)
        yield toy_af({a: 1 for a in names}, attacks)


def _fixture_subafs(kbs, feature_vectors):
    for kb in kbs:
        for fv in feature_vectors.values():
            for use_strength in (False, True):
                yield arg.elicit_subaf(kb.framework, expert.valuation(kb, fv), use_strength)


def test_categoriser_matches_dict_jacobi(kb1, kb2, feature_vectors):
    # same bits and key order as the dict-per-round iteration
    subafs = [*_random_frameworks(2001, 1500), *_fixture_subafs((kb1, kb2), feature_vectors)]
    for af in subafs:
        assert list(arg.categoriser(af).items()) == list(_dict_categoriser(af).items())


def test_grounded_matches_fixpoint(kb1, kb2, feature_vectors):
    subafs = [*_random_frameworks(1995, 1500), *_fixture_subafs((kb1, kb2), feature_vectors)]
    for af in subafs:
        assert list(arg.grounded(af).labels.items()) == \
            list(_fixpoint_grounded(af).labels.items())


def test_grounded_long_chain_linear():
    # a0 -> a1 -> ... declared target-first: the fixpoint needed a pass per link
    n = 10_000
    names = [f"a{i}" for i in range(n)]
    af = toy_af({a: 1 for a in reversed(names)}, zip(names, names[1:]))
    want = [(a, arg.OUT if i % 2 else arg.IN) for i, a in reversed(list(enumerate(names)))]
    depth = sum(1 for _ in traceback.walk_stack(None))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        labels = arg.grounded(af).labels
        complete = arg.complete(af)
    finally:
        sys.setrecursionlimit(limit)
    assert list(labels.items()) == want
    assert [list(l.labels.items()) for l in complete] == [want]


def test_accrue_largest_extension():
    af = toy_af({"A": 1, "B": 1, "C": 1}, [])
    labellings = [
        arg.Labelling({"A": "in", "B": "in", "C": "out"}),
        arg.Labelling({"A": "out", "B": "out", "C": "in"}),
    ]
    values = {"A": 0.2, "B": 0.4, "C": 0.9}
    assert arg.accrue_extensions(af, labellings, values, False) == pytest.approx(0.3)


def test_accrue_tied_extensions_mean():
    af = toy_af({"A": 1, "B": 1}, [("A", "B"), ("B", "A")])
    labellings = arg.preferred(af)
    values = {"A": 0.2, "B": 0.8}
    assert arg.accrue_extensions(af, labellings, values, False) == pytest.approx(0.5)


def test_accrue_empty_grounded_is_na():
    af = toy_af({"A": 1, "B": 1}, [("A", "B"), ("B", "A")])
    lab = arg.grounded(af)
    assert arg.accrue_extensions(af, [lab], {"A": 0.2, "B": 0.8}, False) is None


def test_accrue_categoriser_top_rank():
    af = toy_af({"A": 1, "B": 1, "C": 1}, [("B", "C")])
    scores = arg.categoriser(af)
    values = {"A": 0.3, "B": 0.9, "C": 0.1}
    # A and B share the top score 1.0; C is ranked below
    assert arg.accrue_categoriser(af, scores, values, False) == pytest.approx(0.6)


def test_accrue_weighted_by_strength():
    af = toy_af({"A": 3, "B": 1}, [])
    lab = arg.grounded(af)
    out = arg.accrue_extensions(af, [lab], {"A": 0.2, "B": 0.8}, True)
    assert out == pytest.approx((0.2 * 3 + 0.8) / 4)


def test_binary_accrual_matches_expert_h3(kb1, kb2, feature_vectors):
    # with every contradiction removed the two engines must coincide
    from nonmono.kb.model import KnowledgeBase

    for kb in (kb1, kb2):
        bare = KnowledgeBase(kb.id, kb.features, kb.trust_levels, kb.rules, {})
        for fv in feature_vectors.values():
            survivors, _discarded = expert.resolve_contradictions(bare, expert.valuation(bare, fv))
            h3 = expert.aggregate(survivors, "h3")
            for semantics in ("grounded", "preferred", "categoriser", "stable"):
                out = arg.run_argumentation(bare, fv, semantics, False).trust
                assert out == pytest.approx(h3, abs=1e-12)


def test_grounded_in_forecast_vs_expert_survivors(kb1, kb2, feature_vectors):
    # an expert survivor has no activated attacker at all, so its argument is
    # unattacked and grounded-accepted; the converse holds only without
    # rebuttal pairs (grounded reinstates a rule whose mutual attacker was
    # itself defeated, the snapshot retraction does not)
    for kb, exact in ((kb1, True), (kb2, False)):
        af = arg.build_af(kb)
        for fv in feature_vectors.values():
            valuation = expert.valuation(kb, fv)
            survivors = {r.rule_label for r in expert.resolve_contradictions(kb, valuation)[0]}
            sub = arg.elicit_subaf(af, valuation)
            lab = arg.grounded(sub)
            in_forecast = {a for a in lab.in_set() if sub.arguments[a].kind == "forecast"}
            if exact:
                assert in_forecast == survivors
            else:
                assert survivors <= in_forecast


def test_explain_structure(kb1, feature_vectors):
    outcome = arg.run_argumentation(kb1, feature_vectors["alice"], "preferred", False)
    trace = outcome.trace()
    assert list(trace) == ["activated_arguments", "kept_attacks", "forecast_values",
                           "labellings", "trust"]
    assert trace["trust"] is not None and trace["trust"] == outcome.trust
