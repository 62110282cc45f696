import random
from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

from conftest import curve
from nonmono import fuzzy
from nonmono.kb import parse_kb
from nonmono.kb.model import KbValidationError

unit = st.floats(0.0, 1.0)


@pytest.mark.parametrize("ops", fuzzy.OPERATORS.values(), ids=lambda o: o.id)
class TestOperatorAxioms:
    @given(x=unit, y=unit)
    def test_commutative(self, ops, x, y):
        assert abs(ops.t_norm(x, y) - ops.t_norm(y, x)) <= 1e-12
        assert abs(ops.t_conorm(x, y) - ops.t_conorm(y, x)) <= 1e-12

    @given(x=unit, y=unit, z=unit)
    def test_associative(self, ops, x, y, z):
        assert abs(ops.t_norm(ops.t_norm(x, y), z) - ops.t_norm(x, ops.t_norm(y, z))) <= 1e-12
        assert abs(ops.t_conorm(ops.t_conorm(x, y), z) - ops.t_conorm(x, ops.t_conorm(y, z))) <= 1e-12

    @given(x=unit, y=unit, z=unit)
    def test_monotone(self, ops, x, y, z):
        lo, hi = min(y, z), max(y, z)
        assert ops.t_norm(x, lo) <= ops.t_norm(x, hi) + 1e-12
        assert ops.t_conorm(x, lo) <= ops.t_conorm(x, hi) + 1e-12

    @given(x=unit)
    def test_boundary(self, ops, x):
        assert abs(ops.t_norm(x, 1.0) - x) <= 1e-12
        assert abs(ops.t_conorm(x, 0.0) - x) <= 1e-12


def test_operator_values():
    assert fuzzy.OPERATORS["lukasiewicz"].t_norm(0.6, 0.7) == pytest.approx(0.3)
    assert fuzzy.OPERATORS["zadeh"].t_conorm(0.2, 0.9) == 0.9
    assert fuzzy.OPERATORS["product"].t_norm(0.5, 0.5) == 0.25


def test_fuzzify_page_anchor(kb1):
    fv = dict(pages=17, activity=1, anonymous=0, not_minor=0.5, comments=0.5,
              presence=0.5, frequency=0.5, regularity=0.5, bytes=0)
    grades = fuzzy.fuzzify(fv, kb1)
    assert grades[("pages", "medium_high")] == pytest.approx(0.75)


def test_fuzzify_apex_and_outside(kb1):
    fv = dict(pages=14.5, activity=1, anonymous=0, not_minor=0.5, comments=0.125,
              presence=0.5, frequency=0.5, regularity=0.5, bytes=0)
    grades = fuzzy.fuzzify(fv, kb1)
    assert grades[("pages", "medium_high")] == 1.0
    assert grades[("pages", "high")] == 0.0
    assert grades[("comments", "high")] == 0.0  # far outside triangular support


def test_fuzzify_clamps_to_domain(kb1):
    fv = dict(pages=500, activity=1, anonymous=0, not_minor=0.5, comments=0.5,
              presence=0.5, frequency=0.5, regularity=0.5, bytes=-900)
    grades = fuzzy.fuzzify(fv, kb1)
    assert grades[("pages", "high")] == 1.0
    assert grades[("bytes", "low")] == 1.0


def test_gaussian_variant_selected(kb1):
    fv = dict(pages=1, activity=1, anonymous=0, not_minor=0.5, comments=0.875,
              presence=0.5, frequency=0.5, regularity=0.5, bytes=0)
    tri = fuzzy.fuzzify(fv, kb1, "triangular")
    gauss = fuzzy.fuzzify(fv, kb1, "gaussian")
    assert tri[("comments", "high")] == 1.0
    assert gauss[("comments", "high")] == 1.0
    # at a range boundary the gaussian variant reads 0.5 by construction
    fv["comments"] = 0.75
    assert fuzzy.fuzzify(fv, kb1, "gaussian")[("comments", "high")] == pytest.approx(0.5)


def test_full_refutation(kb1):
    fv = dict(pages=17, activity=1, anonymous=1, not_minor=0.5, comments=0.1,
              presence=0.5, frequency=0.5, regularity=0.5, bytes=0)
    ops = fuzzy.OPERATORS["zadeh"]
    grades = fuzzy.fuzzify(fv, kb1)
    necs = fuzzy.initial_necessities(kb1, grades, ops)
    assert necs["U2"] == pytest.approx(0.75)
    resolved = fuzzy.resolve_possibility(kb1, necs, grades, ops)
    assert resolved["U2"] == 0.0


def test_zero_attacker_has_no_impact(kb1):
    fv = dict(pages=17, activity=1, anonymous=0, not_minor=0.5, comments=0.1,
              presence=0.5, frequency=0.5, regularity=0.5, bytes=0)
    ops = fuzzy.OPERATORS["zadeh"]
    grades = fuzzy.fuzzify(fv, kb1)
    assert grades[("anonymous", "yes")] == 0.0
    necs = fuzzy.initial_necessities(kb1, grades, ops)
    resolved = fuzzy.resolve_possibility(kb1, necs, grades, ops)
    assert resolved["U2"] == necs["U2"]


def test_mixed_targets_cap_rule_and_contradiction(mixed_kb):
    # Nec(A) = 0.3 caps S and B at 0.7; B's necessity, min(Nec(R), 0.7),
    # then caps T at 1 - 0.7
    ops = fuzzy.OPERATORS["zadeh"]
    grades = fuzzy.fuzzify({"f": 0.3, "g": 0.9}, mixed_kb)
    necs = fuzzy.initial_necessities(mixed_kb, grades, ops)
    assert necs == {"R": 0.9, "S": 0.9, "T": 0.9}
    resolved = fuzzy.resolve_possibility(mixed_kb, necs, grades, ops)
    assert resolved == {"R": 0.9, "S": 1.0 - 0.3, "T": 1.0 - (1.0 - 0.3)}


@given(data=st.data())
def test_attacks_never_increase_necessity(kb1, kb2, mixed_kb, data):
    for kb in (kb1, kb2, mixed_kb):
        grades = {premise: data.draw(unit) for premise in kb.terms}
        necs = {label: data.draw(unit) for label in kb.rules}
        for ops in fuzzy.OPERATORS.values():
            resolved = fuzzy.resolve_possibility(kb, necs, grades, ops)
            assert list(resolved) == list(necs)
            assert all(0.0 <= resolved[label] <= necs[label] for label in necs)


def test_resolution_idempotent_on_acyclic(kb1, feature_vectors):
    ops = fuzzy.OPERATORS["product"]
    for fv in feature_vectors.values():
        grades = fuzzy.fuzzify(fv, kb1)
        necs = fuzzy.initial_necessities(kb1, grades, ops)
        once = fuzzy.resolve_possibility(kb1, necs, grades, ops)
        twice = fuzzy.resolve_possibility(kb1, once, grades, ops)
        assert twice == once


def _per_contradiction_resolve(kb, necessities, grades, ops):
    """The earlier possibilistic layer, kept as an oracle: each layer takes
    every contradiction's necessity at layer entry, then caps each of its
    targets at ``1 - q``, one contradiction at a time."""
    rule_nec = dict(necessities)
    contra_cap = dict.fromkeys(kb.contradictions, 1.0)
    for layer in kb.layers:
        layer_nec = [
            min(rule_nec[e.rule] if e.premises is None
                else fuzzy.dnf_necessity(e.premises, grades, ops), contra_cap[e.label])
            for e in layer
        ]
        for e, q in zip(layer, layer_nec):
            for target in e.rule_targets:
                rule_nec[target] = min(rule_nec[target], 1.0 - q)
            for target in e.contradiction_targets:
                contra_cap[target] = min(contra_cap[target], 1.0 - q)
    return rule_nec


# A MUTEX pair whose twin M.a is itself targeted, a two-contradiction cycle
# (X, Y) whose members also cap rules, a repeated premise antecedent (P, Q)
# and a group mixing a rule and a contradiction
CYCLE_KB = """
feature f weight 2 domain [0.0, 1.0] {
    term lo = [0.0, 0.5] fmf triangular(0.0, 0.0, 0.5)
    term hi = [0.5, 1.0] fmf triangular(0.5, 1.0, 1.0)
}
feature g weight 5 domain [0.0, 1.0] {
    term lo = [0.0, 0.5] fmf triangular(0.0, 0.0, 0.5)
    term hi = [0.5, 1.0] fmf triangular(0.5, 1.0, 1.0)
}
trustlevel low = [0.0, 0.5] fmf triangular(0.0, 0.0, 0.5)
trustlevel high = [0.5, 1.0] fmf triangular(0.5, 1.0, 1.0)
rule R1: IF f is hi THEN trust is high
rule R2: IF g is lo THEN trust is low
rule R3: IF f is lo AND g is hi THEN trust is high
rule R4: IF f is hi OR g is hi THEN trust is high
rule R5: IF g is hi THEN trust is low
group G = { R3, P }
contradiction M: rule R1 MUTEX rule R2
contradiction P: IF f is hi AND g is lo OR g is hi THEN NOT rule R3
contradiction Q: IF f is hi AND g is lo OR g is hi THEN NOT rule R4, R1
contradiction X: IF rule R5 THEN NOT contradiction Y, R4
contradiction Y: IF g is lo THEN NOT contradiction X, R1
contradiction Z: IF rule R4 THEN NOT contradiction M.a
contradiction W: IF f is lo THEN NOT group G
contradiction V: IF rule R3 THEN NOT rule R5, R2
"""


def test_resolve_possibility_equals_per_contradiction_walk(kb1, kb2, mixed_kb):
    cycle_kb = parse_kb(CYCLE_KB).kb
    assert any(layer.held for layer in cycle_kb.cap_layers)
    rng = random.Random(20101)
    for kb in (kb1, kb2, mixed_kb, cycle_kb):
        for trial in range(60):
            # shared values make attackers tie; 0.0 and 1.0 are the extremes
            pool = (0.0, 1.0, rng.random(), rng.random())
            draw = (lambda: rng.choice(pool)) if trial % 2 else rng.random
            grades = {premise: draw() for premise in kb.terms}
            necs = {label: draw() for label in kb.rules}
            for ops in fuzzy.OPERATORS.values():
                resolved = fuzzy.resolve_possibility(kb, necs, grades, ops)
                oracle = _per_contradiction_resolve(kb, necs, grades, ops)
                assert list(resolved.items()) == list(oracle.items())


def test_apply_rule_weights(kb1):
    necs = {"AN1": 0.7, "U1": 0.7, "C3": 0.5}
    weighted = fuzzy.apply_rule_weights(necs, kb1)
    assert weighted["AN1"] == pytest.approx(0.7)      # weight 8
    assert weighted["U1"] == pytest.approx(0.7 / 8)   # weight 1
    assert weighted["C3"] == pytest.approx(0.5 * 5 / 8)


def test_weight_normalization_over_maximum():
    src = """
feature f weight 0 domain [0.0, 1.0] {
    term on = [0.0, 1.0] fmf crisp(0.0, 1.0)
}
feature g weight 4 domain [0.0, 1.0] {
    term on = [0.0, 1.0] fmf crisp(0.0, 1.0)
}
trustlevel low = [0.0, 1.0] fmf crisp(0.0, 1.0)
rule R: IF f is on THEN trust is low
rule S: IF g is on THEN trust is low
"""
    kb = parse_kb(src).kb
    weighted = fuzzy.apply_rule_weights({"R": 0.7, "S": 0.5}, kb)
    assert weighted["R"] == 0.0
    assert weighted["S"] == pytest.approx(0.25)  # (4/8) * 0.5


def _truths(necessities, kb, variant="triangular"):
    """The unweighted level truths of ``necessities``, by level in KB order."""
    truths = fuzzy.level_truths(kb, necessities, False, variant)
    return dict(zip(truths.levels.names, truths.truths))


def _aggregate(necessities, kb, variant="triangular"):
    """The unweighted level truths of ``necessities``, aggregated."""
    return fuzzy.aggregate_levels(fuzzy.level_truths(kb, necessities, False, variant))


def test_aggregate_levels_disjunctive_max(kb1):
    necs = {label: 0.0 for label in kb1.rules}
    necs["C4"] = 0.2
    necs["AN1"] = 0.7
    truths = _truths(necs, kb1)
    assert truths["high"] == pytest.approx(0.7)
    assert truths["low"] == 0.0
    assert max(curve(_aggregate(necs, kb1))) == pytest.approx(0.7)


def test_aggregate_levels_zero_curve(kb1):
    necs = {label: 0.0 for label in kb1.rules}
    agg = _aggregate(necs, kb1)
    assert max(curve(agg)) == 0.0
    assert fuzzy.defuzzify(agg, "centroid") is None
    assert fuzzy.defuzzify(agg, "mean_of_max") is None


def test_defuzzify_rejects_unknown_method(kb1):
    flat = _aggregate({label: 0.0 for label in kb1.rules}, kb1)
    peaked = _aggregate({"AN1": 0.7}, kb1)
    assert curve(flat) == (0.0,) * fuzzy.DEFAULT_RESOLUTION
    assert max(curve(peaked)) > 0.0
    for agg in (flat, peaked):
        with pytest.raises(ValueError, match="unknown defuzzification method 'bogus'"):
            fuzzy.defuzzify(agg, "bogus")


def test_aggregate_levels_unclipped(kb1):
    necs = {label: 0.0 for label in kb1.rules}
    necs["AN1"] = 1.0
    agg = _aggregate(necs, kb1)
    fmf = kb1.trust_levels["high"].fmf("triangular")
    assert all(m == pytest.approx(max(fmf(x), 0.0)) for x, m in zip(fuzzy._GRID, curve(agg)))


class _Walk(NamedTuple):
    level_truths: dict
    xs: tuple
    mu: tuple


def _grid_walk(necessities, kb, variant, resolution=fuzzy.DEFAULT_RESOLUTION):
    """Aggregation as a per-point walk: every level function evaluated at
    every grid point, clipped at its level's truth, maximised over levels."""
    truths = {level: 0.0 for level in kb.trust_levels}
    for label, nec in necessities.items():
        level = kb.rules[label].consequent_level
        truths[level] = max(truths[level], nec)
    xs = tuple(i / (resolution - 1) for i in range(resolution))
    fmfs = {level: tl.fmf(variant) for level, tl in kb.trust_levels.items()}
    mu = tuple(
        max((min(truths[level], fmfs[level](x)) for level in truths), default=0.0)
        for x in xs
    )
    return _Walk(truths, xs, mu)


@pytest.mark.parametrize("variant", ["triangular", "gaussian"])
@pytest.mark.parametrize("kb_name", ["kb1", "kb2"])
def test_aggregate_levels_equals_grid_walk(request, kb_name, variant):
    kb = request.getfixturevalue(kb_name)
    rng = random.Random(f"{kb_name}-{variant}")
    # the curves' own grid values put a truth exactly on a curve point, a
    # plateau or a peak, where clipping switches between truth and curve
    grid_values = sorted({m for tl in kb.trust_levels.values()
                          for m in map(tl.fmf(variant), fuzzy._GRID)})
    draws = [lambda: 0.0, lambda: 1.0, rng.random,
             lambda: rng.choice((0.0, 1.0, rng.random())),
             lambda: rng.choice(grid_values), lambda: grid_values[-1],
             lambda: rng.choice(grid_values[-3:])]
    for trial in range(28):
        draw = draws[trial % len(draws)]
        necs = {label: draw() for label in kb.rules}
        agg = _aggregate(necs, kb, variant)
        walk = _grid_walk(necs, kb, variant)
        assert _truths(necs, kb, variant) == walk.level_truths
        assert fuzzy._GRID == walk.xs
        _assert_defuzzified_like_walk(agg, walk)


def _assert_defuzzified_like_walk(agg, walk):
    """``defuzzify`` on the aggregate's pieces equals the old
    defuzzification of the walk, and the curve the pieces make is the
    walk's."""
    for method in ("centroid", "mean_of_max"):
        assert fuzzy.defuzzify(agg, method) == _walk_defuzzify(walk, method)
    assert curve(agg) == walk.mu


def _walk_defuzzify(walk, method):
    """The earlier defuzzification, kept as an oracle: generator sums over
    the grid, left to right."""
    peak = max(walk.mu, default=0.0)
    if peak <= 0.0:
        return None
    if method == "centroid":
        area = sum(walk.mu)
        return sum(x * m for x, m in zip(walk.xs, walk.mu)) / area
    top = [x for x, m in zip(walk.xs, walk.mu) if m >= peak - fuzzy.MAX_TIE_EPS]
    return sum(top) / len(top)


def _random_fmf(rng):
    shape = rng.choice(("triangular", "trapezoidal", "crisp", "gaussian"))
    if shape == "gaussian":
        return f"gaussian({rng.uniform(-0.1, 1.1)!r}, {rng.uniform(0.02, 0.5)!r})"
    arity = {"triangular": 3, "trapezoidal": 4, "crisp": 2}[shape]
    # rounded points fall on grid points and repeat one another
    points = sorted(round(rng.uniform(-0.1, 1.1), rng.choice((2, 3, 17))) for _ in range(arity))
    return f"{shape}({', '.join(map(repr, points))})"


def _random_level_kb(rng):
    """1-6 levels of mixed shapes, one rule each; some repeat an earlier
    level's function, and some are a wide low trapezoid with a narrow tall
    triangle or gaussian inside it, whose clipped curves cross twice."""
    k = rng.randint(1, 6)
    fmfs = []
    while len(fmfs) < k:
        roll = rng.random()
        if roll < 0.15 and k - len(fmfs) >= 2:
            c = rng.uniform(0.2, 0.8)
            fmfs.append(f"trapezoidal({c - 0.5!r}, {c - 0.3!r}, {c + 0.3!r}, {c + 0.5!r})")
            fmfs.append(rng.choice((f"triangular({c - 0.05!r}, {c!r}, {c + 0.07!r})",
                                    f"gaussian({c + 0.01!r}, 0.03)")))
        elif roll < 0.25 and fmfs:
            fmfs.append(rng.choice(fmfs))
        else:
            fmfs.append(_random_fmf(rng))
    lines = ["feature f weight 1 domain [0.0, 1.0] {",
             "    term on = [0.0, 1.0] fmf crisp(0.0, 1.0)", "}"]
    for i, fmf in enumerate(fmfs):
        lines.append(f"trustlevel L{i} = [{i / k!r}, {(i + 1) / k!r}] fmf {fmf}")
        lines.append(f"rule R{i}: IF f is on THEN trust is L{i}")
    return parse_kb("\n".join(lines)).kb


def test_aggregate_levels_envelope_on_random_level_sets():
    rng = random.Random(20102)
    for _ in range(60):
        kb = _random_level_kb(rng)
        labels = list(kb.rules)
        grid_values = sorted({m for tl in kb.trust_levels.values()
                              for m in map(tl.fmf(), fuzzy._GRID)})
        shared = rng.random()
        draws = [
            lambda: {label: 0.0 for label in labels},
            lambda: {label: shared for label in labels},
            lambda: {label: rng.choice(grid_values) for label in labels},
            lambda: {label: rng.choice((0.0, 1.0, rng.random())) for label in labels},
            lambda: dict.fromkeys(labels, 0.0) | {rng.choice(labels): rng.random()},
            lambda: {label: rng.random() for label in labels},
            lambda: {label: rng.choice((0.4, 1.0)) for label in labels},
        ]
        for draw in draws:
            necs = draw()
            agg = _aggregate(necs, kb)
            walk = _grid_walk(necs, kb, "triangular")
            assert list(_truths(necs, kb).items()) == list(walk.level_truths.items())
            _assert_defuzzified_like_walk(agg, walk)


def test_level_curve_must_be_unimodal():
    with pytest.raises(KbValidationError, match="not unimodal"):
        fuzzy._level_curve(lambda x: 1.0 if 0.2 <= x <= 0.3 or 0.6 <= x <= 0.7 else 0.0)
    def plateau(x):
        return min(1.0, 4 * x, 4 - 4 * x)

    points, left, rrev, xc = fuzzy._level_curve(plateau)
    assert len(left) + len(rrev) == len(points) == fuzzy.DEFAULT_RESOLUTION
    assert xc == tuple(x * m for x, m in zip(fuzzy._GRID, points))
    for truth in (0.0, 0.5, 1.0, 1.5):
        level = fuzzy._clipped_level(fuzzy._level_curve(plateau), truth)
        clipped = tuple(min(truth, m) for m in points)
        for p, q in ((0, len(points)), (0, 1), (100, 400), (240, 260), (600, len(points))):
            assert fuzzy._slice(level, p, q) == clipped[p:q]


def test_centroid_symmetry(kb1):
    src = """
feature f weight 1 domain [0.0, 1.0] {
    term on = [0.0, 1.0] fmf crisp(0.0, 1.0)
}
trustlevel mid = [0.0, 1.0] fmf triangular(0.0, 0.5, 1.0)
rule R: IF f is on THEN trust is mid
"""
    kb = parse_kb(src).kb
    agg = _aggregate({"R": 1.0}, kb)
    assert fuzzy.defuzzify(agg, "centroid") == pytest.approx(0.5, abs=1e-3)
    assert fuzzy.defuzzify(agg, "mean_of_max") == pytest.approx(0.5, abs=1e-9)


def test_mean_of_max_plateau():
    src = """
feature f weight 1 domain [0.0, 1.0] {
    term on = [0.0, 1.0] fmf crisp(0.0, 1.0)
}
trustlevel band = [0.0, 1.0] fmf trapezoidal(0.4, 0.6, 0.8, 1.0)
rule R: IF f is on THEN trust is band
"""
    kb = parse_kb(src).kb
    agg = _aggregate({"R": 1.0}, kb)
    mu = curve(agg)
    xs = [x for x, m in zip(fuzzy._GRID, mu) if m >= max(mu) - 1e-9]
    oracle = sum(xs) / len(xs)  # discretized plateau mean
    assert fuzzy.defuzzify(agg, "mean_of_max") == pytest.approx(oracle)
    assert oracle == pytest.approx(0.7, abs=1e-6)


def test_centroid_converges_with_resolution(kb1, feature_vectors):
    fv = feature_vectors["bob"]
    ops = fuzzy.OPERATORS["zadeh"]
    grades = fuzzy.fuzzify(fv, kb1)
    necs = fuzzy.resolve_possibility(kb1, fuzzy.initial_necessities(kb1, grades, ops),
                                     grades, ops)
    coarse = fuzzy.defuzzify(_aggregate(necs, kb1), "centroid")
    fine = _walk_defuzzify(_grid_walk(necs, kb1, "triangular", 2002), "centroid")
    assert abs(coarse - fine) <= 2 / 1001


def test_output_in_unit_interval(kb1, kb2, feature_vectors):
    for kb in (kb1, kb2):
        for fv in feature_vectors.values():
            grades = fuzzy.fuzzify(fv, kb, "gaussian")
            for op in fuzzy.OPERATORS:
                necs = fuzzy.resolved_necessities(kb, grades, op)
                agg = fuzzy.aggregate_levels(fuzzy.level_truths(kb, necs, True, "gaussian"))
                for method in ("centroid", "mean_of_max"):
                    out = fuzzy.defuzzify(agg, method)
                    assert out is None or 0.0 <= out <= 1.0

