import logging

import pytest
from hypothesis import given, strategies as st

from conftest import crisp_valuation
from nonmono import expert
from nonmono.evaluation import MODEL_REGISTRY, run_model
from nonmono.ingest import EditorFeatures
from nonmono.kb import parse_kb

BASE = dict(pages=1, activity=1, anonymous=0, not_minor=0.1, comments=0.1,
            presence=0.5, frequency=0.5, regularity=0.5, bytes=50)


def vec(**overrides):
    out = dict(BASE)
    out.update(overrides)
    return out


def test_single_premise_activation(kb1):
    act = expert.activate_rules(kb1, vec(comments=0.8))["C4"].activation
    assert act == expert.Activation(v=0.8, r_min=0.75, r_max=1.0)
    assert "C4" not in expert.activate_rules(kb1, vec(comments=0.5))


def test_conjunction_takes_min(kb1):
    dnf = ((("comments", "low"), ("presence", "low")),)
    act = expert.activation(expert.crisp_dnf(kb1, dnf), vec(comments=0.2, presence=0.05))
    assert act.v == 0.05


def test_disjunction_takes_max_of_each_quantity(kb1):
    dnf = ((("comments", "low"), ("presence", "low")), (("pages", "high"),))
    test = expert.crisp_dnf(kb1, dnf)
    # pages is saturated above 40: the value is clamped to the bound
    assert expert.activation(test, vec(comments=0.2, presence=0.05, pages=100)) == \
        expert.Activation(v=40.0, r_min=20.0, r_max=40.0)
    assert expert.activation(test, vec(comments=0.2, presence=0.05)) == \
        expert.Activation(v=0.05, r_min=0.0, r_max=0.25)
    assert expert.activation(test, vec(comments=0.3, presence=0.05)) is None


def test_missing_feature_named(caplog):
    """A KB reading a feature the vector lacks is rejected once, before any
    editor, whichever engine reads it; no editor becomes an NA."""
    kb = parse_kb("""
feature karma weight 1 domain [0.0, 1.0] {
    term on = [0.0, 1.0] fmf crisp(0.0, 1.0)
}
trustlevel all = [0.0, 1.0] fmf crisp(0.0, 1.0)
rule R: IF karma is on THEN trust is all
""").kb
    editors = [EditorFeatures("x", **BASE)]
    for mid in ("E1", "FL1", "A1"):
        with pytest.raises(expert.MissingFeatureError,
                           match="knowledge base KB1: feature 'karma' missing"):
            run_model(MODEL_REGISTRY[mid], kb, editors)
    assert caplog.records == []


def test_rule_value_anchors():
    assert expert.rule_value(0.75, 0.75, 1.0, 0.75, 1.0) == 0.75
    assert expert.rule_value(1.0, 0.75, 1.0, 0.75, 1.0) == 1.0
    # contrary linear consequent
    assert expert.rule_value(0.25, 0.0, 1.0, 1.0, 0.0) == 0.75
    # constant consequent and degenerate premise range
    assert expert.rule_value(0.4, 0.0, 1.0, 0.6, 0.6) == 0.6
    assert expert.rule_value(1.0, 1.0, 1.0, 0.0, 0.25) == 0.25


@given(st.floats(0.1, 0.9), st.floats(0.1, 0.9))
def test_rule_value_monotone(v1, v2):
    lo, hi = min(v1, v2), max(v1, v2)
    assert expert.rule_value(lo, 0.0, 1.0, 0.2, 0.9) <= expert.rule_value(hi, 0.0, 1.0, 0.2, 0.9)
    assert expert.rule_value(lo, 0.0, 1.0, 0.9, 0.2) >= expert.rule_value(hi, 0.0, 1.0, 0.9, 0.2)


def test_value_within_consequent_range(kb1, feature_vectors):
    for fv in feature_vectors.values():
        for act in expert.activate_rules(kb1, fv).values():
            lo, hi = kb1.trust_levels[act.consequent_level].lower, kb1.trust_levels[act.consequent_level].upper
            assert lo <= act.value <= hi


def test_contradiction_discards_rule(kb1):
    fv = vec(not_minor=0.01, bytes=1000)  # NM1 and B1 both active
    surviving, discarded = expert.resolve_contradictions(kb1, crisp_valuation(kb1, fv))
    assert ("B1", "CC1") in discarded
    assert all(r.rule_label != "B1" for r in surviving)


def test_no_contradictions_keeps_all(kb1):
    fv = vec(comments=0.8, bytes=1000)  # nothing anonymous, nothing flagged low
    valuation = crisp_valuation(kb1, fv)
    surviving, discarded = expert.resolve_contradictions(kb1, valuation)
    assert discarded == ()
    assert surviving == tuple(valuation.activated.values())


def test_mutual_contradictions_discard_both():
    src = """
feature f weight 1 domain [0.0, 1.0] {
    term on = [0.0, 1.0] fmf crisp(0.0, 1.0)
}
feature g weight 2 domain [0.0, 1.0] {
    term on = [0.0, 1.0] fmf crisp(0.0, 1.0)
}
trustlevel low = [0.0, 0.5] fmf crisp(0.0, 0.5)
trustlevel high = [0.5, 1.0] fmf crisp(0.5, 1.0)
rule X: IF f is on THEN trust is low
rule Y: IF g is on THEN trust is high
contradiction M: rule X MUTEX rule Y
"""
    kb = parse_kb(src).kb
    fv = {"f": 0.5, "g": 0.5}
    surviving, discarded = expert.resolve_contradictions(kb, crisp_valuation(kb, fv))
    assert surviving == ()
    assert expert.aggregate(surviving, "h3") is None
    assert {d[0] for d in discarded} == {"X", "Y"}


def test_snapshot_keeps_same_layer_antecedents(kb1):
    # anonymous with everything low: CC28 retracts NM2 in layer 0, yet CC3
    # still fires from the state at layer entry and disarms OnlyAge, so P2
    # survives
    fv = vec(anonymous=1, not_minor=0.6, comments=0.8, presence=0.3,
             frequency=0.1, regularity=0.1, activity=2, pages=1, bytes=50)
    surviving, discarded = expert.resolve_contradictions(kb1, crisp_valuation(kb1, fv))
    assert ("NM2", "CC28") in discarded
    assert any(r.rule_label == "P2" for r in surviving)
    assert all(d[1] != "OnlyAge.c" for d in discarded)


def test_discarded_rule_cannot_fire_downstream():
    # A kills rule R in layer 0; B (layer 1, fed by R) must not fire
    src = """
feature f weight 1 domain [0.0, 1.0] {
    term on = [0.0, 1.0] fmf crisp(0.0, 1.0)
}
trustlevel low = [0.0, 0.5] fmf crisp(0.0, 0.5)
trustlevel high = [0.5, 1.0] fmf crisp(0.5, 1.0)
rule R: IF f is on THEN trust is low
rule S: IF f is on THEN trust is high
contradiction A: IF f is on THEN NOT contradiction B
contradiction B: IF rule R THEN NOT rule S
"""
    kb = parse_kb(src).kb
    surviving, _discarded = expert.resolve_contradictions(kb, crisp_valuation(kb, {"f": 0.5}))
    assert {r.rule_label for r in surviving} == {"R", "S"}


def test_mixed_targets_retract_rule_and_contradiction(mixed_kb):
    # A fires in layer 0: it retracts rule S and disarms B, so T survives
    valuation = crisp_valuation(mixed_kb, {"f": 0.3, "g": 0.9})
    surviving, discarded = expert.resolve_contradictions(mixed_kb, valuation)
    assert discarded == (("S", "A"),)
    assert [r.rule_label for r in surviving] == ["R", "T"]


def mk_rule(label, value, level, weight=1):
    return expert.ActivatedRule(label, expert.Activation(0, 0, 1), value, level, weight)


def test_aggregate_h3_mean():
    rules = [mk_rule("a", 0.2, "low"), mk_rule("b", 0.4, "low"), mk_rule("c", 0.9, "high")]
    assert expert.aggregate(rules, "h3") == pytest.approx(0.5)


def test_aggregate_h1_largest_group():
    rules = [mk_rule("a", 0.8, "high"), mk_rule("b", 0.9, "high"), mk_rule("c", 0.1, "low")]
    assert expert.aggregate(rules, "h1") == pytest.approx(0.85)


def test_aggregate_h1_tie_means_of_means():
    rules = [mk_rule("a", 0.2, "low"), mk_rule("b", 0.8, "high")]
    assert expert.aggregate(rules, "h1") == pytest.approx(0.5)


def test_aggregate_weighted():
    rules = [mk_rule("a", 0.2, "low", weight=3), mk_rule("b", 0.8, "high", weight=1)]
    assert expert.aggregate(rules, "h4") == pytest.approx((0.2 * 3 + 0.8) / 4)


def test_aggregate_zero_weight_falls_back(caplog):
    rules = [mk_rule("a", 0.2, "low", weight=0), mk_rule("b", 0.8, "high", weight=0)]
    assert expert.aggregate(rules, "h4") == pytest.approx(0.5)
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert [r.getMessage() for r in warnings] == [
        "total weight is 0; falling back to unweighted mean"]


def test_aggregate_zero_weight_warns_once_per_call(caplog):
    # h2 takes one weighted mean per tied largest group, here two
    rules = [mk_rule("R1", 0.2, "low", weight=0), mk_rule("R2", 0.8, "high", weight=0)]
    assert expert.aggregate(rules, "h2") == pytest.approx(0.5)
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert [r.getMessage() for r in warnings] == [
        "total weight is 0; falling back to unweighted mean"]


def test_aggregate_empty_is_na():
    assert expert.aggregate([], "h1") is None


def test_h3_equals_mean_without_contradictions(kb1, feature_vectors):
    # oracle: with no contradictions fired, h3 equals the plain mean of values
    for fv in feature_vectors.values():
        surviving, discarded = expert.resolve_contradictions(kb1, crisp_valuation(kb1, fv))
        if discarded:
            continue
        values = [r.value for r in surviving]
        assert expert.aggregate(surviving, "h3") == pytest.approx(sum(values) / len(values))


def test_trust_always_in_unit_interval(kb1, kb2, feature_vectors):
    for kb in (kb1, kb2):
        for fv in feature_vectors.values():
            surviving, _discarded = expert.resolve_contradictions(kb, crisp_valuation(kb, fv))
            for h in expert.HEURISTICS:
                trust = expert.aggregate(surviving, h)
                assert trust is None or 0.0 <= trust <= 1.0


def test_layer_order_independence(kb1, feature_vectors):
    # resolution must not depend on declaration order inside a layer
    import random

    from nonmono.kb.model import KnowledgeBase

    rng = random.Random(7)
    for fv in feature_vectors.values():
        base, _discarded = expert.resolve_contradictions(kb1, crisp_valuation(kb1, fv))
        items = list(kb1.contradictions.items())
        rng.shuffle(items)
        shuffled = KnowledgeBase(kb1.id, kb1.features, kb1.trust_levels,
                                 kb1.rules, dict(items))
        out, _discarded = expert.resolve_contradictions(shuffled, crisp_valuation(shuffled, fv))
        assert {r.rule_label for r in out} == {r.rule_label for r in base}
