import logging
import random

import pytest

from nonmono import evaluation, expert
from nonmono.evaluation import (
    MODEL_REGISTRY,
    baseline_feature_average,
    metric_triple,
    na_percentage,
    rank_of_barnstars,
    run_matrix,
    run_model,
    spread,
)
from nonmono.ingest import EditorFeatures


def make_features(editor_id, **kw):
    base = dict(anonymous=0, pages=5, activity=10, not_minor=0.5, comments=0.5,
                presence=0.5, frequency=0.5, regularity=0.5, bytes=100)
    base.update(kw)
    return EditorFeatures(editor_id=editor_id, **base)


def test_registry_has_68_models():
    assert len(MODEL_REGISTRY) == 68
    assert list(MODEL_REGISTRY)[:9] == ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "FL1"]


def test_registry_decode_spot_rows():
    e2 = MODEL_REGISTRY["E2"]
    assert (e2.engine, e2.kb_id, e2.heuristic) == ("expert", "KB1", "h2")
    fl9 = MODEL_REGISTRY["FL9"]
    assert (fl9.kb_id, fl9.operator, fl9.defuzz, fl9.use_weights, fl9.fmf_variant) == \
        ("KB1", "product", "centroid", True, "triangular")
    fc24 = MODEL_REGISTRY["FC24"]
    assert (fc24.kb_id, fc24.operator, fc24.defuzz, fc24.use_weights, fc24.fmf_variant) == \
        ("KB2", "lukasiewicz", "mean_of_max", True, "gaussian")
    a9 = MODEL_REGISTRY["A9"]
    assert (a9.kb_id, a9.semantics, a9.use_strength) == ("KB2", "grounded", False)
    a4 = MODEL_REGISTRY["A4"]
    assert (a4.kb_id, a4.semantics, a4.use_strength) == ("KB1", "preferred", True)


def test_rank_extremes():
    trust = {"b1": 0.9, "b2": 0.8, "x": 0.2, "y": 0.1}
    stars = {"b1", "b2"}
    assert rank_of_barnstars(trust, stars) == 0.0
    inverted = {"b1": 0.1, "b2": 0.2, "x": 0.8, "y": 0.9}
    assert rank_of_barnstars(inverted, stars) == 100.0


def test_rank_formula_midpoint():
    # one award holder at rank 2 of 4
    trust = {"x": 0.9, "b": 0.8, "y": 0.5, "z": 0.1}
    assert rank_of_barnstars(trust, {"b"}) == pytest.approx(100 * (2 - 1) / (4 - 1))


def test_rank_ties_favor_non_barnstars():
    trust = {"b": 0.5, "x": 0.5, "y": 0.1}
    assert rank_of_barnstars(trust, {"b"}) == pytest.approx(50.0)


def test_rank_requires_both_classes():
    assert rank_of_barnstars({"b": 0.5}, {"b"}) is None
    assert rank_of_barnstars({"x": 0.5, "b": None}, {"b"}) is None


def test_rank_tie_pessimism():
    stars = {"b"}
    trust = {"b": 0.6, "x": 0.7, "y": 0.5}
    before = rank_of_barnstars(trust, stars)
    trust["y"] = 0.6  # lift a non-holder into an exact tie
    after = rank_of_barnstars(trust, stars)
    assert after >= before


def test_rank_argsort_invariance():
    rng = random.Random(42)
    trust = {f"e{i}": rng.random() for i in range(30)}
    stars = {f"e{i}" for i in range(0, 30, 7)}
    base = rank_of_barnstars(trust, stars)
    for _ in range(200):
        a = rng.uniform(0.1, 3.0)
        b = rng.uniform(0.0, 2.0)
        c = rng.uniform(0.0, 5.0)
        transformed = {e: c + a * v + b * v ** 3 for e, v in trust.items()}
        assert rank_of_barnstars(transformed, stars) == pytest.approx(base)


def test_spread_examples():
    assert spread({"a": 0.4, "b": 0.4}, {"a", "b"}) == 0.0
    assert spread({"a": 0.0, "b": 1.0}, {"a", "b"}) == pytest.approx(0.5)
    got = spread({"a": 0.2, "b": 0.4, "c": 0.9}, {"a", "b", "c"})
    assert got == pytest.approx(0.294392, abs=1e-6)
    assert spread({"a": None, "x": 0.5}, {"a"}) is None


def test_na_percentage():
    assert na_percentage({"a": 0.1}) == 0.0
    assert na_percentage({"a": None, "b": None}) == 100.0
    assert na_percentage({"a": None, "b": 1, "c": 1, "d": 1}) == 25.0
    with pytest.raises(ValueError):
        na_percentage({})


def test_baseline_all_max_editor():
    feats = [
        make_features("top", pages=50, activity=90, bytes=5000, not_minor=1.0,
                      comments=1.0, presence=1.0, frequency=1.0, regularity=1.0),
        make_features("bottom", anonymous=1, pages=1, activity=1, bytes=-50,
                      not_minor=0.0, comments=0.0, presence=0.0, frequency=0.0,
                      regularity=0.0),
    ]
    baseline = baseline_feature_average(feats)
    assert baseline["top"] == pytest.approx(1.0)
    assert baseline["bottom"] == pytest.approx(0.0)


def test_baseline_anonymity_inverted():
    feats = [make_features("a", anonymous=1, pages=1, activity=1, bytes=0),
             make_features("b", anonymous=0, pages=2, activity=2, bytes=10)]
    baseline = baseline_feature_average(feats)
    assert baseline["b"] > baseline["a"]


def test_baseline_two_editor_recomputation():
    f1 = make_features("a", pages=4, activity=10, bytes=100, comments=0.3)
    f2 = make_features("b", pages=8, activity=30, bytes=300, comments=0.9)
    baseline = baseline_feature_average([f1, f2])
    # hand recomputation: min-max puts a at 0 and b at 1 on pages/activity/bytes
    expected_a = (1.0 + 0 + 0 + 0.5 + 0.3 + 0.5 + 0.5 + 0.5 + 0) / 9
    expected_b = (1.0 + 1 + 1 + 0.5 + 0.9 + 0.5 + 0.5 + 0.5 + 1) / 9
    assert baseline["a"] == pytest.approx(expected_a)
    assert baseline["b"] == pytest.approx(expected_b)


def test_baseline_constant_column(caplog):
    feats = [make_features("a", pages=3), make_features("b", pages=3, comments=0.9)]
    baseline = baseline_feature_average(feats)
    assert set(baseline) == {"a", "b"}


def test_run_matrix_single_model_oracle(kb1, kb2, fixture_features, barnstars):
    kb_set = {"KB1": kb1, "KB2": kb2}
    rows = run_matrix(kb_set, fixture_features, barnstars, ["E3"])
    assert len(rows) == 1
    config, triple = rows[0]
    assert config.id == "E3"
    trust = {
        f.editor_id: expert.run_expert(kb1, f.as_dict(), "h3").trust
        for f in fixture_features
    }
    direct = metric_triple(trust, barnstars)
    assert triple.rank_of_barnstars == pytest.approx(direct.rank_of_barnstars)
    assert triple.spread == pytest.approx(direct.spread)


def test_run_matrix_full(kb1, kb2, fixture_features, barnstars):
    rows = run_matrix({"KB1": kb1, "KB2": kb2}, fixture_features, barnstars)
    assert len(rows) == 68
    assert [c.id for c, _t in rows] == list(MODEL_REGISTRY)


def test_run_matrix_empty_filter(kb1, kb2, fixture_features, barnstars):
    assert run_matrix({"KB1": kb1, "KB2": kb2}, fixture_features, barnstars, []) == []


def test_run_matrix_unknown_model(kb1, kb2, fixture_features, barnstars):
    with pytest.raises(KeyError, match="E99"):
        run_matrix({"KB1": kb1, "KB2": kb2}, fixture_features, barnstars, ["E99"])


def test_engine_error_degrades_to_na(kb1, fixture_features, monkeypatch):
    target = fixture_features[0].editor_id

    real = expert.run_expert

    def flaky(kb, features, heuristic, graph=None):
        if features == fixture_features[0].as_dict():
            raise RuntimeError("boom")
        return real(kb, features, heuristic, graph)

    monkeypatch.setattr(expert, "run_expert", flaky)
    trust = run_model(MODEL_REGISTRY["E1"], kb1, fixture_features)
    assert trust[target] is None
    assert sum(1 for v in trust.values() if v is not None) == len(fixture_features) - 1


def test_run_model_unknown_engine_raises(kb1, fixture_features):
    with pytest.raises(ValueError, match="bogus"):
        run_model(evaluation.ModelConfig("X1", "bogus", "KB1"), kb1, fixture_features)


def test_matrix_reproducible(kb1, kb2, fixture_features, barnstars):
    kb_set = {"KB1": kb1, "KB2": kb2}
    a = run_matrix(kb_set, fixture_features, barnstars, ["E1", "FL3", "A2"])
    b = run_matrix(kb_set, fixture_features, barnstars, ["E1", "FL3", "A2"])
    assert a == b


def test_kb1_models_never_na(kb1, kb2, fixture_features, barnstars):
    rows = run_matrix({"KB1": kb1, "KB2": kb2}, fixture_features, barnstars,
                      [m for m, c in MODEL_REGISTRY.items() if c.kb_id == "KB1"])
    assert len(rows) == 34
    assert all(t.na_pct == 0.0 for _c, t in rows)


def test_run_matrix_independent_of_jobs(kb1, kb2, fixture_features, barnstars):
    kb_set = {"KB1": kb1, "KB2": kb2}
    serial = run_matrix(kb_set, fixture_features, barnstars, jobs=1)
    assert run_matrix(kb_set, fixture_features, barnstars, jobs=2) == serial
    three = fixture_features[:3]
    stars = {f.editor_id for f in three[:2]}
    assert run_matrix(kb_set, three, stars, jobs=4) == run_matrix(kb_set, three, stars, jobs=1)


def test_run_matrix_warns_unresolved_target_once(kb1, kb2, fixture_features, barnstars, caplog):
    with caplog.at_level(logging.WARNING, logger="nonmono"):
        run_matrix({"KB1": kb1, "KB2": kb2}, fixture_features, barnstars, jobs=1)
    unresolved = [r.getMessage() for r in caplog.records if "unresolved target" in r.getMessage()]
    # KB1's Bot.a names a rule U4 that KB1 lacks; KB2 has no unresolved target
    assert unresolved == ["contradiction Bot.a: unresolved target(s) U4; attack omitted"]
