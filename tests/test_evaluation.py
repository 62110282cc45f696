import dataclasses
import logging
import multiprocessing
import os
import random
import time
from collections import Counter

import pytest

import reference_impl as ref
from conftest import crisp_valuation, curve
from nonmono import argumentation, evaluation, expert, fuzzy
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
from nonmono.kb import load_builtin, parse_kb
from nonmono.kb.model import Fmf


@pytest.fixture(autouse=True)
def no_process_outlives_the_test():
    yield
    assert multiprocessing.active_children() == []


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
        f.editor_id: expert.aggregate(
            expert.resolve_contradictions(kb1, crisp_valuation(kb1, f.as_dict()))[0], "h3")
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

    real = expert.activate_rules

    def flaky(kb, features):
        if features == fixture_features[0].as_dict():
            raise RuntimeError("boom")
        return real(kb, features)

    monkeypatch.setattr(expert, "activate_rules", flaky)
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


def _pooled_evaluate(monkeypatch, tmp_path, in_helper=None, in_caller=None):
    """Make every run at ``jobs > 1`` start its helpers and wrap
    ``_evaluate``: each call appends its process id to a file, and the
    caller, from its second call on (after the first-editor probe), waits
    until a helper has called, so that the helpers take chunks however fast
    the caller is.  ``in_helper`` and ``in_caller`` then run before the real
    call.  Returns a function giving the recorded process ids."""
    monkeypatch.setattr(evaluation, "HELPER_START_S", 1e-9)
    path = tmp_path / "pids"
    path.write_text("")
    caller, calls, real = os.getpid(), [], evaluation._evaluate

    def pids():
        return {int(pid) for pid in path.read_text().split()}

    def evaluate(*args):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        if os.getpid() != caller:
            if in_helper is not None:
                in_helper()
        else:
            calls.append(args)
            deadline = time.monotonic() + 10
            while len(calls) > 1 and pids() == {caller} and time.monotonic() < deadline:
                time.sleep(0.001)
            if len(calls) > 1 and in_caller is not None:
                in_caller()
        return real(*args)

    monkeypatch.setattr(evaluation, "_evaluate", evaluate)
    return pids


def test_pooled_chunks_keep_editor_order(kb1, kb2, monkeypatch, tmp_path):
    # the first of 37 editors runs alone in the caller; the other 36 go out
    # as 18 chunks of 2 editors to whichever process claims them next; the
    # merge must restore input order
    rng = random.Random(7101)
    editors = []
    for i in range(37):
        activity = rng.randint(1, 500)
        editors.append(make_features(
            f"u{i}", anonymous=int(rng.random() < 0.3), pages=rng.randint(1, min(activity, 300)),
            activity=activity, comments=rng.random(), presence=rng.random(),
            regularity=rng.random(), bytes=rng.randint(-2000, 800000)))
    stars = {editors[3].editor_id, editors[30].editor_id}
    kb_set = {"KB1": kb1, "KB2": kb2}
    models = ["E1", "E5", "FL1", "FC13", "A1", "A10"]
    assert len(editors) // (2 * evaluation.CHUNKS_PER_WORKER) == 2
    serial = _trust_of_run(monkeypatch, kb_set, editors, stars, models, jobs=1)
    pids = _pooled_evaluate(monkeypatch, tmp_path)
    pooled = _trust_of_run(monkeypatch, kb_set, editors, stars, models, jobs=2)
    assert len(pids()) == 2
    assert pooled == serial
    order = [f.editor_id for f in editors]
    assert all(list(trust) == order for trust in pooled.values())


def test_every_chunk_is_claimed_once(kb1, kb2, monkeypatch, tmp_path):
    # four processes on a smaller host claim 199 one-editor chunks; a lost
    # update of the shared counter would run a chunk twice or skip one
    editors = [make_features(f"u{i}", comments=i / 200) for i in range(200)]
    monkeypatch.setattr(evaluation, "CHUNKS_PER_WORKER", 1000)
    monkeypatch.setattr(evaluation, "HELPER_START_S", 1e-9)
    path, real = tmp_path / "chunks", evaluation._evaluate

    def evaluate(selected, kb_set, features):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()} {','.join(f.editor_id for f in features)}\n")
        return real(selected, kb_set, features)

    monkeypatch.setattr(evaluation, "_evaluate", evaluate)
    start = time.monotonic()
    run_matrix({"KB1": kb1, "KB2": kb2}, editors, set(), ["A7"], jobs=4)
    assert time.monotonic() - start < 60
    claimed = [line.split()[1] for line in path.read_text().splitlines()]
    assert sorted(claimed) == sorted(f.editor_id for f in editors)


def test_pooled_run_under_spawn_equals_jobs_1(kb1, kb2, fixture_features, barnstars,
                                              monkeypatch):
    # a spawned helper starts from a fresh import: everything it is handed pickles
    kb_set = {"KB1": kb1, "KB2": kb2}
    models = ["E1", "FL1", "FC13", "A7"]
    serial = _trust_of_run(monkeypatch, kb_set, fixture_features, barnstars, models, jobs=1)
    monkeypatch.setattr(evaluation, "HELPER_START_S", 1e-9)
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(evaluation.multiprocessing, "get_context", lambda: spawn)
    pooled = _trust_of_run(monkeypatch, kb_set, fixture_features, barnstars, models, jobs=2)
    assert pooled == serial


def test_small_run_starts_no_helper(kb1, kb2, fixture_features, barnstars, monkeypatch):
    # A7 on 3 editors is far less work than a helper costs
    started = []
    monkeypatch.setattr(evaluation, "_run_pooled", lambda *args: started.append(args))
    kb_set = {"KB1": kb1, "KB2": kb2}
    three = fixture_features[:3]
    pooled = _trust_of_run(monkeypatch, kb_set, three, barnstars, ["A7"], jobs=4)
    assert started == []
    assert pooled == _trust_of_run(monkeypatch, kb_set, three, barnstars, ["A7"], jobs=1)


def test_slow_first_editor_starts_helpers(kb1, kb2, fixture_features, barnstars, monkeypatch):
    # a first editor taking HELPER_START_S predicts 11 times that for the
    # other 11 editors: the second helper pays from 6 times on
    started, real_pooled, real_evaluate = [], evaluation._run_pooled, evaluation._evaluate

    def evaluate(*args):
        if not started:
            time.sleep(evaluation.HELPER_START_S)
        return real_evaluate(*args)

    monkeypatch.setattr(evaluation, "_evaluate", evaluate)
    monkeypatch.setattr(evaluation, "_run_pooled",
                        lambda *args: started.append(args[3]) or real_pooled(*args))
    kb_set = {"KB1": kb1, "KB2": kb2}
    models = ["E1", "FL1", "A7"]
    pooled = _trust_of_run(monkeypatch, kb_set, fixture_features, barnstars, models, jobs=3)
    assert started == [2]
    assert pooled == _trust_of_run(monkeypatch, kb_set, fixture_features, barnstars, models,
                                   jobs=1)


def test_helper_that_dies_is_named_by_its_exit_code(kb1, kb2, fixture_features, barnstars,
                                                    monkeypatch, tmp_path):
    _pooled_evaluate(monkeypatch, tmp_path, in_helper=lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3"):
        run_matrix({"KB1": kb1, "KB2": kb2}, fixture_features, barnstars, ["E1", "A1"], jobs=2)


def test_failing_caller_share_stops_the_helpers(kb1, kb2, fixture_features, barnstars,
                                                monkeypatch, tmp_path):
    def fail():
        raise KeyError("caller share failed")

    stalled = []

    def stall():
        if not stalled:
            stalled.append(True)
            time.sleep(60)

    # a helper left running would hold the call for a minute
    pids = _pooled_evaluate(monkeypatch, tmp_path, in_helper=stall, in_caller=fail)
    start = time.monotonic()
    with pytest.raises(KeyError, match="caller share failed"):
        run_matrix({"KB1": kb1, "KB2": kb2}, fixture_features, barnstars, ["E1", "A1"], jobs=2)
    assert time.monotonic() - start < 30
    assert len(pids()) == 2


def test_missing_feature_raises_from_a_pooled_run(kb2, fixture_features, barnstars):
    kb = parse_kb("""
feature karma weight 1 domain [0.0, 1.0] {
    term on = [0.0, 1.0] fmf crisp(0.0, 1.0)
}
trustlevel all = [0.0, 1.0] fmf crisp(0.0, 1.0)
rule R: IF karma is on THEN trust is all
""").kb
    with pytest.raises(expert.MissingFeatureError, match="feature 'karma' missing"):
        run_matrix({"KB1": kb, "KB2": kb2}, fixture_features, barnstars, ["E1", "FL1", "A1"],
                   jobs=2)


def _fresh_kbs():
    """Newly loaded knowledge bases: the session fixtures may already hold
    the structures built on first use."""
    return {kb_id: load_builtin(kb_id) for kb_id in ("KB1", "KB2")}


def _count_builds(monkeypatch, parent_only=False):
    """Count the builds of each structure a KB derives on first use per
    (structure, KB id), the framework index under its framework's KB.
    With ``parent_only`` a build in any other process raises."""
    from nonmono.kb import model

    builds = Counter()
    parent = os.getpid()
    kb_of_framework = {}

    def counted(name, real, kb_id=lambda kb: kb.id):
        def build(of):
            if parent_only and os.getpid() != parent:
                raise RuntimeError(f"{name} of {kb_id(of)} built in a worker")
            builds[name, kb_id(of)] += 1
            built = real(of)
            if name == "framework":
                kb_of_framework[id(built)] = of.id
            return built
        return build

    monkeypatch.setattr(model, "contradiction_graph", counted("graph", model.contradiction_graph))
    for name, module, function in (("rules", expert, "compile_rules"),
                                   ("premises", expert, "compile_premises"),
                                   ("layer index", expert, "index_layers"),
                                   ("framework", argumentation, "build_af")):
        monkeypatch.setattr(module, function, counted(name, getattr(module, function)))
    monkeypatch.setattr(argumentation, "index_framework", counted(
        "framework index", argumentation.index_framework, lambda af: kb_of_framework[id(af)]))
    return builds


def test_each_kb_builds_its_structures_once(fixture_features, barnstars, monkeypatch):
    builds = _count_builds(monkeypatch)
    kb_set = _fresh_kbs()
    for _ in range(2):
        run_matrix(kb_set, fixture_features, barnstars, jobs=1)
    for mid in ("E1", "FL1", "A1"):
        run_model(MODEL_REGISTRY[mid], kb_set["KB1"], fixture_features)
    run_model(MODEL_REGISTRY["A3"], kb_set["KB1"], fixture_features[:1],
              {fixture_features[0].editor_id: []})
    assert builds == {(name, kb_id): 1 for kb_id in kb_set
                      for name in ("rules", "premises", "graph", "layer index", "framework",
                                   "framework index")}


def test_fuzzy_and_expert_selection_builds_no_framework(fixture_features, barnstars,
                                                        monkeypatch):
    builds = _count_builds(monkeypatch)
    run_matrix(_fresh_kbs(), fixture_features, barnstars, ["FL1", "E1"], jobs=1)
    assert builds == {(name, "KB1"): 1 for name in ("rules", "premises", "graph", "layer index")}


# What E1 (KB1 expert), FL13 (KB2 fuzzy) and A7 (KB2 argumentation) read:
# the rule table and premise tests of both KBs, KB1's retraction index,
# both KBs' layers, and KB2's framework and its elicitation index.
BUILT_FOR_E1_FL13_A7 = {
    **{(name, kb_id): 1 for name in ("rules", "premises", "graph") for kb_id in ("KB1", "KB2")},
    ("layer index", "KB1"): 1, ("framework", "KB2"): 1, ("framework index", "KB2"): 1}


def test_pooled_run_builds_structures_before_the_workers_start(fixture_features, barnstars,
                                                               monkeypatch, tmp_path):
    models = ["E1", "FL13", "A7"]
    serial = _trust_of_run(monkeypatch, _fresh_kbs(), fixture_features, barnstars, models, jobs=1)
    builds = _count_builds(monkeypatch, parent_only=True)
    pids = _pooled_evaluate(monkeypatch, tmp_path)
    pooled = _trust_of_run(monkeypatch, _fresh_kbs(), fixture_features, barnstars, models, jobs=2)
    assert len(pids()) == 2
    # a structure built in a helper raises there, which would turn into NA
    assert pooled == serial
    assert builds == BUILT_FOR_E1_FL13_A7


def test_pooled_run_builds_structures_when_the_first_editor_fails(fixture_features, barnstars,
                                                                  monkeypatch, tmp_path):
    # a failed rule activation of the first editor leaves the premise tests,
    # the retraction index and the framework unread by the first-editor probe
    first, real = fixture_features[0].as_dict(), expert.activate_rules
    monkeypatch.setattr(expert, "activate_rules",
                        lambda kb, vec: real(kb, {} if vec == first else vec))
    models = ["E1", "FL13", "A7"]
    serial = _trust_of_run(monkeypatch, _fresh_kbs(), fixture_features, barnstars, models, jobs=1)
    assert serial["E1"][fixture_features[0].editor_id] is None
    builds = _count_builds(monkeypatch, parent_only=True)
    pids = _pooled_evaluate(monkeypatch, tmp_path)
    pooled = _trust_of_run(monkeypatch, _fresh_kbs(), fixture_features, barnstars, models, jobs=2)
    assert len(pids()) == 2
    assert pooled == serial
    assert builds == BUILT_FOR_E1_FL13_A7


def test_pooled_run_builds_level_curves_before_the_workers_start(fixture_features, barnstars):
    kb_set = _fresh_kbs()
    fuzzy._level_curve.cache_clear()
    run_matrix(kb_set, fixture_features, barnstars, ["FL1"], jobs=2)
    levels = {tl.fmf("triangular") for tl in kb_set["KB1"].trust_levels.values()}
    assert fuzzy._level_curve.cache_info().currsize == len(levels)


def test_run_matrix_warns_unresolved_target_once(fixture_features, barnstars, caplog):
    kb_set = _fresh_kbs()
    with caplog.at_level(logging.WARNING, logger="nonmono"):
        run_matrix(kb_set, fixture_features, barnstars, jobs=1)
        run_matrix(kb_set, fixture_features, barnstars, jobs=2)
    unresolved = [r.getMessage() for r in caplog.records if "unresolved target" in r.getMessage()]
    # KB1's Bot.a names a rule U4 that KB1 lacks; KB2 has no unresolved target
    assert unresolved == ["contradiction Bot.a: unresolved target(s) U4; attack omitted"]


def _trust_of_run(monkeypatch, *args, **kwargs):
    """run_matrix's per-model trust dicts, as handed to metric_triple."""
    captured = []
    real = evaluation.metric_triple
    monkeypatch.setattr(evaluation, "metric_triple",
                        lambda trust, stars: captured.append(dict(trust)) or real(trust, stars))
    rows = run_matrix(*args, **kwargs)
    monkeypatch.setattr(evaluation, "metric_triple", real)
    return {config.id: trust for (config, _t), trust in zip(rows, captured)}


FUZZY_MODELS = [mid for mid in MODEL_REGISTRY if mid.startswith(("FL", "FC"))]


def _walked_level_truths(kb_set, vec):
    """Each fuzzy model's aggregation input for one feature vector, walked
    model by model from the engine's parts, not through the stage plan:
    the (level, function, truth) triples in KB order, the truth the max over
    the rules inferring the level of their possibilistic necessities,
    weighted when the model weights."""
    out = {}
    for mid in FUZZY_MODELS:
        config = MODEL_REGISTRY[mid]
        kb = kb_set[config.kb_id]
        ops = fuzzy.OPERATORS[config.operator]
        grades = fuzzy.fuzzify(vec, kb, config.fmf_variant)
        necs = fuzzy.resolve_possibility(kb, fuzzy.initial_necessities(kb, grades, ops),
                                         grades, ops)
        if config.use_weights:
            necs = fuzzy.apply_rule_weights(necs, kb)
        truths = dict.fromkeys(kb.trust_levels, 0.0)
        for label, nec in necs.items():
            level = kb.rules[label].consequent_level
            truths[level] = max(truths[level], nec)
        out[mid] = tuple((level, tl.fmf(config.fmf_variant), truths[level])
                         for level, tl in kb.trust_levels.items())
    return out


def test_matrix_shares_stages_per_editor(kb1, kb2, fixture_features, barnstars, monkeypatch):
    kb_set = {"KB1": kb1, "KB2": kb2}
    editors = fixture_features[:3] + [f for f in fixture_features if f.editor_id == "eve"]
    distinct = [len(set(_walked_level_truths(kb_set, f.as_dict()).values())) for f in editors]
    # the editors between them reach shared and unshared level truths
    assert min(distinct) < 24 and len(set(distinct)) > 1
    # KB1 and KB2 share one rule table, whose rules are activated once per
    # editor; each distinct contradiction premise antecedent of each KB is
    # tested once: 29 + 3 + 0 crisp walks
    assert kb1.rule_table is kb2.rule_table
    walks = len(kb1.rules) + sum(len({c.premises for c in kb.contradictions.values()
                                      if c.premises}) for kb in kb_set.values())
    assert walks == 32
    # a preferred model searches its sub-framework's grounded-undecided
    # region only when the region holds an argument; the reference's own
    # elicitation and fixpoint grounded labelling count those, one
    # sub-framework per (KB, strength filter)
    searched = [sum(any(label == "undec" for label in ref.brute_grounded(
                        *ref.build_subaf(kb_id, f.as_dict(), strength))[0].values())
                    for kb_id in kb_set for strength in (False, True))
                for f in editors]
    assert len(set(searched)) > 1
    calls = {}
    for module, name in ((fuzzy, "fuzzify"), (fuzzy, "resolve_possibility"),
                         (fuzzy, "aggregate_levels"), (fuzzy, "defuzzify"),
                         (expert, "valuation"), (expert, "activate_rules"),
                         (expert, "activation"), (argumentation, "elicit_subaf"),
                         (argumentation, "grounded"), (argumentation, "_region_labellings")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    for editor, n, regions in zip(editors, distinct, searched):
        calls.clear()
        run_matrix(kb_set, [editor], barnstars, jobs=1)
        # one grounded labelling per sub-framework, which its grounded and
        # preferred models share
        want = {"fuzzify": 4, "resolve_possibility": 12, "aggregate_levels": n,
                "defuzzify": 2 * n, "valuation": 2, "activate_rules": 1,
                "activation": walks, "elicit_subaf": 4, "grounded": 4}
        if regions:
            want["_region_labellings"] = regions
        assert calls == want, editor


def test_categoriser_models_never_label(kb1, kb2, fixture_features, barnstars, monkeypatch):
    # the grounded labelling is built when a semantics reads it, not as a
    # stage of every argumentation chain
    kb_set = {"KB1": kb1, "KB2": kb2}
    calls = Counter()
    for name in ("grounded", "categoriser", "elicit_subaf"):
        def counted(*args, _real=getattr(argumentation, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(argumentation, name, counted)
    models = ["A2", "A5", "A8", "A11"]
    run_matrix(kb_set, fixture_features, barnstars, models, jobs=1)
    for mid in models:
        config = MODEL_REGISTRY[mid]
        run_model(config, kb_set[config.kb_id], fixture_features)
    assert calls["grounded"] == 0
    assert calls["elicit_subaf"] == 2 * 4 * len(fixture_features) and calls["categoriser"]


def test_fuzzy_models_never_build_the_output_curve(kb1, kb2, fixture_features, barnstars,
                                                   monkeypatch):
    kb_set = {"KB1": kb1, "KB2": kb2}
    distinct = sum(len(set(_walked_level_truths(kb_set, f.as_dict()).values()))
                   for f in fixture_features[:3])
    built = []
    real = fuzzy.aggregate_levels
    monkeypatch.setattr(fuzzy, "aggregate_levels",
                        lambda *args: built.append(real(*args)) or built[-1])
    assert len(FUZZY_MODELS) == 48
    run_matrix(kb_set, fixture_features[:3], barnstars, FUZZY_MODELS, jobs=1)
    assert len(built) == distinct
    # defuzzification reads the pieces, and no aggregate holds a grid curve
    fields = {f.name for f in dataclasses.fields(fuzzy.AggregatedFuzzySet)}
    assert all(vars(agg).keys() == fields for agg in built)
    assert all(len(curve(agg)) == fuzzy.DEFAULT_RESOLUTION for agg in built)


def _vector_editors(prefix, vectors):
    return [EditorFeatures(editor_id=f"{prefix}{i}", **vec) for i, vec in enumerate(vectors)]


def test_shared_fuzzy_output_equals_a_lone_model(kb1, kb2, fixture_features, barnstars,
                                                 monkeypatch):
    from test_differential import _boundary_vectors, _uniform_vectors

    kb_set = {"KB1": kb1, "KB2": kb2}
    for editors in (_vector_editors("u", _uniform_vectors(12)),
                    _vector_editors("b", _boundary_vectors(12, (kb1,))), fixture_features):
        full = _trust_of_run(monkeypatch, kb_set, editors, barnstars, jobs=1)
        for mid in FUZZY_MODELS:
            config = MODEL_REGISTRY[mid]
            assert repr(run_model(config, kb_set[config.kb_id], editors)) == repr(full[mid]), mid


def test_changed_level_function_shares_no_aggregate(kb2, fixture_features, monkeypatch):
    level = kb2.trust_levels["medium_low"]
    changed = dataclasses.replace(kb2, id="KB2x", trust_levels=dict(
        kb2.trust_levels, medium_low=dataclasses.replace(level, fmfs=dict(
            level.fmfs, triangular=Fmf("triangular", (0.1875, 0.375, 0.5626))))))
    models = [MODEL_REGISTRY["FL13"],
              dataclasses.replace(MODEL_REGISTRY["FL13"], id="X13", kb_id="KB2x")]
    calls = []
    real = fuzzy.aggregate_levels
    monkeypatch.setattr(fuzzy, "aggregate_levels",
                        lambda truths: calls.append(truths) or real(truths))
    editors = fixture_features[:4]
    for copy, per_editor in ((dataclasses.replace(kb2, id="KB2x"), 1), (changed, 2)):
        calls.clear()
        trust = evaluation._evaluate(models, {"KB2": kb2, "KB2x": copy}, editors)
        # a copy with equal levels and contradictions shares every aggregate
        assert len(calls) == per_editor * len(editors)
        for config in models:
            kb = kb2 if config.kb_id == "KB2" else copy
            assert repr(trust[config.id]) == repr(run_model(config, kb, editors))
    assert fuzzy.level_set(changed, "triangular") is not fuzzy.level_set(kb2, "triangular")
    assert fuzzy.level_set(changed, "gaussian") is fuzzy.level_set(kb2, "gaussian")


def test_models_differing_in_operator_share_the_aggregate(kb1, fixture_features, monkeypatch):
    zadeh, product = MODEL_REGISTRY["FL1"], MODEL_REGISTRY["FL3"]
    assert dataclasses.replace(zadeh, id="FL3", operator="product") == product
    truths, aggregates = [], []
    real_truths, real_aggregate = fuzzy.level_truths, fuzzy.aggregate_levels
    monkeypatch.setattr(fuzzy, "level_truths",
                        lambda *args: truths.append(real_truths(*args)) or truths[-1])
    monkeypatch.setattr(fuzzy, "aggregate_levels",
                        lambda lt: aggregates.append(real_aggregate(lt)) or aggregates[-1])
    # the trust value is then the aggregate the model's chain reached
    monkeypatch.setattr(fuzzy, "defuzzify", lambda agg, _method: agg)
    editor = fixture_features[0]
    trust = evaluation._evaluate([zadeh, product], {"KB1": kb1}, [editor])
    assert truths[0] == truths[1] and truths[0] is not truths[1]
    assert len(aggregates) == 1
    reached = trust[zadeh.id][editor.editor_id], trust[product.id][editor.editor_id]
    assert reached[0] is reached[1] is aggregates[0]


def test_filtered_run_equals_full_matrix(kb1, kb2, fixture_features, barnstars, monkeypatch):
    kb_set = {"KB1": kb1, "KB2": kb2}
    full = _trust_of_run(monkeypatch, kb_set, fixture_features, barnstars, jobs=1)
    for wanted in (["FL13"], ["A7"], ["FL13", "A7"]):
        assert _trust_of_run(monkeypatch, kb_set, fixture_features, barnstars, wanted,
                             jobs=1) == {mid: full[mid] for mid in wanted}
    assert run_model(MODEL_REGISTRY["FL13"], kb2, fixture_features) == full["FL13"]


def test_failing_stage_gives_na_to_the_models_sharing_it(kb1, kb2, fixture_features, barnstars,
                                                         monkeypatch, caplog):
    kb_set = {"KB1": kb1, "KB2": kb2}
    clean = _trust_of_run(monkeypatch, kb_set, fixture_features, barnstars, jobs=1)
    victim = fixture_features[1]
    real_fuzzify, real_elicit = fuzzy.fuzzify, argumentation.elicit
    real_aggregate, real_valuation = fuzzy.aggregate_levels, expert.valuation
    # one aggregation input fails: FL1's at the victim, wherever it is reached
    walked = {f.editor_id: _walked_level_truths(kb_set, f.as_dict()) for f in fixture_features}
    reached = [(mid, editor) for editor, by_model in walked.items()
               for mid, truths in by_model.items() if truths == walked[victim.editor_id]["FL1"]]
    configs = [MODEL_REGISTRY[mid] for mid, _editor in reached]
    assert {c.kb_id for c in configs} == {"KB1", "KB2"}
    assert {c.operator for c in configs} == set(fuzzy.OPERATORS)
    assert all(clean[mid][editor] is not None for mid, editor in reached)

    poison = fuzzy.level_truths(kb1, fuzzy.resolved_necessities(
        kb1, fuzzy.fuzzify(victim.as_dict(), kb1, "triangular"), "zadeh"), False, "triangular")

    def aggregate_levels(level_truths):
        if level_truths == poison:
            raise RuntimeError("aggregate boom")
        return real_aggregate(level_truths)

    def fuzzify(features, kb, variant="triangular"):
        if features == victim.as_dict() and kb is kb2 and variant == "gaussian":
            raise RuntimeError("fuzzify boom")
        return real_fuzzify(features, kb, variant)

    # the victim's KB1 valuation is no other editor's
    victim_valuation = crisp_valuation(kb1, victim.as_dict())
    assert [f for f in fixture_features
            if crisp_valuation(kb1, f.as_dict()) == victim_valuation] == [victim]

    def elicit(kb, valuation, use_strength):
        if valuation == victim_valuation and kb is kb1 and use_strength:
            raise RuntimeError("elicit boom")
        return real_elicit(kb, valuation, use_strength)

    def valuation(kb, features, activated):
        if features == victim.as_dict() and kb is kb2:
            raise RuntimeError("valuation boom")
        return real_valuation(kb, features, activated)

    monkeypatch.setattr(fuzzy, "fuzzify", fuzzify)
    monkeypatch.setattr(argumentation, "elicit", elicit)
    monkeypatch.setattr(fuzzy, "aggregate_levels", aggregate_levels)
    monkeypatch.setattr(expert, "valuation", valuation)
    with caplog.at_level(logging.ERROR, logger="nonmono"):
        broken = _trust_of_run(monkeypatch, kb_set, fixture_features, barnstars, jobs=1)
    # FC13-FC24 are the gaussian KB2 models; A4-A6 the strength-filtered KB1
    # ones; E5-E8 and A7-A12 the KB2 models that share its premise valuation
    failed = [(mid, victim.editor_id) for mid in
              [f"FC{i}" for i in range(13, 25)] + ["A4", "A5", "A6"]
              + [f"E{i}" for i in range(5, 9)] + [f"A{i}" for i in range(7, 13)]] + reached
    for mid, trust in clean.items():
        expected = dict(trust, **{editor: None for m, editor in failed if m == mid})
        assert broken[mid] == expected, mid
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert sorted(errors) == sorted(
        f"model {mid} failed for editor {editor}; recording NA" for mid, editor in failed)


def test_failed_activation_gives_na_to_both_kbs_crisp_models(kb1, kb2, fixture_features,
                                                             barnstars, monkeypatch, caplog):
    # KB1 and KB2 share one rule table, so one activation per editor feeds
    # the expert and argumentation models of both
    kb_set = {"KB1": kb1, "KB2": kb2}
    clean = _trust_of_run(monkeypatch, kb_set, fixture_features, barnstars, jobs=1)
    victim, real = fixture_features[1], expert.activate_rules
    calls = []

    def activate_rules(kb, features):
        if features == victim.as_dict():
            calls.append(kb.id)
            raise RuntimeError("activation boom")
        return real(kb, features)

    monkeypatch.setattr(expert, "activate_rules", activate_rules)
    with caplog.at_level(logging.ERROR, logger="nonmono"):
        broken = _trust_of_run(monkeypatch, kb_set, fixture_features, barnstars, jobs=1)
    assert len(calls) == 1
    crisp = [mid for mid, config in MODEL_REGISTRY.items() if config.engine != "fuzzy"]
    assert len(crisp) == 20
    for mid, trust in clean.items():
        assert broken[mid] == (dict(trust, **{victim.editor_id: None}) if mid in crisp
                               else trust), mid
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert sorted(errors) == sorted(
        f"model {mid} failed for editor {victim.editor_id}; recording NA" for mid in crisp)


@pytest.mark.parametrize("change", ["term bound", "feature weight"])
def test_changed_rule_base_shares_no_activation(kb2, fixture_features, monkeypatch, change):
    feature = kb2.features["comments"]
    low, *others = feature.terms
    if change == "term bound":
        feature = dataclasses.replace(
            feature, terms=(dataclasses.replace(low, upper=0.2499), *others))
    else:
        feature = dataclasses.replace(feature, weight=feature.weight + 1)
    changed = dataclasses.replace(kb2, id="KB2x", features=dict(kb2.features, comments=feature))
    models = [MODEL_REGISTRY["E6"], MODEL_REGISTRY["A7"]]
    models += [dataclasses.replace(config, id=f"X{config.id}", kb_id="KB2x") for config in models]
    calls = []
    real = expert.activate_rules
    monkeypatch.setattr(expert, "activate_rules",
                        lambda kb, features: calls.append(kb.id) or real(kb, features))
    editors = fixture_features[:4]
    for copy, per_editor in ((dataclasses.replace(kb2, id="KB2x"), 1), (changed, 2)):
        calls.clear()
        trust = evaluation._evaluate(models, {"KB2": kb2, "KB2x": copy}, editors)
        # a copy with equal rules, terms, levels and weights shares every activation
        assert len(calls) == per_editor * len(editors)
        assert (copy.rule_table is kb2.rule_table) == (per_editor == 1)
        for config in models:
            kb = kb2 if config.kb_id == "KB2" else copy
            assert repr(trust[config.id]) == repr(run_model(config, kb, editors))


def test_undefined_metrics_warn_once_per_run(kb1, kb2, fixture_features, barnstars, caplog):
    kb_set = {"KB1": kb1, "KB2": kb2}
    with caplog.at_level(logging.WARNING, logger="nonmono"):
        assert rank_of_barnstars({"b": 0.5}, {"b"}) is None
        assert spread({"x": 0.5}, {"b"}) is None
        assert caplog.records == []
        rows = run_matrix(kb_set, fixture_features, set(), ["E1", "E5", "A9"])
    assert all(t.rank_of_barnstars is None and t.spread is None for _c, t in rows)
    undefined = [r.getMessage() for r in caplog.records if "undefined" in r.getMessage()]
    assert len(undefined) == 1
    assert "E1, E5, A9; spread" in undefined[0] and undefined[0].endswith("for E1, E5, A9")
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="nonmono"):
        run_matrix(kb_set, fixture_features, barnstars, ["E1", "E5", "A9"])
    assert [r for r in caplog.records if "undefined" in r.getMessage()] == []


@pytest.mark.parametrize("row, reason", [
    ("b,E1,0.5,3", "4 columns, expected 3"),
    ("b,E1", "2 columns, expected 3"),
    ("b,E1,nan", "trust 'nan' is not finite"),
    ("b,E1,inf", "trust 'inf' is not finite"),
    ("b,E1,7", "trust '7' is outside [0, 1]"),
    ("b,E1,-0.1", "trust '-0.1' is outside [0, 1]"),
    ("a,E1,0.9", "duplicate editor id 'a'"),
])
def test_trust_csv_rejects_invalid_row(tmp_path, row, reason):
    path = tmp_path / "trust.csv"
    path.write_text(f"editor_id,model_id,trust\na,E1,0.5\n\n{row}\nc,E1,\n")
    with pytest.raises(ValueError) as err:
        evaluation.read_trust_csv(str(path))
    assert str(err.value) == f"{path}: line 4: {reason}"


def test_results_csv_round_trips_a_dataset_with_a_comma(tmp_path):
    path = tmp_path / "results.csv"
    triple = evaluation.MetricTriple(12.5, 0.25, None)
    evaluation.write_results_csv([(MODEL_REGISTRY["E1"], triple)], "wiki,2021", str(path))
    assert path.read_text() == 'model_id,dataset,rank,spread,na_pct\nE1,"wiki,2021",12.5000,0.2500,\n'
    assert evaluation.read_results_csv(str(path)) == [("E1", "wiki,2021", 12.5, 0.25, None)]


@pytest.mark.parametrize("row, reason", [
    ("E2,d,1,0.1,0,9", "6 columns, expected 5"),
    ("E2,d,1,0.1", "4 columns, expected 5"),
    ("E2,d,nan,0.1,0", "rank 'nan' is not finite"),
    ("E2,d,1,inf,0", "spread 'inf' is not finite"),
    ("E2,d,1,0.1,-inf", "na_pct '-inf' is not finite"),
    ("E2,d,100.5,0.1,0", "rank '100.5' is outside [0, 100]"),
    ("E2,d,1,-0.1,0", "spread '-0.1' is outside [0, inf]"),
    ("E2,d,1,0.1,250", "na_pct '250' is outside [0, 100]"),
    ("E1,d,1,0.1,0", "duplicate model id 'E1'"),
])
def test_results_csv_rejects_invalid_row(tmp_path, row, reason):
    path = tmp_path / "results.csv"
    path.write_text(f"model_id,dataset,rank,spread,na_pct\nE1,d,0,0.5,100\n\n{row}\n")
    with pytest.raises(ValueError) as err:
        evaluation.read_results_csv(str(path))
    assert str(err.value) == f"{path}: line 4: {reason}"
