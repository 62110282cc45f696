"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import itertools
import json
import logging
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from nonmono import argumentation, ingest  # noqa: E402
from nonmono.kb import load_builtin  # noqa: E402


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def test_generators_are_deterministic(tmp_path):
    kb1 = load_builtin("KB1")
    files = {}
    for seed in (3, 3, 4):
        for name, rows in (("uniform", gen.uniform_editors(seed, 30)),
                           ("boundary", gen.boundary_editors(seed, 30, kb1))):
            path = tmp_path / f"{name}-{seed}.csv"
            gen.write_features(str(path), rows)
            files.setdefault((name, seed), []).append(_read(path))
        path = tmp_path / f"dump-{seed}.xml"
        truth = gen.write_dump(str(path), seed, n_editors=50, n_revisions=400, n_skipped=7)
        files.setdefault(("dump", seed), []).append(_read(path))
        assert truth["skipped"] == 7 and truth["revisions"] == 393
    for name in ("uniform", "boundary", "dump"):
        first, again = files[(name, 3)]
        assert first == again
        assert first != files[(name, 4)][0]


def test_boundary_values_sit_on_term_endpoints():
    kb1 = load_builtin("KB1")
    cands = gen.boundary_candidates(kb1)
    assert 0.25 in cands["comments"]
    assert math.nextafter(0.25, 0.0) in cands["comments"]
    assert math.nextafter(0.25, 1.0) in cands["comments"]
    assert {4, 5, 6, 19, 20, 21} <= set(cands["pages"])
    assert all(0.0 <= v <= 1.0 for v in cands["regularity"])
    assert set(cands["anonymous"]) == {0, 1}


def test_self_time_of_nested_spans():
    # a tick clock advances by one per reading, so each span's duration is
    # known exactly: preferred opens complete, which opens grounded
    tracer = Tracer(clock=itertools.count().__next__)
    originals = {}
    for name in ("preferred", "complete", "grounded"):
        originals[name] = getattr(argumentation, name)
        tracer.install(argumentation, name, name)
    arg = lambda label: argumentation.Argument(label, "forecast", ((("f", "t"),),), 1, "high")
    af = argumentation.ArgumentationFramework(
        {"A": arg("A"), "B": arg("B")}, (("A", "B"), ("B", "A")))
    try:
        assert len(argumentation.preferred(af)) == 2
    finally:
        tracer.restore()
    assert all(getattr(argumentation, name) is fn for name, fn in originals.items())
    stats = {name: (st.calls, st.total, st.self_time) for name, st in tracer.stats.items()}
    assert stats == {"grounded": (1, 1, 1), "complete": (1, 3, 2), "preferred": (1, 5, 2)}


def test_gate_trips_on_a_trust_value_off_by_1e_6():
    expected = {"a": 0.5, "b": None, "c": 0.75}
    assert gate.compare_trust(dict(expected), expected, "A7") == []
    off = dict(expected, c=0.75 + 1e-6)
    assert len(gate.compare_trust(off, expected, "A7")) == 1
    swapped = dict(expected, b=0.5)
    assert len(gate.compare_trust(swapped, expected, "A7")) == 1


def test_gate_trips_on_a_results_row_that_differs():
    expected = ("model_id,dataset,rank,spread,na_pct\n"
                "E1,bench,50.0000,0.1000,0.0000\nA7,bench,,,100.0000\n")
    assert gate.compare_results(expected, expected) == []
    assert len(gate.compare_results(expected.replace("0.1000", "0.1001"), expected)) == 1
    assert len(gate.compare_results(expected.replace(",,,", ",0.0000,,"), expected)) == 1
    assert len(gate.compare_results(expected + "A8,bench,,,100.0000\n", expected)) == 1


def test_gate_trips_on_a_skipped_count_off_by_one():
    truth = {"revisions": 393, "skipped": 7, "editors": 41}
    assert gate.check_ingest_counts(dict(truth), truth) == []
    assert len(gate.check_ingest_counts(dict(truth, skipped=6), truth)) == 1
    assert len(gate.check_ingest_counts(dict(truth, skipped=8), truth)) == 1


def test_skipped_revisions_are_counted_from_the_log(tmp_path):
    path = str(tmp_path / "dump.xml")
    truth = gen.write_dump(path, 5, n_editors=30, n_revisions=300, n_skipped=9)
    counter = gate.LogCounter()
    logger = logging.getLogger("nonmono")
    logger.addHandler(counter)
    try:
        with open(path, "rb") as fh:
            features = ingest.extract_features(fh, gen.DUMP_DATE)
    finally:
        logger.removeHandler(counter)
    observed = {"revisions": sum(f.activity for f in features),
                "skipped": counter.skipped_revisions, "editors": len(features)}
    assert gate.check_ingest_counts(observed, truth) == []
    assert counter.failures == 0


def test_benchmark_json_matches_the_metrics_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
