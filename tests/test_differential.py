"""Standing differential oracle: every model of the matrix against
``reference_impl.model_trust`` on seeded inputs.

The inputs are seeded uniform vectors over the knowledge bases' domains and
vectors whose every feature sits on a KB1 or KB2 term endpoint or one step
off it (one ulp for ratios, one for counts).  The full matrix and
``run_model`` over a seeded sample of models must both match the reference
to 1e-9, with the same NA pattern.  Optimisations of the engines or of the
evaluation plan are licensed by this test, not only by the 12-editor golden.
"""
from __future__ import annotations

import math
import random

import pytest

import reference_impl as ref
from nonmono import evaluation
from nonmono.evaluation import MODEL_REGISTRY, run_matrix, run_model
from nonmono.ingest import EditorFeatures

TOLERANCE = 1e-9
UNIFORM_SEED = 7001
BOUNDARY_SEED = 7002
MODEL_SAMPLE_SEED = 7003
UNIFORM_EDITORS = 8
BOUNDARY_EDITORS = 16
MODEL_SAMPLE = 10
COUNT_COLUMNS = ("pages", "activity", "bytes")
RATIO_COLUMNS = ("not_minor", "comments", "presence", "frequency", "regularity")


def _uniform_vectors(n: int) -> list[dict]:
    rng = random.Random(UNIFORM_SEED)
    return [
        {
            "anonymous": rng.randint(0, 1),
            "pages": rng.randint(0, 45),
            "activity": rng.randint(0, 45),
            "bytes": rng.randint(-200, 5200),
            **{name: rng.random() for name in RATIO_COLUMNS},
        }
        for _ in range(n)
    ]


def _boundary_candidates(kbs) -> dict[str, list]:
    """Every term endpoint of the knowledge bases and its nearest
    neighbours, kept inside what a valid features file holds."""
    out: dict[str, set] = {}
    for kb in kbs:
        for name, feat in kb.features.items():
            values = out.setdefault(name, set())
            for term in feat.terms:
                for end in (term.lower, term.upper):
                    if name == "anonymous":
                        values.add(int(end))
                    elif name in COUNT_COLUMNS:
                        values.update(int(end) + d for d in (-1, 0, 1)
                                      if name == "bytes" or int(end) + d >= 0)
                    else:
                        values.update(v for v in (math.nextafter(end, -math.inf), end,
                                                  math.nextafter(end, math.inf))
                                      if 0.0 <= v <= 1.0)
    return {name: sorted(values) for name, values in out.items()}


def _boundary_vectors(n: int, kbs) -> list[dict]:
    rng = random.Random(BOUNDARY_SEED)
    cands = _boundary_candidates(kbs)
    return [{name: rng.choice(cands[name]) for name in sorted(cands)} for _ in range(n)]


@pytest.fixture(scope="module")
def editors(kb1, kb2):
    vectors = _uniform_vectors(UNIFORM_EDITORS) + _boundary_vectors(BOUNDARY_EDITORS, (kb1, kb2))
    return [EditorFeatures(editor_id=f"d{i}", **vec) for i, vec in enumerate(vectors)]


@pytest.fixture(scope="module")
def expected(editors):
    vecs = {f.editor_id: f.as_dict() for f in editors}
    return {mid: ref.model_trust(mid, vecs) for mid in MODEL_REGISTRY}


def _mismatches(got: dict, want: dict, model_id: str) -> list[str]:
    if list(got) != list(want):
        return [f"{model_id}: editors {list(got)} vs {list(want)}"]
    return [
        f"{model_id}/{editor}: {got[editor]!r} vs reference {want[editor]!r}"
        for editor in want
        if (got[editor] is None) != (want[editor] is None)
        or (got[editor] is not None and not abs(got[editor] - want[editor]) <= TOLERANCE)
    ]


def test_boundary_vectors_sit_on_term_endpoints(kb1, kb2):
    cands = _boundary_candidates((kb1, kb2))
    assert {0.25, math.nextafter(0.25, 0.0), math.nextafter(0.25, 1.0)} <= set(cands["comments"])
    assert {4, 5, 6, 19, 20, 21} <= set(cands["pages"])
    assert {2386, 2387, 2388, 2389} <= set(cands["bytes"])
    assert cands["anonymous"] == [0, 1]


def test_full_matrix_matches_reference(kb1, kb2, editors, expected, monkeypatch):
    captured = {}
    real = evaluation.metric_triple

    def capture(trust, barnstars):
        captured[len(captured)] = dict(trust)
        return real(trust, barnstars)

    monkeypatch.setattr(evaluation, "metric_triple", capture)
    stars = {f.editor_id for f in editors[::5]}
    rows = run_matrix({"KB1": kb1, "KB2": kb2}, editors, stars, jobs=1)
    assert [c.id for c, _t in rows] == list(MODEL_REGISTRY)
    trust_by_model = {c.id: captured[i] for i, (c, _t) in enumerate(rows)}
    bad = [m for mid in MODEL_REGISTRY
           for m in _mismatches(trust_by_model[mid], expected[mid], mid)]
    assert bad == []
    for config, triple in rows:
        got = (triple.rank_of_barnstars, triple.spread, triple.na_pct)
        for g, w in zip(got, ref.ref_metrics(expected[config.id], stars)):
            assert (g is None) == (w is None), config.id
            assert g is None or abs(g - w) <= 1e-6, config.id


def test_run_model_sample_matches_reference(kb1, kb2, editors, expected):
    kbs = {"KB1": kb1, "KB2": kb2}
    sample = random.Random(MODEL_SAMPLE_SEED).sample(list(MODEL_REGISTRY), MODEL_SAMPLE)
    bad = []
    for mid in sample:
        config = MODEL_REGISTRY[mid]
        bad += _mismatches(run_model(config, kbs[config.kb_id], editors), expected[mid], mid)
    assert bad == []
