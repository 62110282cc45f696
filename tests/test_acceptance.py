"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""
import math
import random
import time


import reference_impl as ref
from conftest import GOLDEN
from nonmono import argumentation as arg
from nonmono import expert, fuzzy
from nonmono.cli import main
from nonmono.evaluation import MODEL_REGISTRY, rank_of_barnstars, run_matrix, spread
from nonmono.kb import parse_kb
from nonmono.kb.model import KnowledgeBase
from test_semantics_oracle import run_oracle


def report(number, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


EQ1_KB = """
feature f weight 1 domain [0.0, 1.0] {
    term on = [0.0, 1.0] fmf crisp(0.0, 1.0)
}
feature g weight 1 domain [0.0, 1.0] {
    term on = [0.0, 1.0] fmf crisp(0.0, 1.0)
}
trustlevel low = [0.0, 0.5] fmf crisp(0.0, 0.5)
trustlevel high = [0.5, 1.0] fmf crisp(0.5, 1.0)
rule R: IF f is on THEN trust is high
rule S: IF f is on THEN trust is high
contradiction C: IF g is on THEN NOT rule R, S
"""


def test_criterion_1_worked_example_parity(kb1):
    t0 = time.perf_counter()
    v_low = expert.rule_value(0.75, 0.75, 1.0, 0.75, 1.0)
    v_high = expert.rule_value(1.0, 0.75, 1.0, 0.75, 1.0)
    ops = fuzzy.OPERATORS["zadeh"]
    # the possibilistic update of necessity 0.3 with a support of 0.4 and an
    # attacker of 0.2: the support is a second rule inferring the same
    # level, and the attacker a contradiction that caps both rules
    eq_kb = parse_kb(EQ1_KB).kb
    capped = fuzzy.resolve_possibility(eq_kb, {"R": 0.3, "S": 0.4}, {("g", "on"): 0.2}, ops)
    eq1 = fuzzy.aggregate_levels(
        fuzzy.level_truths(eq_kb, capped, False, "triangular")).level_truths["high"]
    fv = dict(pages=17, activity=1, anonymous=1, not_minor=0.5, comments=0.1,
              presence=0.5, frequency=0.5, regularity=0.5, bytes=0)
    grades = fuzzy.fuzzify(fv, kb1)
    necs = fuzzy.initial_necessities(kb1, grades, ops)
    refuted = fuzzy.resolve_possibility(kb1, necs, grades, ops)["U2"]
    elapsed = time.perf_counter() - t0
    ok = (abs(v_low - 0.75) <= 1e-9 and abs(v_high - 1.0) <= 1e-9
          and abs(eq1 - 0.4) <= 1e-9 and abs(refuted) <= 1e-9 and elapsed < 1.0)
    report(1, ok, f"rule values {v_low}/{v_high}, possibilistic update {eq1}, "
                  f"refuted necessity {refuted} ({elapsed:.3f}s)")


def test_criterion_2_semantics_oracle():
    t0 = time.perf_counter()
    run_oracle(500)
    elapsed = time.perf_counter() - t0
    report(2, elapsed < 60.0,
           f"500 random frameworks match 3^n enumeration ({elapsed:.1f}s)")


def test_criterion_3_categoriser_fixed_points():
    t0 = time.perf_counter()
    mk = lambda atts: arg.ArgumentationFramework(
        {a: arg.Argument(a, "forecast", ((("f", "on"),),), 1, "high") for a in "AB"},
        atts)
    chain = arg.categoriser(mk((("B", "A"),)))
    mutual = arg.categoriser(mk((("A", "B"), ("B", "A"))))
    phi = (math.sqrt(5) - 1) / 2
    elapsed = time.perf_counter() - t0
    ok = (chain["A"] == 0.5 and abs(mutual["A"] - phi) <= 1e-6
          and abs(mutual["B"] - phi) <= 1e-6 and elapsed < 1.0)
    report(3, ok, f"chain score {chain['A']}, mutual pair {mutual['A']:.9f} "
                  f"vs {phi:.9f} ({elapsed:.3f}s)")


def test_criterion_4_kb_transcription(kb1, kb2):
    t0 = time.perf_counter()
    mutual_objects = sum(1 for c in kb2.contradictions.values() if c.mutual_with)
    elapsed = time.perf_counter() - t0
    ok = (len(kb1.rules) == 29 and len(kb1.contradictions) == 43
          and kb2.rules == kb1.rules
          and len(kb2.contradictions) == 55 + 2 * 252
          and mutual_objects == 2 * 252
          and elapsed < 1.0)
    report(4, ok, f"KB1 {len(kb1.rules)} rules / {len(kb1.contradictions)} "
                  f"contradictions, KB2 {len(kb2.contradictions)} contradictions "
                  f"({mutual_objects} from mutual rows) ({elapsed:.3f}s)")


def test_criterion_5_model_registry():
    rows = []
    for mid, kb, heuristic in ref.MODEL_TABLE:
        c = MODEL_REGISTRY[mid]
        rows.append((c.engine, c.kb_id, c.heuristic) == ("expert", kb, heuristic))
    for mid, kb, variant, op, defuzz, weighted in ref.FUZZY_MODELS:
        c = MODEL_REGISTRY[mid]
        rows.append((c.engine, c.kb_id, c.fmf_variant, c.operator, c.defuzz, c.use_weights)
                    == ("fuzzy", kb, variant, op, defuzz, weighted))
    for mid, kb, semantics, strength in ref.ARG_MODELS:
        c = MODEL_REGISTRY[mid]
        rows.append((c.engine, c.kb_id, c.semantics, c.use_strength)
                    == ("argumentation", kb, semantics, strength))
    ok = len(MODEL_REGISTRY) == 68 and len(rows) == 68 and all(rows)
    report(5, ok, f"{len(MODEL_REGISTRY)} model ids decode row-for-row "
                  f"against the independent table")


def test_criterion_6_cross_engine_oracle(kb1, feature_vectors):
    bare = KnowledgeBase(kb1.id, kb1.features, kb1.trust_levels, kb1.rules, {})
    worst = 0.0
    for fv in feature_vectors.values():
        survivors, _discarded = expert.resolve_contradictions(bare, expert.valuation(bare, fv))
        h3 = expert.aggregate(survivors, "h3")
        for semantics in ("grounded", "preferred", "categoriser", "stable"):
            out = arg.run_argumentation(bare, fv, semantics, False).trust
            worst = max(worst, abs(out - h3))
    report(6, worst <= 1e-12,
           f"binary accrual equals expert h3 (max deviation {worst:.2e})")


def test_criterion_7_na_patterns(kb1, kb2, fixture_features, barnstars):
    kb_set = {"KB1": kb1, "KB2": kb2}
    kb1_ids = [m for m, c in MODEL_REGISTRY.items() if c.kb_id == "KB1"]
    rows = dict((c.id, t) for c, t in run_matrix(kb_set, fixture_features, barnstars,
                                                 kb1_ids + ["A7", "A9"]))
    kb1_ok = all(rows[m].na_pct == 0.0 for m in kb1_ids)
    a9, a7 = rows["A9"].na_pct, rows["A7"].na_pct
    ok = kb1_ok and len(kb1_ids) == 34 and a9 > 0.0 and a7 == 0.0
    report(7, ok, f"34 KB1 models at na=0; grounded A9 na={a9:.2f} > 0 while "
                  f"preferred A7 na={a7:.2f}")


def test_criterion_8_metric_correctness():
    stars = {"b1", "b2"}
    perfect = rank_of_barnstars({"b1": 0.9, "b2": 0.8, "x": 0.2, "y": 0.1}, stars)
    worst = rank_of_barnstars({"b1": 0.1, "b2": 0.2, "x": 0.8, "y": 0.9}, stars)
    spr = spread({"a": 0.2, "b": 0.4, "c": 0.9}, {"a", "b", "c"})
    rng = random.Random(8)
    trust = {f"e{i}": rng.random() for i in range(25)}
    marked = {f"e{i}" for i in range(0, 25, 6)}
    base = rank_of_barnstars(trust, marked)
    invariant = True
    for _ in range(200):
        a, b, c = rng.uniform(0.1, 3.0), rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
        d = rng.uniform(-5.0, 5.0)
        transformed = {e: a * v + b * v ** 3 + c * math.atan(v) + d
                       for e, v in trust.items()}
        if abs(rank_of_barnstars(transformed, marked) - base) > 1e-9:
            invariant = False
            break
    ok = (perfect == 0.0 and worst == 100.0
          and abs(spr - 0.294392) <= 1e-6 and invariant)
    report(8, ok, f"rank endpoints {perfect}/{worst}, spread {spr:.6f}, "
                  f"200 monotone transforms leave the rank unchanged")


def test_criterion_9_golden_run(fixture_dump_path, barnstars_path, tmp_path):
    t0 = time.perf_counter()
    features_csv = tmp_path / "features.csv"
    results_csv = tmp_path / "results.csv"
    assert main(["extract", "--dump", str(fixture_dump_path), "--out",
                 str(features_csv), "--dump-date", "2021-01-15T00:00:00Z"]) == 0
    assert main(["run-matrix", "--features", str(features_csv),
                 "--barnstars", str(barnstars_path), "--out", str(results_csv),
                 "--dataset", "fixture", "--jobs", "1"]) == 0
    got = results_csv.read_bytes()
    want = (GOLDEN / "results_fixture.csv").read_bytes()
    elapsed = time.perf_counter() - t0
    ok = got == want and len(got.splitlines()) == 69 and elapsed < 30.0
    report(9, ok, f"pipeline results identical to the stored golden file "
                  f"({elapsed:.1f}s)")


def test_criterion_10_external_features_accepted(tmp_path, barnstars_path):
    rng = random.Random(99)
    rows = ["editor_id,anonymous,pages,activity,not_minor,comments,presence,"
            "frequency,regularity,bytes"]
    for i in range(100):
        anon = rng.random() < 0.3
        activity = rng.randint(1, 500)
        rows.append(",".join(map(str, [
            f"ext{i}", int(anon), rng.randint(1, min(activity, 300)), activity,
            round(rng.random(), 4), round(rng.random(), 4), round(rng.random(), 4),
            round(rng.random(), 4), round(rng.random(), 4), rng.randint(-2000, 800000),
        ])))
    features_csv = tmp_path / "external.csv"
    features_csv.write_text("\n".join(rows) + "\n")
    stars = tmp_path / "stars.txt"
    stars.write_text("".join(f"ext{i}\n" for i in range(0, 100, 9)))
    results_csv = tmp_path / "results.csv"
    rc = main(["run-matrix", "--features", str(features_csv), "--barnstars",
               str(stars), "--out", str(results_csv), "--jobs", "1"])
    lines = results_csv.read_text().splitlines()
    ok = rc == 0 and len(lines) == 69
    report(10, ok, f"externally supplied 100-editor features file ran the "
                   f"full matrix ({len(lines) - 1} rows)")
