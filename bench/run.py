"""Benchmark of nonmono: dump ingest and the 68-model evaluation matrix.

Run from the repository root:

    python3 bench/run.py --workload matrix-uniform --seed 1 --seconds 22 --trace 0

The run generates its inputs from the seed into ``.bench_work/``, repeats
the workload's pass for ``--seconds`` seconds, checks every output against
``tests/reference_impl.py`` and prints a manifest line followed by one JSON
result line.  With ``--trace 0`` the result holds the end-to-end metrics,
with times scaled to a reference host speed that ``calibrate()`` measures
around every pass.  With ``--trace 1`` untraced passes alternate with passes
run under span-recording wrappers rebound over the package's functions, and
the result holds the per-layer metrics.  The exit status is 0 when every
check passed, 1 when one failed and 2 when the run could not start.
``bench/README.md`` describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import logging
import os
import pickle
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import gate
import gen
from spans import Tracer

WORK_DIR = ".bench_work"
DATASET = "bench"
CRISP_MODELS = tuple([f"E{i}" for i in range(1, 9)] + [f"A{i}" for i in range(1, 13)])
WORKLOADS = {
    "matrix-uniform": {"inputs": "uniform", "jobs": 1, "models": None},
    "matrix-uniform-j2": {"inputs": "uniform", "jobs": 2, "models": None},
    "crisp-boundary": {"inputs": "boundary", "jobs": 1, "models": CRISP_MODELS},
    "ingest-dump": {"inputs": "dump", "jobs": 1},
}
# Input sizes keep one pass at one to four seconds, so that a run holds
# several passes and reports their median.
UNIFORM_EDITORS = 10
BOUNDARY_EDITORS = 120
DUMP_SIZE = {"n_editors": 4000, "n_revisions": 50_000, "n_skipped": 50}
GATE_DUMP_SIZE = {"n_editors": 40, "n_revisions": 600, "n_skipped": 0}
GATE_SAMPLE = {"uniform": 4, "boundary": 12}
FMF_COUNT_EDITORS = 2
SETUP_REPEATS = 15
SETUP_PROBES_PER_CALIBRATION = 3
# wall time of calibrate() at the reference host speed; the time metrics are
# reported as if the host ran at that speed
CALIBRATION_REFERENCE_S = 0.25
# A slow spell of the host stretches the calibration loop more than it
# stretches a pass.  Across 10-seed sets on a 2-vCPU host, scaling by the
# 0.85 power of the calibration ratio gave the smallest spread on every
# workload; the plain ratio over-corrected.
CALIBRATION_EXPONENT = 0.85
KB_LOADS_TRACED = 3
MIN_PASSES = 3
MIN_PAIRS = 2

SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    "import nonmono\n"
    "nonmono.load_builtin('KB1')\n"
    "nonmono.load_builtin('KB2')\n"
    "print(repr(time.perf_counter() - t0))\n"
)

END_TO_END = {"ops_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
FUZZY_STAGES = ("fuzzify", "initial_necessities", "resolve_possibility",
                "apply_rule_weights", "aggregate_levels", "defuzzify")
EXPERT_STAGES = ("activate_rules", "resolve_contradictions", "aggregate")
ARG_TIMED = ("elicit_subaf", "argument_value", "grounded", "complete", "preferred",
             "categoriser", "accrue")
ENGINES = ("expert", "fuzzy", "argumentation")
PER_LAYER = {
    "kb.load_builtin.s": "s",
    "kb.contradiction_graph.calls": "count",
    "kb.contradiction_graph.s": "s",
    "kb.Fmf.calls_per_editor_model": "count",
    **{f"fuzzy.{f}.{k}": u for f in FUZZY_STAGES for k, u in (("s", "s"), ("calls", "count"))},
    **{f"expert.{f}.{k}": u for f in EXPERT_STAGES for k, u in (("s", "s"), ("calls", "count"))},
    "expert.activated.mean": "count",
    "expert.retracted.mean": "count",
    "argumentation.build_af.calls": "count",
    "argumentation.build_af.s": "s",
    **{f"argumentation.{f}.s": "s" for f in ARG_TIMED},
    "argumentation.complete.p50_ms": "ms",
    "argumentation.complete.p99_ms": "ms",
    "argumentation.subaf_args.mean": "count",
    "argumentation.subaf_args.max": "count",
    "argumentation.undec.max": "count",
    "argumentation.complete_labellings.mean": "count",
    **{f"evaluation.run_model.{e}.{k}": "s" for e in ENGINES for k in ("s", "total_s")},
    "evaluation.run_matrix.s": "s",
    "evaluation.metric_triple.s": "s",
    "evaluation.write_results_csv.s": "s",
    "evaluation.pool.task_bytes": "bytes",
    "evaluation.pool.cpu_util": "ratio",
    "evaluation.pool.task_imbalance": "ratio",
    "evaluation.warnings": "count",
    "evaluation.warnings.distinct": "count",
    "evaluation.fail_pct": "%",
    "ingest.parse.s": "s",
    "ingest.accumulate.s": "s",
    "ingest.finalize.s": "s",
    "ingest.read_features_csv.s": "s",
    "ingest.write_features_csv.s": "s",
    "ingest.revisions": "count",
    "ingest.skipped": "count",
    "ingest.editors": "count",
    "ingest.mb_per_s": "MB/s",
    "trace.overhead_pct": "%",
}


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def calibrate() -> tuple[float, float]:
    """Wall and CPU time of a fixed pure-Python loop that uses nothing of
    nonmono.

    The speed of a small shared host drifts by up to 2x over minutes.  The
    loop runs between passes, so its median follows that drift over the
    same window as the passes' median.  The cyclic garbage collector is off
    while it runs, so the program's heap does not change its cost.  Wall
    times are scaled by the wall time of the loop and CPU times by its CPU
    time: in a slow spell a pass's wall time grows more than its CPU time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        table: dict = {}
        acc = 0.0
        for i in range(200_000):
            p = _Point(i % 101, i * 0.5)
            key = (p.a, i & 7)
            table[key] = table.get(key, 0.0) + min(p.b, 3.0)
            acc = max(acc, table[key]) if i & 1 else acc + p.b % 7
        return time.perf_counter() - t0, time.process_time() - c0
    finally:
        if was_enabled:
            gc.enable()


def slowdown(before: float, after: float) -> float:
    """Host slowdown against the reference speed, from the calibrations
    taken just before and just after a measurement."""
    return ((before + after) / 2 / CALIBRATION_REFERENCE_S) ** CALIBRATION_EXPONENT


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout; None outside a git clone."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def reference_results_csv(trust: dict[str, dict], barnstars: set[str]) -> str:
    """The results CSV that ``write_results_csv`` must write, computed by the
    reference implementation from its own per-model trust."""
    import reference_impl as ref

    fmt = lambda v: "" if v is None else f"{v:.4f}"
    lines = ["model_id,dataset,rank,spread,na_pct"]
    for mid, model_trust in trust.items():
        metrics = ref.ref_metrics(model_trust, barnstars)
        lines.append(",".join([mid, DATASET, *map(fmt, metrics)]))
    return "\n".join(lines) + "\n"


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Observed:
    """Values the traced wrappers see besides time."""

    def __init__(self):
        self.activated: list[int] = []
        self.retracted: list[int] = []
        self.subaf_args: list[int] = []
        self.undec: list[int] = []
        self.complete_ms: list[float] = []
        self.labellings: list[int] = []
        self.model_time: Counter[str] = Counter()

    def add_model_time(self, _result, duration, args):
        self.model_time[args[0].id] += duration


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, log: gate.LogCounter):
        import nonmono
        from nonmono import evaluation, ingest

        self.nonmono, self.ev, self.ingest = nonmono, evaluation, ingest
        self.workload, self.seed, self.seconds, self.log = workload, seed, seconds, log
        self.spec = WORKLOADS[workload]
        self.jobs = self.spec["jobs"]
        self.work = os.path.join(WORK_DIR, workload)
        os.makedirs(self.work, exist_ok=True)
        self.attempted = 0
        self.mismatches: list[str] = []
        self.digests: list[str] = []
        self.records: dict[str, list[tuple[float, float, int]]] = {}
        self.ingest_counts: dict[str, list[dict]] = {}
        self.calibration: dict[str, list[tuple[float, float]]] = {}
        self.raw: dict[str, float] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    # ------------------------------------------------------------ inputs

    def prepare(self) -> None:
        kind = self.spec["inputs"]
        if kind == "dump":
            self.dump_path = self.path("dump.xml")
            self.truth = gen.write_dump(self.dump_path, self.seed, **DUMP_SIZE)
            self.out_path = self.path("features.csv")
            self.inputs = {**self.truth, "dump_bytes": os.path.getsize(self.dump_path)}
            return
        self.kbs = {k: self.nonmono.load_builtin(k) for k in ("KB1", "KB2")}
        if kind == "uniform":
            self.rows = gen.uniform_editors(self.seed, UNIFORM_EDITORS)
        else:
            self.rows = gen.boundary_editors(self.seed, BOUNDARY_EDITORS, self.kbs["KB1"])
        self.features_path = self.path("features.csv")
        self.stars_path = self.path("barnstars.txt")
        gen.write_features(self.features_path, self.rows)
        gen.write_barnstars(self.stars_path, self.rows)
        wanted = self.spec["models"]
        self.models = [m for m in self.ev.MODEL_REGISTRY if wanted is None or m in wanted]
        self.out_path = self.path("results.csv")
        self.inputs = {"editors": len(self.rows), "models": len(self.models), "jobs": self.jobs}

    # ------------------------------------------------------------ passes

    def matrix_pass(self, jobs: int, out_path: str) -> int:
        features = self.ingest.read_features_csv(self.features_path)
        stars = self.ingest.read_barnstars(self.stars_path)
        results = self.ev.run_matrix(self.kbs, features, stars,
                                     model_filter=self.models, jobs=jobs)
        self.ev.write_results_csv(results, DATASET, out_path)
        return len(features) * len(self.models)

    def ingest_pass(self, dump_path: str, out_path: str):
        with open(dump_path, "rb") as fh:
            features = self.ingest.extract_features(fh, gen.DUMP_DATE)
        self.ingest.write_features_csv(features, out_path)
        return features

    def one_pass(self, label: str) -> float:
        """Run the workload's pass once and record (wall, cpu, ops) under
        ``label``.  Outputs are checked after the timed span."""
        skipped_before = self.log.skipped_revisions
        c0, t0 = cpu_seconds(), time.perf_counter()
        if self.spec["inputs"] == "dump":
            result = self.ingest_pass(self.dump_path, self.out_path)
        else:
            result = self.matrix_pass(self.jobs, self.out_path)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        if self.spec["inputs"] == "dump":
            observed = {"revisions": sum(f.activity for f in result),
                        "skipped": self.log.skipped_revisions - skipped_before,
                        "editors": len(result)}
            del result
            self.mismatches += gate.check_ingest_counts(observed, self.truth)
            self.ingest_counts.setdefault(label, []).append(observed)
            ops = observed["revisions"]
            self.attempted += 1
        else:
            ops = result
            self.attempted += result
        self.digests.append(file_digest(self.out_path))
        self.records.setdefault(label, []).append((wall, cpu, ops))
        return wall

    def repeat(self, step, budget: float, min_steps: int) -> None:
        """Call ``step`` (which returns its wall time) until another call
        would overrun ``budget`` seconds, and at least ``min_steps`` times."""
        start, steps = time.perf_counter(), 0
        while True:
            last = step()
            steps += 1
            if steps >= min_steps and time.perf_counter() - start + last > budget:
                return

    # ------------------------------------------------------------ gate

    def gate(self, model_times: Observed | None = None) -> None:
        if self.spec["inputs"] == "dump":
            self.gate_ingest()
        else:
            self.gate_matrix(model_times)

    def gate_matrix(self, model_times: Observed | None) -> None:
        import reference_impl as ref

        if self.jobs > 1:
            # the same call at jobs=1 is the reference for the pooled output
            tracer = Tracer()
            if model_times is not None:
                tracer.install(self.ev, "run_model", "run_model", model_times.add_model_time)
            try:
                self.attempted += self.matrix_pass(1, self.path("results_jobs1.csv"))
            finally:
                tracer.restore()
            reference = file_digest(self.path("results_jobs1.csv"))
        else:
            reference = self.digests[0]
        self.mismatches += gate.check_same(self.digests, reference, "results CSV")

        vecs = {row["editor_id"]: {c: float(row[c]) for c in gen.FEATURE_COLUMNS[1:]}
                for row in self.rows}
        expected = {mid: ref.model_trust(mid, vecs) for mid in self.models}
        # the output of the timed passes, which all equal the last one
        with open(self.out_path, encoding="utf-8") as fh:
            self.mismatches += gate.compare_results(
                fh.read(), reference_results_csv(expected, set(gen.barnstar_ids(self.rows))))

        k = GATE_SAMPLE[self.spec["inputs"]]
        picked = random.Random(f"gate-{self.seed}").sample(range(len(self.rows)), k)
        sample = {self.rows[i]["editor_id"] for i in picked}
        features = [f for f in self.ingest.read_features_csv(self.features_path)
                    if f.editor_id in sample]
        for mid in self.models:
            config = self.ev.MODEL_REGISTRY[mid]
            trust = self.ev.run_model(config, self.kbs[config.kb_id], features)
            self.attempted += len(features)
            self.mismatches += gate.compare_trust(
                trust, {e: expected[mid][e] for e in sample}, mid)

    def gate_ingest(self) -> None:
        import reference_impl as ref

        self.mismatches += gate.check_same(self.digests, self.digests[0], "features CSV")
        small = self.path("gate_dump.xml")
        gen.write_dump(small, self.seed, **GATE_DUMP_SIZE)
        out = self.path("gate_features.csv")
        self.ingest_pass(small, out)
        self.attempted += 1
        with open(out, encoding="utf-8", newline="") as fh:
            program = {row["editor_id"]: {c: float(row[c]) for c in gen.FEATURE_COLUMNS[1:]}
                       for row in csv.DictReader(fh)}
        self.mismatches += gate.compare_features(
            program, ref.extract_features_dom(small, gen.DUMP_DATE))

    # ------------------------------------------------------------ metrics

    def setup_seconds(self) -> tuple[float, float]:
        """Median over fresh interpreters of import plus both KB loads,
        unscaled and scaled.  Calibration runs before each group of probes
        and after the last one; a probe is scaled by the two calibrations
        around its group."""
        cal = self.calibration.setdefault("setup", [calibrate()])
        times, slows = [], []
        for i in range(SETUP_REPEATS):
            done = subprocess.run([sys.executable, "-c", SETUP_PROBE], capture_output=True,
                                  text=True, check=True, timeout=120)
            times.append(float(done.stdout.split()[-1]))
            if (i + 1) % SETUP_PROBES_PER_CALIBRATION == 0 or i + 1 == SETUP_REPEATS:
                cal.append(calibrate())
                slows += [slowdown(cal[-2][0], cal[-1][0])] * (len(times) - len(slows))
        return (statistics.median(times),
                statistics.median(t / slow for t, slow in zip(times, slows)))

    def peak_rss_mib(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if self.jobs > 1 else 0
        return (own + self.jobs * workers) / 1024.0  # ru_maxrss is in KiB

    def end_to_end(self) -> dict[str, float]:
        cal = self.calibration.setdefault("passes", [calibrate()])

        def step() -> float:
            wall = self.one_pass("untraced")
            cal.append(calibrate())
            return wall + cal[-1][0]

        self.repeat(step, self.seconds, MIN_PASSES)
        records = self.records["untraced"]
        rss = self.peak_rss_mib()
        self.gate()
        # a pass is scaled by the calibrations just before and after it
        slows = [slowdown(a[0], b[0]) for a, b in zip(cal, cal[1:])]
        cpu_slows = [slowdown(a[1], b[1]) for a, b in zip(cal, cal[1:])]
        setup_raw, setup_scaled = self.setup_seconds()
        self.raw = {
            "ops_per_s": statistics.median(o / w for w, _c, o in records),
            "cpu_s": statistics.median(c for _w, c, _o in records),
            "setup_s": setup_raw,
        }
        return {
            "ops_per_s": statistics.median(
                o / w * slow for (w, _c, o), slow in zip(records, slows)),
            "cpu_s": statistics.median(
                c / slow for (_w, c, _o), slow in zip(records, cpu_slows)),
            "peak_rss_mb": rss,
            "setup_s": setup_scaled,
        }

    def instrument(self, tracer: Tracer, obs: Observed) -> None:
        from nonmono import argumentation, expert, fuzzy
        from nonmono.kb import model, parser

        ev, ingest = self.ev, self.ingest
        tracer.install(parser, "load_builtin", "kb.load_builtin")
        tracer.install(model, "contradiction_graph", "kb.contradiction_graph")
        for stage in FUZZY_STAGES:
            tracer.install(fuzzy, stage, f"fuzzy.{stage}")
        tracer.install(expert, "activate_rules", "expert.activate_rules",
                       lambda r, _d, _a: obs.activated.append(len(r)))
        tracer.install(expert, "resolve_contradictions", "expert.resolve_contradictions",
                       lambda r, _d, _a: obs.retracted.append(len(r[1])))
        tracer.install(expert, "aggregate", "expert.aggregate")
        tracer.install(argumentation, "build_af", "argumentation.build_af")
        tracer.install(argumentation, "elicit_subaf", "argumentation.elicit_subaf",
                       lambda r, _d, _a: obs.subaf_args.append(len(r.arguments)))
        tracer.install(argumentation, "argument_value", "argumentation.argument_value")
        tracer.install(argumentation, "grounded", "argumentation.grounded",
                       lambda r, _d, _a: obs.undec.append(len(r.undec_set())))

        def on_complete(result, duration, _args):
            obs.complete_ms.append(duration * 1000.0)
            obs.labellings.append(len(result))

        tracer.install(argumentation, "complete", "argumentation.complete", on_complete)
        tracer.install(argumentation, "preferred", "argumentation.preferred")
        tracer.install(argumentation, "categoriser", "argumentation.categoriser")
        tracer.install(argumentation, "accrue_extensions", "argumentation.accrue")
        tracer.install(argumentation, "accrue_categoriser", "argumentation.accrue")
        tracer.install(ev, "run_model", lambda args: f"evaluation.run_model.{args[0].engine}",
                       obs.add_model_time)
        for name in ("run_matrix", "metric_triple", "write_results_csv"):
            tracer.install(ev, name, f"evaluation.{name}")
        tracer.install(ingest.RevisionStream, "__next__", "ingest.parse")
        for name in ("accumulate", "finalize", "read_features_csv", "write_features_csv"):
            tracer.install(ingest, name, f"ingest.{name}")

    def fmf_calls_per_editor_model(self) -> float:
        from nonmono.kb.model import Fmf

        features = self.ingest.read_features_csv(self.features_path)[:FMF_COUNT_EDITORS]
        counter = Tracer()
        counter.install(Fmf, "__call__", "fmf")
        try:
            for mid in self.models:
                config = self.ev.MODEL_REGISTRY[mid]
                self.ev.run_model(config, self.kbs[config.kb_id], features)
        finally:
            counter.restore()
        evaluations = len(features) * len(self.models)
        self.attempted += evaluations
        return counter.span("fmf").calls / evaluations

    def task_bytes(self) -> int:
        features = self.ingest.read_features_csv(self.features_path)
        return sum(
            len(pickle.dumps((cfg, self.kbs[cfg.kb_id], features)))
            for cfg in (self.ev.MODEL_REGISTRY[m] for m in self.models)
        )

    def per_layer(self) -> dict[str, float]:
        tracer, obs = Tracer(), Observed()
        traced_warnings = 0

        def traced_pass() -> float:
            nonlocal traced_warnings
            before = self.log.warnings
            self.instrument(tracer, obs)
            try:
                return self.one_pass("traced")
            finally:
                tracer.restore()
                traced_warnings += self.log.warnings - before

        # untraced and traced passes alternate, so drift in machine speed
        # reaches both sides of trace.overhead_pct alike
        self.repeat(lambda: self.one_pass("untraced") + traced_pass(),
                    self.seconds, MIN_PAIRS)
        untraced, traced = self.records["untraced"], self.records["traced"]
        self.instrument(tracer, obs)
        try:
            for _ in range(KB_LOADS_TRACED):
                self.nonmono.load_builtin("KB1")
                self.nonmono.load_builtin("KB2")
        finally:
            tracer.restore()
        warnings_per_pass = traced_warnings / len(traced)
        # task sizes: from the traced passes at jobs 1, from the gate's
        # jobs-1 reference run on the pool workload
        imbalance_obs = obs if self.jobs == 1 else Observed()
        self.gate(imbalance_obs)

        n = len(traced)
        m: dict[str, float] = {name: 0.0 for name in PER_LAYER}
        for span, st in tracer.stats.items():
            for suffix, value in (("s", st.self_time), ("calls", st.calls), ("total_s", st.total)):
                if f"{span}.{suffix}" in m:
                    m[f"{span}.{suffix}"] = value / n
        m["kb.load_builtin.s"] = tracer.span("kb.load_builtin").self_time / KB_LOADS_TRACED
        mean = lambda xs: statistics.fmean(xs) if xs else 0.0
        m["expert.activated.mean"] = mean(obs.activated)
        m["expert.retracted.mean"] = mean(obs.retracted)
        m["argumentation.complete.p50_ms"] = percentile(obs.complete_ms, 50)
        m["argumentation.complete.p99_ms"] = percentile(obs.complete_ms, 99)
        m["argumentation.subaf_args.mean"] = mean(obs.subaf_args)
        m["argumentation.subaf_args.max"] = max(obs.subaf_args, default=0)
        m["argumentation.undec.max"] = max(obs.undec, default=0)
        m["argumentation.complete_labellings.mean"] = mean(obs.labellings)
        times = list(imbalance_obs.model_time.values())
        if times:
            m["evaluation.pool.task_imbalance"] = max(times) / statistics.fmean(times)
        m["evaluation.pool.cpu_util"] = statistics.median(
            c / (w * self.jobs) for w, c, _o in untraced)
        m["evaluation.warnings"] = warnings_per_pass
        m["evaluation.warnings.distinct"] = len(self.log.by_template)
        m["trace.overhead_pct"] = 100.0 * (
            statistics.median(w for w, _c, _o in traced)
            / statistics.median(w for w, _c, _o in untraced) - 1.0)
        if self.spec["inputs"] == "dump":
            for key in ("revisions", "skipped", "editors"):
                m[f"ingest.{key}"] = statistics.median(
                    counts[key] for counts in self.ingest_counts["traced"])
            m["ingest.mb_per_s"] = self.inputs["dump_bytes"] / 1e6 / statistics.median(
                w for w, _c, _o in untraced)
        else:
            m["kb.Fmf.calls_per_editor_model"] = self.fmf_calls_per_editor_model()
            m["evaluation.pool.task_bytes"] = self.task_bytes()
        m["evaluation.fail_pct"] = 100.0 * self.failed() / self.attempted
        return m

    # ------------------------------------------------------------ report

    def failed(self) -> int:
        return self.log.failures + len(self.mismatches)

    def manifest(self, trace: int) -> dict:
        from importlib import resources

        data = resources.files("nonmono.kb").joinpath("data")
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": trace,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "nonmono_version": self.nonmono.__version__,
            "kb_sha256": {name: hashlib.sha256(data.joinpath(name).read_bytes()).hexdigest()
                          for name in ("kb1.kb", "kb2.kb")},
            "git_commit": git_commit(),
            "inputs": self.inputs,
            "pass_wall_s": {label: [w for w, _c, _o in recs]
                            for label, recs in self.records.items()},
            "calibration_s": self.calibration,
            "unscaled": self.raw,
            "engine_failures": self.log.failures,
            "framework_too_large": self.log.too_large,
            "gate_mismatches": self.mismatches[:20],
            "warnings": self.log.table(),
        }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (os.path.isfile(os.path.join("src", "nonmono", "__init__.py"))
            and os.path.isfile(os.path.join("tests", "reference_impl.py"))):
        print("bench: run from the repository root; src/nonmono and "
              "tests/reference_impl.py are needed", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.abspath("src"), os.path.abspath("tests")]
    log = gate.LogCounter()
    logging.getLogger("nonmono").addHandler(log)
    bench = Bench(args.workload, args.seed, args.seconds, log)
    bench.prepare()
    if args.trace:
        values, units = bench.per_layer(), PER_LAYER
    else:
        values, units = bench.end_to_end(), END_TO_END
    failed = bench.failed()
    print("manifest " + json.dumps(bench.manifest(args.trace), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
