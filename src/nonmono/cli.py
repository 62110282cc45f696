"""Command-line front end: extract, infer, evaluate, run-matrix, kb validate, report.

Exit codes: 0 success, 1 user or input error, 2 internal invariant violation.
``NONMONO_LOG`` (error|warn|info|debug) sets the log level.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

from . import evaluation, plots
from .evaluation import read_trust_csv
from .ingest import (
    WIKI_START_DEFAULT,
    DumpParseError,
    accumulate,
    finalize,
    parse_timestamp,
    read_barnstars,
    read_features_csv,
    stream_revisions,
    write_features_csv,
)
from .kb.parser import BUILTIN_IDS, load_builtin, parse_kb

log = logging.getLogger(__name__)

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class UserError(Exception):
    """Input problem attributable to the invocation, not the code."""


# what reading a file, a date or a knowledge base named by the invocation raises
_INPUT_ERRORS = (OSError, ValueError, csv.Error)


def _as_user_error(fn, *args, errors=_INPUT_ERRORS):
    """``fn(*args)``, where ``fn`` reads or writes what the invocation named,
    so the ``errors`` it raises are the invocation's (exit 1).  Exceptions
    raised anywhere else are internal (exit 2)."""
    try:
        return fn(*args)
    except errors as e:
        raise UserError(e.args[0] if isinstance(e, KeyError) else str(e)) from None


def _open_dump(path: Path):
    """The dump as a binary stream, decompressed when it starts with the
    gzip or the bzip2 magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(3)
    if magic.startswith(b"\x1f\x8b"):
        import gzip
        return gzip.open(path, "rb")
    if magic == b"BZh":
        import bz2
        return bz2.open(path, "rb")
    return open(path, "rb")


def cmd_extract(args) -> int:
    dump = Path(args.dump)
    if not dump.is_file():
        raise UserError(f"dump file not found: {dump}")
    dump_instant = _as_user_error(parse_timestamp, args.dump_date)
    wiki_start = (_as_user_error(parse_timestamp, args.wiki_start) if args.wiki_start
                  else WIKI_START_DEFAULT)
    if dump_instant <= wiki_start:
        raise UserError(f"--dump-date {dump_instant.isoformat()} is not after the wiki "
                        f"start {wiki_start.isoformat()}")
    if args.window_days < 1:
        raise UserError(f"--window-days must be 1 or more, not {args.window_days}")
    try:
        with _open_dump(dump) as fh:
            revisions = stream_revisions(fh)
            editors = accumulate(revisions, dump_instant)
    except (OSError, EOFError, DumpParseError) as e:
        # a truncated compressed dump raises EOFError
        raise UserError(str(e)) from None
    features = [finalize(editors[e], dump_instant, wiki_start, args.window_days)
                for e in sorted(editors)]
    _as_user_error(write_features_csv, features, args.out, errors=OSError)
    print(f"{len(features)} editors, {sum(f.activity for f in features)} revisions, "
          f"{revisions.skipped} skipped")
    return 0


def cmd_infer(args) -> int:
    config = evaluation.MODEL_REGISTRY.get(args.model)
    if config is None:
        raise UserError(f"unknown model id {args.model!r}")
    kb = load_builtin(config.kb_id)
    features = _as_user_error(read_features_csv, args.features)
    if not features:
        raise UserError(f"{args.features}: no editors")
    steps = None
    if args.explain is not None:
        if all(f.editor_id != args.explain for f in features):
            raise UserError(f"editor {args.explain!r} not present in {args.features}")
        # the explanation reads the stage results of the walk that writes the trust file
        steps = {args.explain: []}
    trust = evaluation.run_model(config, kb, features, steps)
    _as_user_error(evaluation.write_trust_csv, trust, config.id, args.out, errors=OSError)
    if steps is not None:
        print(json.dumps(evaluation.explain(config, args.explain, steps[args.explain]),
                         indent=2))
    assigned = sum(1 for v in trust.values() if v is not None)
    print(f"{len(trust)} editors, {assigned} with assigned trust")
    return 0


def cmd_evaluate(args) -> int:
    trust = _as_user_error(read_trust_csv, args.trust)
    if not trust:
        raise UserError(f"{args.trust}: no editors")
    barnstars = _as_user_error(read_barnstars, args.barnstars)
    triple = evaluation.metric_triple(trust, barnstars)
    fmt = lambda v: "NA" if v is None else f"{v:.4f}"
    print(f"rank={fmt(triple.rank_of_barnstars)} spread={fmt(triple.spread)} "
          f"na_pct={fmt(triple.na_pct)}")
    return 0


def _write_plots(results, baseline_by_metric, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics = (
        ("rank", "Rank of Barnstars", lambda t: t.rank_of_barnstars),
        ("spread", "Spread", lambda t: t.spread),
        ("na_pct", "Percentage of NAs", lambda t: t.na_pct),
    )
    written = []
    for key, title, get in metrics:
        rows = [(mid, get(t)) for mid, t in results if get(t) is not None]
        rows.sort(key=lambda r: (r[1], r[0]))
        svg = plots.svg_bar_chart(
            title,
            [mid for mid, _v in rows],
            [v for _mid, v in rows],
            baseline=baseline_by_metric.get(key),
        )
        path = out_dir / f"{key}.svg"
        path.write_text(svg, encoding="utf-8")
        written.append(path)
    return written


def _baseline(features, barnstars: set[str]) -> dict[str, float | None]:
    """The rank and spread of the feature-average baseline, which the
    charts draw as a line."""
    trust = _as_user_error(evaluation.baseline_feature_average, features)
    return {"rank": evaluation.rank_of_barnstars(trust, barnstars),
            "spread": evaluation.spread(trust, barnstars)}


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU the machine has."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_run_matrix(args) -> int:
    if args.jobs < 0:
        raise UserError(f"--jobs must be 0 (the usable CPUs) or more, not {args.jobs}")
    if any(c in args.dataset for c in "\r\n"):
        # the results reader numbers records, not lines, so a quoted line
        # break would misplace the line of every later error
        raise UserError(f"--dataset must not contain a line break: {args.dataset!r}")
    model_filter = args.models.split(",") if args.models is not None else None
    _as_user_error(evaluation.select_models, model_filter, errors=KeyError)
    features = _as_user_error(read_features_csv, args.features)
    if not features:
        raise UserError(f"{args.features}: no editors")
    if not Path(args.barnstars).is_file():
        raise UserError(f"barnstars file not found: {args.barnstars}")
    barnstars = _as_user_error(read_barnstars, args.barnstars)
    kb_set = {kb_id: load_builtin(kb_id) for kb_id in BUILTIN_IDS}
    jobs = args.jobs if args.jobs else available_cpus()
    results = evaluation.run_matrix(kb_set, features, barnstars, model_filter, jobs=jobs)
    _as_user_error(evaluation.write_results_csv, results, args.dataset, args.out, errors=OSError)
    completed = sum(1 for _c, t in results if t.na_pct is not None and t.na_pct < 100.0)
    if args.plots:
        _as_user_error(_write_plots, [(c.id, t) for c, t in results],
                       _baseline(features, barnstars),
                       Path(args.plot_dir or Path(args.out).parent), errors=OSError)
    print(f"{len(results)} models, {completed} produced at least one trust value")
    if results and completed == 0:
        raise UserError("no model produced any trust value")
    return 0


def cmd_kb_validate(args) -> int:
    path = Path(args.file)
    if not path.is_file():
        raise UserError(f"knowledge base file not found: {path}")
    text = _as_user_error(path.read_text, "utf-8")
    result = _as_user_error(parse_kb, text)
    for diag in result.diagnostics:
        print(diag)
    if result.kb is None:
        return 1
    print(f"ok: {len(result.kb.features)} features, {len(result.kb.rules)} rules, "
          f"{len(result.kb.contradictions)} contradictions")
    return 0


def cmd_report(args) -> int:
    if (args.features is None) != (args.barnstars is None):
        missing = "--barnstars" if args.barnstars is None else "--features"
        raise UserError(f"the baseline needs both --features and --barnstars; {missing} is missing")
    rows = _as_user_error(evaluation.read_results_csv, args.results)
    triples = [
        (mid, evaluation.MetricTriple(rank, spr, na))
        for mid, _ds, rank, spr, na in rows
    ]
    baseline_by_metric = {}
    if args.features is not None:
        features = _as_user_error(read_features_csv, args.features)
        barnstars = _as_user_error(read_barnstars, args.barnstars)
        baseline_by_metric = _baseline(features, barnstars)
    written = _as_user_error(_write_plots, triples, baseline_by_metric, Path(args.out_dir),
                             errors=OSError)
    print("\n".join(str(p) for p in written))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nonmono")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="dump XML -> per-editor features CSV")
    p.add_argument("--dump", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-date", required=True, help="ISO-8601 instant of the dump")
    p.add_argument("--window-days", type=int, default=30)
    p.add_argument("--wiki-start", default=None, help="ISO-8601 wiki start instant")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("infer", help="run one model over a features CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--explain", default=None, metavar="EDITOR_ID")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("evaluate", help="metrics of a trust CSV")
    p.add_argument("--trust", required=True)
    p.add_argument("--barnstars", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run-matrix", help="run the model matrix and write results")
    p.add_argument("--features", required=True)
    p.add_argument("--barnstars", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--models", default=None, help="comma-separated model ids")
    p.add_argument("--dataset", default="dataset")
    p.add_argument("--jobs", type=int, default=0,
                   help="processes, this one included; 0 = the CPUs this process may run on")
    p.add_argument("--plots", action="store_true")
    p.add_argument("--plot-dir", default=None)
    p.set_defaults(func=cmd_run_matrix)

    p = sub.add_parser("kb", help="knowledge base utilities")
    kb_sub = p.add_subparsers(dest="kb_command", required=True)
    v = kb_sub.add_parser("validate", help="parse a .kb file and print diagnostics")
    v.add_argument("file")
    v.set_defaults(func=cmd_kb_validate)

    p = sub.add_parser("report", help="render SVG charts from a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--features", default=None)
    p.add_argument("--barnstars", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("NONMONO_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except UserError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception:
        log.exception("internal error")
        return 2


if __name__ == "__main__":
    sys.exit(main())
