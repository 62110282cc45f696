"""Model registry, evaluation metrics and the full model-matrix driver.

The registry enumerates the 68 model configurations (8 expert, 24 fuzzy with
linear membership functions, 24 fuzzy with gaussian ones, 12 argumentation)
over the two shipped knowledge bases.  Metrics judge a model by where it
ranks award-holding editors, how spread their trust values are, and how often
it fails to produce a value at all.
"""
from __future__ import annotations

import csv
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import argumentation, expert, fuzzy
from .ingest import FEATURE_NAMES, EditorFeatures
from .kb.model import KnowledgeBase

log = logging.getLogger(__name__)

TRUST_COLUMNS = ("editor_id", "model_id", "trust")
RESULT_COLUMNS = ("model_id", "dataset", "rank", "spread", "na_pct")


@dataclass(frozen=True)
class ModelConfig:
    id: str
    engine: str  # "expert" | "fuzzy" | "argumentation"
    kb_id: str
    heuristic: str | None = None
    operator: str | None = None
    defuzz: str | None = None
    fmf_variant: str | None = None
    use_weights: bool = False
    semantics: str | None = None
    use_strength: bool = False


def _build_registry() -> dict[str, ModelConfig]:
    registry: dict[str, ModelConfig] = {}
    for i, heuristic in enumerate(expert.HEURISTICS, start=1):
        registry[f"E{i}"] = ModelConfig(f"E{i}", "expert", "KB1", heuristic=heuristic)
        registry[f"E{i + 4}"] = ModelConfig(f"E{i + 4}", "expert", "KB2", heuristic=heuristic)
    fuzzy_grid = [
        (operator, defuzz, weights)
        for weights in (False, True)
        for operator in ("zadeh", "product", "lukasiewicz")
        for defuzz in ("centroid", "mean_of_max")
    ]
    for prefix, variant in (("FL", "triangular"), ("FC", "gaussian")):
        for i, (operator, defuzz, weights) in enumerate(fuzzy_grid, start=1):
            for kb_id, offset in (("KB1", 0), ("KB2", 12)):
                mid = f"{prefix}{i + offset}"
                registry[mid] = ModelConfig(
                    mid, "fuzzy", kb_id, operator=operator, defuzz=defuzz,
                    fmf_variant=variant, use_weights=weights,
                )
    arg_grid = [
        ("preferred", False), ("categoriser", False), ("grounded", False),
        ("preferred", True), ("categoriser", True), ("grounded", True),
    ]
    for i, (semantics, strength) in enumerate(arg_grid, start=1):
        for kb_id, offset in (("KB1", 0), ("KB2", 6)):
            mid = f"A{i + offset}"
            registry[mid] = ModelConfig(
                mid, "argumentation", kb_id, semantics=semantics, use_strength=strength,
            )
    order = (
        [f"E{i}" for i in range(1, 9)]
        + [f"FL{i}" for i in range(1, 25)]
        + [f"FC{i}" for i in range(1, 25)]
        + [f"A{i}" for i in range(1, 13)]
    )
    return {mid: registry[mid] for mid in order}


MODEL_REGISTRY: dict[str, ModelConfig] = _build_registry()


@dataclass(frozen=True)
class MetricTriple:
    rank_of_barnstars: float | None
    spread: float | None
    na_pct: float | None


def rank_of_barnstars(trust: Mapping[str, float | None], barnstars: set[str]) -> float | None:
    """Normalised sum of award-holder positions in the descending trust order.

    0 means every ranked award holder sits above every other editor, 100 the
    reverse; exact ties rank the non-holder above the holder.  Undefined,
    and None, unless both award holders and other editors are ranked.
    """
    ranked = sorted(
        ((editor, value) for editor, value in trust.items() if value is not None),
        key=lambda ev: (-ev[1], ev[0] in barnstars, ev[0]),
    )
    n = len(ranked)
    b_ranks = [i for i, (editor, _v) in enumerate(ranked, start=1) if editor in barnstars]
    b = len(b_ranks)
    if b == 0 or b == n:
        return None
    s = sum(b_ranks)
    s_min = b * (b + 1) / 2
    s_max = b * n - b * (b - 1) / 2
    if s_max == s_min:
        return 0.0
    return 100.0 * (s - s_min) / (s_max - s_min)


def spread(trust: Mapping[str, float | None], barnstars: set[str]) -> float | None:
    """Population standard deviation of award holders' assigned trust; None
    when no award holder has one."""
    values = [v for e, v in trust.items() if e in barnstars and v is not None]
    if not values:
        return None
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def na_percentage(trust: Mapping[str, float | None]) -> float:
    if not trust:
        raise ValueError("na_percentage requires at least one editor")
    missing = sum(1 for v in trust.values() if v is None)
    return 100.0 * missing / len(trust)


def metric_triple(trust: Mapping[str, float | None], barnstars: set[str]) -> MetricTriple:
    return MetricTriple(
        rank_of_barnstars=rank_of_barnstars(trust, barnstars),
        spread=spread(trust, barnstars),
        na_pct=na_percentage(trust),
    )


def baseline_feature_average(features: Sequence[EditorFeatures]) -> dict[str, float]:
    """Trust baseline: plain mean of the nine normalised features.

    Unbounded counts (pages, activity, bytes) are min-max normalised over the
    dataset, bytes clamped at zero below; anonymity is inverted so that named
    editors score high; the six ratio features pass through.
    """
    if len(features) < 2:
        raise ValueError("baseline needs at least two editors for min-max normalisation")

    def minmax(values: list[float], name: str) -> list[float]:
        lo, hi = min(values), max(values)
        if hi == lo:
            log.warning("baseline: feature %s is constant; normalised to 0", name)
            return [0.0 for _ in values]
        return [(v - lo) / (hi - lo) for v in values]

    pages = minmax([float(f.pages) for f in features], "pages")
    activity = minmax([float(f.activity) for f in features], "activity")
    bytes_ = minmax([float(max(f.bytes, 0)) for f in features], "bytes")
    out = {}
    for i, f in enumerate(features):
        vals = (
            1.0 - f.anonymous, pages[i], activity[i], f.not_minor, f.comments,
            f.presence, f.frequency, f.regularity, bytes_[i],
        )
        out[f.editor_id] = sum(vals) / len(vals)
    return out


# Names no fields: the stage is keyed on its input (see _STAGES).
BY_INPUT = None

# Each engine's per-editor pipeline as a chain of stages.  A stage reads the
# model fields it names and the previous stage's result.  Its sharing key is
# the engine plus every field named up to and including it, so the models
# whose keys agree share that stage's result for an editor.  A stage that
# names BY_INPUT is keyed on its input instead: its key is the stage and
# the previous stage's result, which must be hashable, and the stages after
# it extend that key with their fields.  Per editor the 48 fuzzy models
# fuzzify 4 times, resolve 12 times and take level truths 24 times, then
# aggregate once per distinct level truths, whichever KB, operator or
# weights flag reached them, and defuzzify once per level truths and method.
_STAGES = {
    "expert": (
        (("kb_id",), lambda kb, _c, vec, _prev: expert.surviving_rules(kb, vec)[0]),
        (("heuristic",), lambda _kb, c, _vec, rules: expert.aggregate(rules, c.heuristic)),
    ),
    "fuzzy": (
        (("kb_id", "fmf_variant"),
         lambda kb, c, vec, _prev: fuzzy.fuzzify(vec, kb, c.fmf_variant)),
        (("operator",),
         lambda kb, c, _vec, grades: fuzzy.resolved_necessities(kb, grades, c.operator)),
        (("use_weights",),
         lambda kb, c, _vec, necs: fuzzy.level_truths(kb, necs, c.use_weights, c.fmf_variant)),
        (BY_INPUT, lambda _kb, _c, _vec, truths: fuzzy.aggregate_levels(truths)),
        (("defuzz",), lambda _kb, c, _vec, agg: fuzzy.defuzzify(agg, c.defuzz)),
    ),
    "argumentation": (
        (("kb_id", "use_strength"),
         lambda kb, c, vec, _prev: argumentation.elicit(kb, vec, c.use_strength)),
        (("semantics",), lambda _kb, c, _vec, elicited: argumentation.label_and_accrue(
            *elicited, c.semantics, c.use_strength).trust),
    ),
}


def _evaluate(selected: Sequence[ModelConfig], kb_set: Mapping[str, KnowledgeBase],
              features: Sequence[EditorFeatures]) -> dict[str, dict[str, float | None]]:
    """Per-editor trust of every selected model, editor by editor.

    For each editor every distinct stage runs once and its result fans out
    to the models that share it.  A stage that raises gives NA to every
    model sharing it, with one ERROR per model naming model and editor; for
    a stage keyed on its input, those are the models whose chains reached
    that input.  An unknown engine raises ``ValueError``, and a selected KB
    reading a feature that the feature vector lacks raises
    ``expert.MissingFeatureError``, before any editor is evaluated.
    """
    chains = []
    for config in selected:
        stages = _STAGES.get(config.engine)
        if stages is None:
            raise ValueError(f"model {config.id}: unknown engine {config.engine!r}")
        # a static key is whole; from a stage keyed on its input on, the key
        # holds only the fields named since, and the walk over an editor
        # prefixes it with that stage and its input
        key: tuple = (config.engine,)
        keyed = []
        for fields, run in stages:
            if fields is BY_INPUT:
                key = ()
            else:
                key += tuple(getattr(config, name) for name in fields)
            keyed.append((key, run, fields is BY_INPUT))
        chains.append((config, kb_set[config.kb_id], keyed))
    for kb_id in dict.fromkeys(config.kb_id for config in selected):
        for name in kb_set[kb_id].features:
            if name not in FEATURE_NAMES:
                raise expert.MissingFeatureError(
                    f"knowledge base {kb_id}: feature {name!r} missing from the feature vector")
    trust: dict[str, dict[str, float | None]] = {config.id: {} for config in selected}
    for f in features:
        vec = f.as_dict()
        done: dict[tuple, object] = {}  # stage key -> result or the exception it raised
        for config, kb, keyed in chains:
            value = None
            base = None
            for key, run, by_input in keyed:
                if by_input:
                    base = (run, value)
                if base is not None:
                    key = base + key
                if key not in done:
                    try:
                        done[key] = run(kb, config, vec, value)
                    except Exception as exc:
                        done[key] = exc
                value = done[key]
                if isinstance(value, Exception):
                    log.error("model %s failed for editor %s; recording NA",
                              config.id, f.editor_id, exc_info=value)
                    value = None
                    break
            trust[config.id][f.editor_id] = value
    return trust


def run_model(config: ModelConfig, kb: KnowledgeBase,
              features: Sequence[EditorFeatures]) -> dict[str, float | None]:
    """Per-editor trust values of one model: the matrix plan over that model
    alone.  An engine failure for an editor degrades to NA for that editor
    and the run continues.  An unknown engine raises ``ValueError`` before
    any editor is evaluated."""
    return _evaluate([config], {config.kb_id: kb}, features)[config.id]


# Chunks per worker in a pooled run: enough that a worker freed early takes
# over editors the other would otherwise run last (per-editor cost is heavy
# tailed), few enough that task traffic stays small on large inputs.
CHUNKS_PER_WORKER = 8

_worker_plan: tuple[Sequence[ModelConfig], Mapping[str, KnowledgeBase]] | None = None


def _init_worker(selected: Sequence[ModelConfig], kb_set: Mapping[str, KnowledgeBase]) -> None:
    """Pool initializer: hold the selection and the knowledge bases, with
    the structures they have built, once per worker, so that a task carries
    only its editors."""
    global _worker_plan
    _worker_plan = (selected, kb_set)


def _run_chunk(features: Sequence[EditorFeatures]) -> dict[str, dict[str, float | None]]:
    """Pool task: every selected model over one chunk of editors."""
    selected, kb_set = _worker_plan
    return _evaluate(selected, kb_set, features)


def select_models(model_filter: Iterable[str] | None = None) -> list[ModelConfig]:
    """The registry's models named by ``model_filter`` (all when None), in
    registry order; an unknown id raises ``KeyError``."""
    if model_filter is None:
        return list(MODEL_REGISTRY.values())
    wanted = list(model_filter)
    unknown = [m for m in wanted if m not in MODEL_REGISTRY]
    if unknown:
        raise KeyError(f"unknown model id(s): {', '.join(unknown)}")
    chosen = set(wanted)
    return [config for mid, config in MODEL_REGISTRY.items() if mid in chosen]


def run_matrix(
    kb_set: Mapping[str, KnowledgeBase],
    features: Sequence[EditorFeatures],
    barnstars: set[str],
    model_filter: Iterable[str] | None = None,
    jobs: int = 1,
) -> list[tuple[ModelConfig, MetricTriple]]:
    """Run the selected models over all editors and compute their metrics.

    Editors are evaluated one at a time, each distinct stage once and shared
    by the models that agree on it.  ``jobs > 1`` starts that many worker
    processes (at most one per editor); they take contiguous chunks of
    editors, about ``CHUNKS_PER_WORKER`` each, as they become free, and run
    every selected model over them.  The KB structures and the fuzzy level
    sets, with their curves, that the selected models read are built before
    the workers start, which inherit them.  The output, including its
    registry order, depends on neither ``jobs`` nor which other models are
    selected.  One WARNING
    lists the models whose rank or spread is undefined.
    """
    selected = select_models(model_filter)
    n = len(features)
    workers = min(jobs, n)
    if workers > 1 and selected:
        for config in selected:
            kb = kb_set[config.kb_id]
            if config.engine == "fuzzy":
                _ = kb.cap_layers
                fuzzy.level_set(kb, config.fmf_variant)
            else:
                _ = kb.framework if config.engine == "argumentation" else kb.layers
        size = max(1, n // (workers * CHUNKS_PER_WORKER))
        chunks = [features[i:i + size] for i in range(0, n, size)]
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(selected, kb_set)) as pool:
            parts = list(pool.map(_run_chunk, chunks))
        # merging in chunk order keeps every trust dict in input editor
        # order, the order in which spread() sums
        trust_by_model = {config.id: {} for config in selected}
        for part in parts:
            for mid, trust in part.items():
                trust_by_model[mid].update(trust)
    else:
        trust_by_model = _evaluate(selected, kb_set, features)
    results = [
        (config, metric_triple(trust_by_model[config.id], barnstars))
        for config in selected
    ]
    no_rank = [c.id for c, t in results if t.rank_of_barnstars is None]
    no_spread = [c.id for c, t in results if t.spread is None]
    if no_rank or no_spread:
        log.warning("metrics undefined: rank of barnstars (no ranked award holder, or "
                    "no other ranked editor) for %s; spread (no award holder with a "
                    "trust value) for %s", ", ".join(no_rank) or "no model",
                    ", ".join(no_spread) or "no model")
    return results


def _fmt_metric(v: float | None) -> str:
    return "" if v is None else f"{v:.4f}"


def write_results_csv(results: Sequence[tuple[ModelConfig, MetricTriple]],
                      dataset: str, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        for config, triple in results:
            fh.write(",".join([
                config.id, dataset,
                _fmt_metric(triple.rank_of_barnstars),
                _fmt_metric(triple.spread),
                _fmt_metric(triple.na_pct),
            ]) + "\n")


def _optional_value(name: str, text: str, low: float, high: float) -> float | None:
    """An empty field as None, else a finite number in ``[low, high]``."""
    if text == "":
        return None
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{name} {text!r} is not finite")
    if not low <= x <= high:
        raise ValueError(f"{name} {text!r} is outside [{low:g}, {high:g}]")
    return x


def _read_rows(path: str, rows, parse, columns: tuple[str, ...], key: str) -> dict:
    """``parse`` of each non-empty row after the header, by its first field.
    A row with the wrong column count, a value ``parse`` rejects or a
    repeated first field raises ``ValueError`` naming the file and line."""
    out = {}
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        try:
            if len(row) != len(columns):
                raise ValueError(f"{len(row)} columns, expected {len(columns)}")
            if row[0] in out:
                raise ValueError(f"duplicate {key} {row[0]!r}")
            out[row[0]] = parse(row)
        except ValueError as e:
            raise ValueError(f"{path}: line {lineno}: {e}") from None
    return out


def _result_row(row: list[str]) -> tuple[str, str, float | None, float | None, float | None]:
    mid, dataset, rank, spr, na = row
    return (mid, dataset, _optional_value("rank", rank, 0.0, 100.0),
            _optional_value("spread", spr, 0.0, math.inf),
            _optional_value("na_pct", na, 0.0, 100.0))


def read_results_csv(path: str) -> list[tuple[str, str, float | None, float | None, float | None]]:
    """Rows of a results file.  Metrics are empty or finite: rank and
    na_pct in [0, 100], spread non-negative; a model appears once."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if tuple(header.split(",")) != RESULT_COLUMNS:
            raise ValueError(f"{path}: expected header {','.join(RESULT_COLUMNS)}")
        lines = map(str.strip, fh)
        rows = _read_rows(path, (line.split(",") if line else [] for line in lines),
                          _result_row, RESULT_COLUMNS, "model id")
    return list(rows.values())


def write_trust_csv(trust: Mapping[str, float | None], model_id: str, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRUST_COLUMNS)
        for editor in sorted(trust):
            value = trust[editor]
            writer.writerow([editor, model_id, "" if value is None else format(value, ".10g")])


def read_trust_csv(path: str) -> dict[str, float | None]:
    """Trust by editor.  A value is empty or a finite number in [0, 1]; an
    editor appears once."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != TRUST_COLUMNS:
            raise ValueError(f"{path}: expected header {','.join(TRUST_COLUMNS)}")
        return _read_rows(path, reader, lambda row: _optional_value("trust", row[2], 0.0, 1.0),
                          TRUST_COLUMNS, "editor id")
