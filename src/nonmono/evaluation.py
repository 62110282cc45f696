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
from .ingest import EditorFeatures
from .kb.model import ContradictionGraph, KnowledgeBase, contradiction_graph

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
    reverse; exact ties rank the non-holder above the holder.
    """
    ranked = sorted(
        ((editor, value) for editor, value in trust.items() if value is not None),
        key=lambda ev: (-ev[1], ev[0] in barnstars, ev[0]),
    )
    n = len(ranked)
    b_ranks = [i for i, (editor, _v) in enumerate(ranked, start=1) if editor in barnstars]
    b = len(b_ranks)
    if b == 0 or b == n:
        log.warning("rank of barnstars undefined: %d ranked award holders of %d editors", b, n)
        return None
    s = sum(b_ranks)
    s_min = b * (b + 1) / 2
    s_max = b * n - b * (b - 1) / 2
    if s_max == s_min:
        return 0.0
    return 100.0 * (s - s_min) / (s_max - s_min)


def spread(trust: Mapping[str, float | None], barnstars: set[str]) -> float | None:
    """Population standard deviation of award holders' assigned trust."""
    values = [v for e, v in trust.items() if e in barnstars and v is not None]
    if not values:
        log.warning("spread undefined: no award holder has an assigned trust value")
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


def run_model(
    config: ModelConfig,
    kb: KnowledgeBase,
    features: Sequence[EditorFeatures],
    af: argumentation.ArgumentationFramework | None = None,
    graph: ContradictionGraph | None = None,
) -> dict[str, float | None]:
    """Per-editor trust values of one model; an engine failure for an editor
    degrades to NA for that editor and the run continues.  ``af`` and
    ``graph`` are ``kb``'s framework and contradiction graph, built here when
    not given.  An unknown engine raises ``ValueError`` before any editor is
    evaluated."""
    if config.engine == "expert":
        graph = graph or contradiction_graph(kb)
        trust_of = lambda vec: expert.run_expert(kb, vec, config.heuristic, graph).trust
    elif config.engine == "fuzzy":
        graph = graph or contradiction_graph(kb)
        trust_of = lambda vec: fuzzy.run_fuzzy(
            kb, vec, config.operator, config.defuzz, config.use_weights,
            config.fmf_variant, graph=graph,
        )
    elif config.engine == "argumentation":
        af = af or argumentation.build_af(kb)
        trust_of = lambda vec: argumentation.run_argumentation(
            kb, vec, config.semantics, config.use_strength, af,
        ).trust
    else:
        raise ValueError(f"model {config.id}: unknown engine {config.engine!r}")
    trust: dict[str, float | None] = {}
    for f in features:
        try:
            trust[f.editor_id] = trust_of(f.as_dict())
        except Exception:
            log.exception("model %s failed for editor %s; recording NA", config.id, f.editor_id)
            trust[f.editor_id] = None
    return trust


def _run_shard(args) -> dict[str, dict[str, float | None]]:
    """Every selected model over one contiguous chunk of editors.  Each KB's
    argumentation framework and contradiction graph are built once here and
    shared by all models over that KB."""
    selected, kb_set, features = args
    afs: dict[str, argumentation.ArgumentationFramework] = {}
    graphs: dict[str, ContradictionGraph] = {}
    for config in selected:
        kb_id = config.kb_id
        if config.engine == "argumentation":
            if kb_id not in afs:
                afs[kb_id] = argumentation.build_af(kb_set[kb_id])
        elif kb_id not in graphs:
            graphs[kb_id] = contradiction_graph(kb_set[kb_id])
    return {
        config.id: run_model(config, kb_set[config.kb_id], features,
                             afs.get(config.kb_id), graphs.get(config.kb_id))
        for config in selected
    }


def run_matrix(
    kb_set: Mapping[str, KnowledgeBase],
    features: Sequence[EditorFeatures],
    barnstars: set[str],
    model_filter: Iterable[str] | None = None,
    jobs: int = 1,
) -> list[tuple[ModelConfig, MetricTriple]]:
    """Run the selected models over all editors and compute their metrics.

    ``jobs > 1`` splits the editors into that many contiguous shards (at most
    one per editor), each run by a worker process over every selected model.
    The output, including its registry order, does not depend on ``jobs``.
    """
    if model_filter is None:
        selected = list(MODEL_REGISTRY.values())
    else:
        wanted = list(model_filter)
        unknown = [m for m in wanted if m not in MODEL_REGISTRY]
        if unknown:
            raise KeyError(f"unknown model id(s): {', '.join(unknown)}")
        selected = [MODEL_REGISTRY[m] for m in MODEL_REGISTRY if m in set(wanted)]
    kbs = {config.kb_id: kb_set[config.kb_id] for config in selected}
    n = len(features)
    shards = min(jobs, n)
    if shards > 1 and selected:
        chunks = [features[i * n // shards:(i + 1) * n // shards] for i in range(shards)]
        with ProcessPoolExecutor(max_workers=shards) as pool:
            parts = list(pool.map(_run_shard, [(selected, kbs, c) for c in chunks]))
        # merging in chunk order keeps every trust dict in input editor
        # order, the order in which spread() sums
        trust_by_model = {config.id: {} for config in selected}
        for part in parts:
            for mid, trust in part.items():
                trust_by_model[mid].update(trust)
    else:
        trust_by_model = _run_shard((selected, kbs, features))
    return [
        (config, metric_triple(trust_by_model[config.id], barnstars))
        for config in selected
    ]


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


def read_results_csv(path: str) -> list[tuple[str, str, float | None, float | None, float | None]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if tuple(header.split(",")) != RESULT_COLUMNS:
            raise ValueError(f"{path}: expected header {','.join(RESULT_COLUMNS)}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            mid, dataset, rank, spr, na = line.split(",")
            parse = lambda s: None if s == "" else float(s)
            rows.append((mid, dataset, parse(rank), parse(spr), parse(na)))
    return rows


def write_trust_csv(trust: Mapping[str, float | None], model_id: str, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRUST_COLUMNS)
        for editor in sorted(trust):
            value = trust[editor]
            writer.writerow([editor, model_id, "" if value is None else format(value, ".10g")])


def read_trust_csv(path: str) -> dict[str, float | None]:
    trust: dict[str, float | None] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != TRUST_COLUMNS:
            raise ValueError(f"{path}: expected header {','.join(TRUST_COLUMNS)}")
        for row in reader:
            if not row:
                continue
            editor, _mid, value = row
            trust[editor] = None if value == "" else float(value)
    return trust
