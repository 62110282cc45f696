"""Seeded input generators for the benchmark.

Every generator draws only from ``random.Random(seed)`` and writes plain
files (features CSV, barnstars list, stub-meta-history XML), so the same
seed gives byte-identical files and the program under test sees nothing but
those files.
"""
from __future__ import annotations

import math
import random
from datetime import datetime, timezone
from xml.sax.saxutils import escape

FEATURE_COLUMNS = ("editor_id", "anonymous", "pages", "activity", "not_minor",
                   "comments", "presence", "frequency", "regularity", "bytes")
# columns the features file stores as integers; the rest are ratios in [0, 1]
INT_COLUMNS = frozenset({"anonymous", "pages", "activity", "bytes"})
# the features-file reader stores these integer counts, which cannot be negative
COUNT_COLUMNS = frozenset({"pages", "activity"})

DUMP_DATE = datetime(2021, 1, 15, tzinfo=timezone.utc)
_DUMP_TS = DUMP_DATE.timestamp()
_PERIOD_START = datetime(2004, 1, 1, tzinfo=timezone.utc).timestamp()
_DAY = 86400.0
MAX_PAGE_REVISIONS = 1000
BOUNDARY_POOL_SEED = 0


def _fmt(value) -> str:
    # repr round-trips a float exactly, so the program reads the drawn value
    return repr(value) if isinstance(value, float) else str(value)


def write_features(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(FEATURE_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in FEATURE_COLUMNS) + "\n")


def barnstar_ids(rows: list[dict]) -> list[str]:
    """Every ninth editor holds an award, as in the criterion-10 recipe."""
    return [row["editor_id"] for row in rows[::9]]


def write_barnstars(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(editor + "\n" for editor in barnstar_ids(rows))


def uniform_editors(seed: int, n: int) -> list[dict]:
    """Editors drawn by the criterion-10 recipe: uniform counts and ratios."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        anon = rng.random() < 0.3
        activity = rng.randint(1, 500)
        rows.append({
            "editor_id": f"ext{i}",
            "anonymous": int(anon),
            "pages": rng.randint(1, min(activity, 300)),
            "activity": activity,
            "not_minor": round(rng.random(), 4),
            "comments": round(rng.random(), 4),
            "presence": round(rng.random(), 4),
            "frequency": round(rng.random(), 4),
            "regularity": round(rng.random(), 4),
            "bytes": rng.randint(-2000, 800000),
        })
    return rows


def boundary_candidates(kb) -> dict[str, list]:
    """Per feature: every term endpoint of ``kb`` and its nearest neighbours.

    Ratio features take the endpoint and the floats one ulp either side;
    integer-valued features take the endpoint and the integers either side.
    Values outside what a valid features file can hold (negative counts,
    ratios outside [0, 1], anonymity other than 0/1) are left out.
    """
    out: dict[str, list] = {}
    for name, feat in kb.features.items():
        values: set = set()
        for term in feat.terms:
            for end in (term.lower, term.upper):
                if name in INT_COLUMNS:
                    values.update(int(end) + d for d in (-1, 0, 1))
                else:
                    values.update((math.nextafter(end, -math.inf), end,
                                   math.nextafter(end, math.inf)))
        if name == "anonymous":
            values &= {0, 1}
        elif name in COUNT_COLUMNS:
            values = {v for v in values if v >= 0}
        elif name not in INT_COLUMNS:
            values = {v for v in values if 0.0 <= v <= 1.0}
        out[name] = sorted(values)
    return out


def boundary_editors(seed: int, n: int, kb) -> list[dict]:
    """Editors whose every feature sits on or one step off a term endpoint.

    The feature vectors are one fixed draw, and ``seed`` only shuffles them,
    which changes the names and award holders but not the work.  Engine cost
    per boundary editor is heavy tailed (the costliest 1% take 5-9x the
    mean), so fresh draws of 120 editors per seed spread the workload's
    throughput by 0.15-0.24 of its median across seeds, more than the
    changes the benchmark exists to measure.
    """
    pool = random.Random(BOUNDARY_POOL_SEED)
    cands = boundary_candidates(kb)
    vectors = [{f: pool.choice(cands[f]) for f in FEATURE_COLUMNS[1:]} for _ in range(n)]
    random.Random(seed).shuffle(vectors)
    return [{"editor_id": f"bnd{i}", **vec} for i, vec in enumerate(vectors)]


def _iso(ts: float) -> str:
    return datetime.fromtimestamp(ts, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def write_dump(path: str, seed: int, n_editors: int, n_revisions: int,
               n_skipped: int) -> dict:
    """Write a synthetic stub-meta-history dump and return its ground truth.

    Revisions per editor are heavy tailed (Zipf weights), a third of editors
    are IP addresses, each editor has its own minor-edit and comment rates,
    and pages hold a heavy-tailed number of chronological revisions.  Exactly
    ``n_skipped`` revisions, at seeded positions, are ones a reader must drop:
    a deleted contributor, a missing timestamp or an unparsable timestamp.
    The file is written revision by revision, so generating it needs little
    memory.
    """
    rng = random.Random(seed)
    editors = []
    for i in range(n_editors):
        if rng.random() < 1 / 3:
            editors.append((f"10.{i >> 16 & 255}.{i >> 8 & 255}.{i & 255}", True))
        else:
            editors.append((f"Editor {i:05d}", False))
    rng.shuffle(editors)
    cum, total = [], 0.0
    for k in range(n_editors):
        total += 1.0 / (k + 1) ** 1.1
        cum.append(total)
    minor_rate = [rng.random() * 0.6 for _ in range(n_editors)]
    comment_rate = [rng.random() for _ in range(n_editors)]
    index = list(range(n_editors))
    skip_at = set(rng.sample(range(n_revisions), n_skipped))
    seen: set[int] = set()
    written = 0
    page_id = 0
    rev_id = 10_000
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/" '
                 'xml:lang="pt" version="0.10">\n'
                 "  <siteinfo><sitename>BenchWiki</sitename></siteinfo>\n")
        while written < n_revisions:
            page_id += 1
            count = min(n_revisions - written, MAX_PAGE_REVISIONS,
                        1 + int(rng.paretovariate(1.2)) * 2)
            ts = rng.uniform(_PERIOD_START, _DUMP_TS - 400 * _DAY)
            size = rng.randint(0, 3000)
            fh.write(f"  <page>\n    <title>Page {page_id}</title>\n    <ns>0</ns>\n"
                     f"    <id>{page_id}</id>\n")
            for who in rng.choices(index, cum_weights=cum, k=count):
                rev_id += 1
                ts = min(ts + rng.expovariate(1 / (3 * _DAY)), _DUMP_TS - _DAY)
                size = max(0, size + int(rng.gauss(40, 300)))
                name, anon = editors[who]
                contributor = (f"<ip>{name}</ip>" if anon else
                               f"<username>{escape(name)}</username><id>{who}</id>")
                stamp = f"      <timestamp>{_iso(ts)}</timestamp>\n"
                if written in skip_at:
                    kind = rng.randrange(3)
                    if kind == 0:
                        contributor = ""
                    elif kind == 1:
                        stamp = ""
                    else:
                        stamp = "      <timestamp>2019-13-40T25:00:00Z</timestamp>\n"
                else:
                    seen.add(who)
                written += 1
                contrib_el = (f"      <contributor>{contributor}</contributor>\n"
                              if contributor else '      <contributor deleted="deleted" />\n')
                minor = "      <minor />\n" if rng.random() < minor_rate[who] else ""
                comment = ("      <comment>edit summary</comment>\n"
                           if rng.random() < comment_rate[who] else "")
                fh.write(
                    f"    <revision>\n      <id>{rev_id}</id>\n{stamp}{contrib_el}"
                    f"{minor}{comment}      <model>wikitext</model>\n"
                    f"      <format>text/x-wiki</format>\n"
                    f'      <text bytes="{size}" />\n    </revision>\n'
                )
            fh.write("  </page>\n")
        fh.write("</mediawiki>\n")
    return {"revisions": n_revisions - n_skipped, "skipped": n_skipped,
            "editors": len(seen), "pages": page_id}
