"""Correctness gate and failure accounting.

The comparisons here take plain values, so the self-tests can feed them
deliberately wrong data.  Each returns a list of human-readable mismatches;
an empty list means the check passed.
"""
from __future__ import annotations

import logging
from collections import Counter

TOLERANCE = 1e-9
SKIP_PREFIX = "skipping revision"


def compare_trust(engine: dict, expected: dict, model_id: str) -> list[str]:
    """Per-editor trust of one model against the reference, NA pattern included."""
    out = []
    if set(engine) != set(expected):
        return [f"{model_id}: editor sets differ"]
    for editor in sorted(expected):
        got, want = engine[editor], expected[editor]
        if (got is None) != (want is None):
            out.append(f"{model_id}/{editor}: NA pattern differs ({got!r} vs {want!r})")
        elif got is not None and not abs(got - want) <= TOLERANCE:
            out.append(f"{model_id}/{editor}: {got!r} vs reference {want!r}")
    return out


def compare_results(program: str, expected: str) -> list[str]:
    """A results CSV the program wrote against the reference's text of it,
    row by row at the file's 4 decimals."""
    got, want = program.splitlines(), expected.splitlines()
    out = [f"results row {i}: {g!r} vs reference {w!r}"
           for i, (g, w) in enumerate(zip(got, want)) if g != w]
    if len(got) != len(want):
        out.append(f"results CSV has {len(got)} lines, reference {len(want)}")
    return out


def compare_features(program: dict, expected: dict) -> list[str]:
    """Feature vectors read back from the program's CSV against the DOM
    reference, which mirrors the CSV's 10-digit rounding."""
    if set(program) != set(expected):
        return [f"editor sets differ: {sorted(set(program) ^ set(expected))[:5]}"]
    return [
        f"{editor}.{name}: {program[editor][name]!r} vs reference {value!r}"
        for editor in sorted(expected)
        for name, value in expected[editor].items()
        if program[editor].get(name) != value
    ]


def check_ingest_counts(observed: dict, expected: dict) -> list[str]:
    """Revisions yielded, revisions skipped and editors of one ingest run."""
    return [
        f"{key}: {observed.get(key)} observed, {expected[key]} expected"
        for key in ("revisions", "skipped", "editors")
        if observed.get(key) != expected[key]
    ]


def check_same(digests: list[str], reference: str, what: str) -> list[str]:
    return [f"{what} of pass {i + 1} differs" for i, d in enumerate(digests) if d != reference]


class LogCounter(logging.Handler):
    """Counts the ``nonmono`` logger's records.

    Every ERROR record is an engine failure: ``run_model`` logs the exception
    before it turns the editor's trust into NA, so counting here keeps those
    failures out of the abstentions.  WARNING records are de-duplicated by
    their message template, with counts and one formatted example each.
    """

    def __init__(self):
        super().__init__(logging.WARNING)
        self.by_template: Counter[str] = Counter()
        self.examples: dict[str, str] = {}
        self.failures = 0
        self.too_large = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.levelno >= logging.ERROR:
            self.failures += 1
            exc = record.exc_info[0] if record.exc_info else None
            if exc is not None and exc.__name__ == "FrameworkTooLargeError":
                self.too_large += 1
        key = f"{record.levelname} {record.name}: {record.msg}"
        self.by_template[key] += 1
        self.examples.setdefault(key, record.getMessage())

    @property
    def warnings(self) -> int:
        return sum(self.by_template.values())

    @property
    def skipped_revisions(self) -> int:
        return sum(n for key, n in self.by_template.items()
                   if key.startswith("WARNING nonmono.ingest: " + SKIP_PREFIX))

    def table(self) -> list[dict]:
        return [{"message": key, "count": n, "example": self.examples[key]}
                for key, n in sorted(self.by_template.items())]
