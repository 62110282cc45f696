from __future__ import annotations

from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

import pytest

from nonmono import expert, fuzzy
from nonmono.ingest import extract_features, read_barnstars
from nonmono.kb import load_builtin, parse_kb

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
DUMP_DATE = datetime(2021, 1, 15, tzinfo=timezone.utc)


@pytest.fixture(scope="session")
def kb1():
    return load_builtin("KB1")


@pytest.fixture(scope="session")
def kb2():
    return load_builtin("KB2")


@pytest.fixture(scope="session")
def fixture_dump_path():
    return DATA / "fixture_dump.xml"


@pytest.fixture(scope="session")
def small_dump_path():
    return DATA / "small_dump.xml"


@pytest.fixture(scope="session")
def barnstars_path():
    return DATA / "barnstars.txt"


@pytest.fixture(scope="session")
def barnstars(barnstars_path):
    return read_barnstars(str(barnstars_path))


@pytest.fixture(scope="session")
def fixture_features(fixture_dump_path):
    with open(fixture_dump_path, "rb") as fh:
        return extract_features(fh, DUMP_DATE)


@pytest.fixture(scope="session")
def feature_vectors(fixture_features):
    return {f.editor_id: f.as_dict() for f in fixture_features}


@pytest.fixture(scope="session")
def mixed_kb():
    """Contradiction A retracts both a rule (S) and a contradiction (B), and B
    retracts T when R holds; neither built-in KB has such a mixed target list."""
    src = """
feature f weight 1 domain [0.0, 1.0] {
    term on = [0.0, 1.0] fmf triangular(0.0, 1.0, 1.0)
}
feature g weight 1 domain [0.0, 1.0] {
    term on = [0.0, 1.0] fmf triangular(0.0, 1.0, 1.0)
}
trustlevel low = [0.0, 0.5] fmf crisp(0.0, 0.5)
trustlevel high = [0.5, 1.0] fmf crisp(0.5, 1.0)
rule R: IF g is on THEN trust is low
rule S: IF g is on THEN trust is high
rule T: IF g is on THEN trust is high
contradiction A: IF f is on THEN NOT rule S, B
contradiction B: IF rule R THEN NOT rule T
"""
    return parse_kb(src).kb


def crisp_valuation(kb, features) -> expert.Valuation:
    """An editor's crisp valuation of ``kb`` as the evaluation plan builds
    it: the activated rules, then the premise truths."""
    return expert.valuation(kb, features, expert.activate_rules(kb, features))


def attackers_of(af) -> dict[str, tuple[str, ...]]:
    """Every argument's attackers, in attack order: the incidence the
    test oracles read."""
    inc: dict[str, list[str]] = {a: [] for a in af.arguments}
    for src, tgt in af.attacks:
        inc[tgt].append(src)
    return {a: tuple(v) for a, v in inc.items()}


def curve(agg) -> tuple[float, ...]:
    """An aggregate's output curve at every grid point, assembled from its
    pieces: the 1001-point max that defuzzification never builds."""
    if not agg.pieces:
        return (0.0,) * len(fuzzy._GRID)
    return tuple(chain.from_iterable(
        values if level is None else fuzzy._slice(level, p, q)
        for p, q, level, values in agg.pieces))
