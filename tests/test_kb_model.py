import math
import random

import pytest

from nonmono.kb import (
    Contradiction,
    Feature,
    Fmf,
    KbValidationError,
    KnowledgeBase,
    LinguisticTerm,
    Rule,
    contradiction_graph,
    parse_kb,
)

KB1_RULE_LABELS = {
    "B1", "B2", "B3", "AF1", "AF2", "AF3", "AN1", "AN2", "U1", "U2", "U3",
    "C1", "C2", "C3", "C4", "P1", "P2", "P3", "P4", "F1", "F2", "F3", "F4",
    "R1", "R2", "R3", "R4", "NM1", "NM2",
}
KB1_CONTRA_LABELS = (
    {f"CC{i}" for i in range(1, 29)}
    | {f"Bot.{s}" for s in "abcdefgh"}
    | {f"Vandal.{s}" for s in "abcd"}
    | {f"OnlyAge.{s}" for s in "abc"}
)


def test_fmf_shapes():
    tri = Fmf("triangular", (0.0, 1.0, 2.0))
    assert tri(1.0) == 1.0
    assert tri(0.5) == 0.5
    assert tri(1.5) == 0.5
    assert tri(-0.1) == 0.0 and tri(2.1) == 0.0
    trap = Fmf("trapezoidal", (0.0, 1.0, 2.0, 4.0))
    assert trap(1.5) == 1.0
    assert trap(0.5) == 0.5
    assert trap(3.0) == 0.5
    gauss = Fmf("gaussian", (0.5, 0.1))
    assert gauss(0.5) == 1.0
    assert abs(gauss(0.6) - math.exp(-0.5)) < 1e-12
    crisp = Fmf("crisp", (1.0, 1.0))
    assert crisp(1.0) == 1.0 and crisp(0.999) == 0.0


def test_fmf_validation():
    with pytest.raises(KbValidationError):
        Fmf("triangular", (2.0, 1.0, 0.0))
    with pytest.raises(KbValidationError):
        Fmf("gaussian", (0.5, 0.0))
    with pytest.raises(KbValidationError):
        Fmf("pentagon", (0.0, 1.0))


def test_fmf_outputs_bounded():
    fns = [
        Fmf("triangular", (0.0, 0.3, 1.0)),
        Fmf("trapezoidal", (0.0, 0.2, 0.6, 1.0)),
        Fmf("gaussian", (0.4, 0.2)),
        Fmf("crisp", (0.2, 0.8)),
    ]
    for fmf in fns:
        for i in range(101):
            assert 0.0 <= fmf(i / 100) <= 1.0


def test_term_overlap_rejected():
    mk = lambda label, lo, hi: LinguisticTerm(label, lo, hi, {"triangular": Fmf("crisp", (lo, hi))})
    with pytest.raises(KbValidationError):
        Feature("f", 1, (mk("a", 0.0, 0.6), mk("b", 0.5, 1.0)), 0.0, 1.0)
    # shared endpoints are crisp-legal
    Feature("f", 1, (mk("a", 0.0, 0.5), mk("b", 0.5, 1.0)), 0.0, 1.0)


def test_weight_range_enforced():
    term = LinguisticTerm("a", 0.0, 1.0, {"triangular": Fmf("crisp", (0.0, 1.0))})
    with pytest.raises(KbValidationError):
        Feature("f", 9, (term,), 0.0, 1.0)


def test_trust_levels_tile_unit_interval(kb1):
    levels = sorted(kb1.trust_levels.values(), key=lambda l: l.lower)
    assert levels[0].lower == 0.0 and levels[-1].upper == 1.0
    for prev, cur in zip(levels, levels[1:]):
        assert cur.lower == prev.upper


def test_transcription_is_bijective(kb1, kb2):
    assert set(kb1.rules) == KB1_RULE_LABELS
    assert set(kb1.contradictions) == KB1_CONTRA_LABELS
    assert set(kb2.rules) == KB1_RULE_LABELS


def _labels(layers) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(entry.label for entry in layer) for layer in layers)


def _edges(kb: KnowledgeBase) -> dict[str, tuple[str, ...]]:
    """Contradiction-on-contradiction edges, read from the declarations."""
    return {
        label: tuple(sorted(c.contradiction_targets))
        for label, c in kb.contradictions.items()
    }


def test_contradiction_graph_kb1(kb1):
    layers = contradiction_graph(kb1)
    assert {e.label for layer in layers for e in layer} == KB1_CONTRA_LABELS
    edges = _edges(kb1)
    assert edges["CC3"] == ("OnlyAge.a", "OnlyAge.b", "OnlyAge.c")
    assert all(not edges[n] for n in edges if n != "CC3")
    assert set(_labels(layers)[1]) == {"OnlyAge.a", "OnlyAge.b", "OnlyAge.c"}


def test_contradiction_graph_no_edges(kb2):
    layers = contradiction_graph(kb2)
    assert all(not e.contradiction_targets for layer in layers for e in layer)
    assert len(layers) == 1


def test_contradiction_graph_cycle():
    src = """
feature f weight 1 domain [0.0, 1.0] {
    term low = [0.0, 1.0] fmf crisp(0.0, 1.0)
}
trustlevel low = [0.0, 1.0] fmf crisp(0.0, 1.0)
rule R: IF f is low THEN trust is low
contradiction X: IF rule R THEN NOT contradiction Y
contradiction Y: IF rule R THEN NOT contradiction X
"""
    kb = parse_kb(src).kb
    assert _labels(contradiction_graph(kb)) == (("X", "Y"),)


def test_contradiction_graph_deterministic(kb1):
    # neither a rebuild nor the declaration order changes the layers
    items = list(kb1.contradictions.items())
    random.Random(7).shuffle(items)
    shuffled = KnowledgeBase(kb1.id, kb1.features, kb1.trust_levels, kb1.rules, dict(items))
    assert contradiction_graph(kb1) == contradiction_graph(kb1) == contradiction_graph(shuffled)


@pytest.mark.parametrize("kb_name", ["kb1", "kb2"])
def test_layer_entries_split_targets(request, kb_name):
    kb = request.getfixturevalue(kb_name)
    entries = [e for layer in kb.layers for e in layer]
    assert sorted(e.label for e in entries) == sorted(kb.contradictions)
    for e in entries:
        assert e is kb.contradictions[e.label]
        assert all(t in kb.rules for t in e.rule_targets)
        assert all(t in kb.contradictions for t in e.contradiction_targets)
        if e.premises is None:
            assert e.rule in kb.rules
        else:
            assert e.rule is None and e.premises


def _graph_kb(targets: dict[str, tuple[str, ...]]) -> KnowledgeBase:
    """A knowledge base whose contradictions retract each other as ``targets``
    says; every one fires on rule R, and only the layers are built from it."""
    rule = Rule("R", ((("f", "on"),),), "low")
    contradictions = {
        label: Contradiction(label, "R", None, tuple(t for t in tgts if t == "R"),
                             tuple(t for t in tgts if t != "R"))
        for label, tgts in targets.items()
    }
    return KnowledgeBase("graph", {}, {}, {"R": rule}, contradictions)


def _reference_layers(edges: dict[str, tuple[str, ...]]) -> tuple[tuple[str, ...], ...]:
    """Longest-path layers from reachability: a node sits one layer below the
    deepest node that reaches it without being reached back."""
    nodes = sorted(edges)
    reach: dict[str, set[str]] = {}
    for n in nodes:
        seen, stack = set(), list(edges[n])
        while stack:
            t = stack.pop()
            if t not in seen:
                seen.add(t)
                stack.extend(edges[t])
        reach[n] = seen
    depth: dict[str, int] = {}

    def node_depth(n: str) -> int:
        if n not in depth:
            upstream = [p for p in nodes if n in reach[p] and p not in reach[n]]
            depth[n] = 1 + max((node_depth(p) for p in upstream), default=-1)
        return depth[n]

    n_layers = 1 + max((node_depth(n) for n in nodes), default=0)
    return tuple(tuple(n for n in nodes if depth[n] == i) for i in range(n_layers))


def test_contradiction_graph_long_chain():
    # C1500 retracts C1499, ..., C1 retracts C0, which retracts rule R: one
    # layer per link, deeper than the interpreter's recursion limit
    depth = 1500
    targets = {"C0": ("R",)}
    targets.update({f"C{i}": (f"C{i - 1}",) for i in range(1, depth + 1)})
    layers = _labels(contradiction_graph(_graph_kb(targets)))
    assert len(layers) == depth + 1
    assert layers == tuple((f"C{i}",) for i in range(depth, -1, -1))


def test_contradiction_graph_layers_match_reachability():
    rng = random.Random(7)
    for _trial in range(30):
        labels = [f"X{i:02d}" for i in range(rng.randint(1, 25))]
        targets = {
            label: tuple(rng.sample(labels, rng.randint(0, min(3, len(labels)))))
            for label in labels
        }
        kb = _graph_kb(targets)
        assert _labels(contradiction_graph(kb)) == _reference_layers(_edges(kb))
