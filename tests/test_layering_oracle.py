"""Contradiction layering against the Kahn pass it replaced.

``contradiction_graph`` once found each strongly connected component's
depth with a Kahn indegree pass over the condensation.  It now reads the
depths off Tarjan's own component numbering.  The Kahn version is kept
below, verbatim, as the oracle: the layers must be equal to its layers,
order included, on the shipped knowledge bases and on seeded random
contradiction sets with cycles and self-targets.
"""
from __future__ import annotations

import random

import pytest

from nonmono.kb import contradiction_graph
from nonmono.kb.model import Contradiction, KnowledgeBase, _tarjan_scc
from test_kb_model import _graph_kb

SETS = 3000


def kahn_contradiction_graph(kb: KnowledgeBase) -> tuple[tuple[Contradiction, ...], ...]:
    """The contradictions in firing order: Kahn layers over the cycle
    condensation of the contradiction-on-contradiction edges, root first.
    Every contradiction of a strongly connected component shares its
    component's layer, and a layer is sorted by label."""
    labels = sorted(kb.contradictions)
    edges = {label: kb.contradictions[label].contradiction_targets for label in labels}
    comp_of = _tarjan_scc(labels, edges)
    comps: dict[int, list[str]] = {}
    for n, c in comp_of.items():
        comps.setdefault(c, []).append(n)
    # longest-path depth of each component in the condensation, by Kahn's
    # order: a component's depth is final once all its predecessors are done
    comp_succ = {
        c: {comp_of[t] for n in members for t in edges[n] if comp_of[t] != c}
        for c, members in comps.items()
    }
    indegree = dict.fromkeys(comps, 0)
    for succs in comp_succ.values():
        for s in succs:
            indegree[s] += 1
    depth = dict.fromkeys(comps, 0)
    ready = [c for c in comps if indegree[c] == 0]
    for c in ready:
        for s in comp_succ[c]:
            depth[s] = max(depth[s], depth[c] + 1)
            indegree[s] -= 1
            if indegree[s] == 0:
                ready.append(s)
    layers: list[list[Contradiction]] = [[] for _ in range(1 + max(depth.values(), default=0))]
    for label in labels:
        layers[depth[comp_of[label]]].append(kb.contradictions[label])
    return tuple(map(tuple, layers))


@pytest.mark.parametrize("kb_name", ["kb1", "kb2"])
def test_shipped_layers_match_kahn(request, kb_name):
    kb = request.getfixturevalue(kb_name)
    assert contradiction_graph(kb) == kahn_contradiction_graph(kb)


def test_random_layers_match_kahn():
    """0 to 40 contradictions, each pair (a contradiction and itself
    included) joined with a per-set probability of up to 0.3; a
    contradiction retracts rule R with the same probability."""
    rng = random.Random(19)
    for _ in range(SETS):
        labels = [f"X{i:02d}" for i in range(rng.randint(0, 40))]
        p = rng.uniform(0.0, 0.3)
        kb = _graph_kb({
            label: tuple(t for t in labels + ["R"] if rng.random() < p)
            for label in labels
        })
        assert contradiction_graph(kb) == kahn_contradiction_graph(kb)
