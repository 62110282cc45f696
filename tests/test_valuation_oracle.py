"""The shared crisp valuation against the walkers it replaced.

Before the expert retraction and the argumentation elicitation read one
valuation per editor and knowledge base, each walked the antecedents
itself: retraction tested contradiction premises with ``antecedent_holds``,
elicitation tested every argument's premises with it, and each activated
forecast argument was valued again by ``evaluate_antecedent``.  Those
walkers are kept below, verbatim, as the oracle.  Survivors, retractions,
sub-frameworks and forecast values must be equal to theirs, order included,
on seeded uniform and term-boundary vectors.
"""
from __future__ import annotations

from nonmono import argumentation, expert
from nonmono.argumentation import ArgumentationFramework, Argument
from nonmono.expert import ActivatedRule, activate_rules
from nonmono.kb.model import Dnf, KnowledgeBase
from test_differential import _boundary_vectors, _uniform_vectors

EDITORS = 150


# The walkers the valuation replaced, verbatim but for the module prefix of
# ``antecedent_holds``; ``activate_rules`` is the package's, which is unchanged.

def antecedent_holds(antecedent: Dnf, features, kb: KnowledgeBase) -> bool:
    """Boolean DNF truth over crisp range membership."""
    for conj in antecedent:
        ok = True
        for fname, tlabel in conj:
            if not kb.terms[(fname, tlabel)].contains(features[fname]):
                ok = False
                break
        if ok:
            return True
    return False


def resolve_contradictions(
    kb: KnowledgeBase,
    activated: dict[str, ActivatedRule],
    features,
) -> tuple[dict[str, ActivatedRule], tuple[tuple[str, str], ...]]:
    """Retract activated rules hit by fired contradictions.

    Contradictions are processed layer by layer along the precedence graph.
    A layer decides which of its contradictions fire, from the state at layer
    entry, before it applies any of them, so topologically incomparable
    contradictions (including cyclic groups) act simultaneously and cannot
    shadow one another.  A contradiction retracted in an earlier layer no
    longer fires; a rule retracted in an earlier layer no longer discharges
    the contradictions whose antecedent it is.
    """
    surviving = dict(activated)
    retracted: set[str] = set()
    discarded: list[tuple[str, str]] = []
    for layer in kb.layers:
        fired = [
            e for e in layer
            if e.label not in retracted
            and (e.rule in surviving if e.premises is None
                 else antecedent_holds(e.premises, features, kb))
        ]
        for e in fired:
            for target in e.rule_targets:
                if target in surviving:
                    del surviving[target]
                    discarded.append((target, e.label))
            retracted.update(e.contradiction_targets)
    return surviving, tuple(discarded)


def surviving_rules(
    kb: KnowledgeBase, features,
) -> tuple[tuple[ActivatedRule, ...], tuple[tuple[str, str], ...]]:
    """Activation and retraction, the heuristic-independent part of a run:
    the surviving rules in knowledge-base order and the retractions."""
    activated = activate_rules(kb, features)
    surviving, discarded = resolve_contradictions(kb, activated, features)
    return tuple(surviving[label] for label in kb.rules if label in surviving), discarded


def elicit_subaf(af: ArgumentationFramework, features, kb: KnowledgeBase,
                 use_strength: bool = False) -> ArgumentationFramework:
    """Sub-framework of activated arguments; an attack survives when both
    endpoints are active and, under strength filtering, the source is at
    least as strong as the target."""
    active = {
        label: arg for label, arg in af.arguments.items()
        if antecedent_holds(arg.premises, features, kb)
    }
    attacks = []
    for src, tgt in af.attacks:
        if src not in active or tgt not in active:
            continue
        if use_strength and active[src].strength < active[tgt].strength:
            continue
        attacks.append((src, tgt))
    return ArgumentationFramework(active, tuple(attacks))


def argument_value(kb: KnowledgeBase, arg: Argument, features) -> float:
    """Trust value of an activated forecast argument (same valuation as the
    expert engine's rules)."""
    act = expert.evaluate_antecedent(arg.premises, features, kb)
    level = kb.trust_levels[arg.consequent_level]
    return expert.rule_value(act.v, act.r_min, act.r_max, level.lower, level.upper)


def elicit(kb: KnowledgeBase, features,
           use_strength: bool) -> tuple[ArgumentationFramework, dict[str, float]]:
    """The semantics-independent part of a run: the editor's sub-framework
    and the values of its forecast arguments."""
    subaf = elicit_subaf(kb.framework, features, kb, use_strength)
    values = {
        a: argument_value(kb, arg, features)
        for a, arg in subaf.arguments.items()
        if arg.kind == "forecast"
    }
    return subaf, values


def _vectors(kb1, kb2):
    return (_uniform_vectors(EDITORS) + _boundary_vectors(EDITORS, (kb1,))
            + _boundary_vectors(EDITORS, (kb2,)))


def _assert_matches_walkers(kb, vectors) -> tuple[int, int]:
    """Compare on every vector; count the vectors where a rule-based
    mitigating argument's rule activated but was retracted, and those where
    premises retracted a rule: the cases that tell activation from survival
    and that need the premise truths."""
    premise_based = {c.label for c in kb.contradictions.values() if c.premises is not None}
    rule_based = {arg.rule for arg in kb.framework.arguments.values()
                  if arg.kind == "mitigating" and arg.rule is not None}
    retracted_antecedents = premise_retractions = 0
    for fv in vectors:
        valuation = expert.valuation(kb, fv)
        survivors, discarded = expert.resolve_contradictions(kb, valuation)
        assert (survivors, discarded) == surviving_rules(kb, fv), fv
        for use_strength in (False, True):
            subaf, values = argumentation.elicit(kb, valuation, use_strength)
            want_subaf, want_values = elicit(kb, fv, use_strength)
            assert list(subaf.arguments.items()) == list(want_subaf.arguments.items()), fv
            assert subaf.attacks == want_subaf.attacks, fv
            assert list(values.items()) == list(want_values.items()), fv
        retracted = {rule for rule, _c in discarded}
        retracted_antecedents += bool(rule_based & retracted)
        premise_retractions += any(c in premise_based for _r, c in discarded)
    return retracted_antecedents, premise_retractions


def test_kb1_valuation_matches_the_walkers(kb1, kb2):
    retracted_antecedents, premise_retractions = _assert_matches_walkers(kb1, _vectors(kb1, kb2))
    assert retracted_antecedents > 0 and premise_retractions > 0


def test_kb2_valuation_matches_the_walkers(kb1, kb2):
    retracted_antecedents, _ = _assert_matches_walkers(kb2, _vectors(kb1, kb2))
    assert retracted_antecedents > 0


def test_mixed_targets_valuation_matches_the_walkers(mixed_kb):
    vectors = _boundary_vectors(EDITORS, (mixed_kb,)) + [
        {"f": f, "g": g} for f in (-0.5, 0.3) for g in (-0.5, 0.9)]
    _, premise_retractions = _assert_matches_walkers(mixed_kb, vectors)
    assert premise_retractions > 0
