"""The compiled crisp valuation, retraction and elicitation against the
walkers they replaced.

Before each knowledge base compiled its crisp side once, an editor's
activation looked every premise's term up in ``kb.terms`` and tested it with
``LinguisticTerm.contains``, for KB1 and KB2 alike; retraction tested every
contradiction of a layer, and elicitation every argument and attack of the
framework.  Those walkers are kept below, verbatim but for the names noted,
as the oracle.  Activated rules, valuations, survivors, retractions,
sub-frameworks and forecast values must be equal to theirs, order and float
``repr`` included, on seeded uniform and term-boundary vectors.
"""
from __future__ import annotations

from nonmono import argumentation, expert
from nonmono.argumentation import ArgumentationFramework
from nonmono.expert import Activation, ActivatedRule, Valuation, rule_value
from nonmono.kb.model import Dnf, KnowledgeBase, LinguisticTerm
from test_differential import _boundary_vectors, _uniform_vectors

EDITORS = 150


# The walkers the compiled tables replaced, verbatim but for the method
# ``LinguisticTerm.contains`` turned into the function ``contains``, and the
# cached property ``KnowledgeBase.premise_antecedents`` into the function
# ``premise_antecedents``.

def contains(self: LinguisticTerm, value: float) -> bool:
    """Crisp range membership; saturated terms are unbounded above."""
    if self.saturated:
        return value >= self.lower
    return self.lower <= value <= self.upper


def premise_antecedents(self: KnowledgeBase) -> tuple[Dnf, ...]:
    """The distinct premise antecedents of the contradictions."""
    return tuple(dict.fromkeys(
        c.premises for c in self.contradictions.values() if c.premises is not None))


def evaluate_antecedent(antecedent: Dnf, features, kb: KnowledgeBase) -> Activation | None:
    """Crisp DNF activation with the activation value and its range.

    A disjunct holds when every premise value lies in its term's range
    (saturated terms are unbounded above; the value is then clamped to the
    saturation bound).  Over the satisfied disjuncts, conjunction maps to min
    and disjunction to max, applied alike to values, lower and upper bounds,
    which keeps ``r_min <= v <= r_max``.
    """
    satisfied: list[tuple[float, float, float]] = []
    for conj in antecedent:
        v = r_min = r_max = None
        for fname, tlabel in conj:
            term = kb.terms[(fname, tlabel)]
            x = features[fname]
            if not contains(term, x):
                break
            x = min(x, term.upper)
            v = x if v is None else min(v, x)
            r_min = term.lower if r_min is None else min(r_min, term.lower)
            r_max = term.upper if r_max is None else min(r_max, term.upper)
        else:
            satisfied.append((v, r_min, r_max))
    if not satisfied:
        return None
    return Activation(
        v=max(s[0] for s in satisfied),
        r_min=max(s[1] for s in satisfied),
        r_max=max(s[2] for s in satisfied),
    )


def activate_rules(kb: KnowledgeBase, features) -> dict[str, ActivatedRule]:
    """Evaluate every rule; value the activated ones."""
    out: dict[str, ActivatedRule] = {}
    for rule in kb.rules.values():
        act = evaluate_antecedent(rule.antecedent, features, kb)
        if act is None:
            continue
        l_c, u_c = kb.trust_levels[rule.consequent_level].lower, kb.trust_levels[rule.consequent_level].upper
        out[rule.label] = ActivatedRule(
            rule_label=rule.label,
            activation=act,
            value=rule_value(act.v, act.r_min, act.r_max, l_c, u_c),
            consequent_level=rule.consequent_level,
            weight=kb.rule_weight(rule.label),
        )
    return out


def valuation(kb: KnowledgeBase, features) -> Valuation:
    """Every rule antecedent and every distinct contradiction premise
    antecedent, each evaluated once."""
    activated = activate_rules(kb, features)
    return Valuation(activated, frozenset(
        p for p in premise_antecedents(kb) if evaluate_antecedent(p, features, kb) is not None))


def resolve_contradictions(
    kb: KnowledgeBase, valuation: Valuation,
) -> tuple[tuple[ActivatedRule, ...], tuple[tuple[str, str], ...]]:
    """Retract activated rules hit by fired contradictions: the surviving
    rules in knowledge-base order and the (rule, contradiction) retractions.

    Contradictions are processed layer by layer along the precedence graph.
    A layer decides which of its contradictions fire, from the state at layer
    entry, before it applies any of them, so topologically incomparable
    contradictions (including cyclic groups) act simultaneously and cannot
    shadow one another.  Premises fire a contradiction when they hold in the
    valuation.  A contradiction retracted in an earlier layer no longer
    fires; a rule retracted in an earlier layer no longer discharges the
    contradictions whose antecedent it is.
    """
    surviving = dict(valuation.activated)
    retracted: set[str] = set()
    discarded: list[tuple[str, str]] = []
    for layer in kb.layers:
        fired = [
            e for e in layer
            if e.label not in retracted
            and (e.rule in surviving if e.premises is None else e.premises in valuation.holding)
        ]
        for e in fired:
            for target in e.rule_targets:
                if target in surviving:
                    del surviving[target]
                    discarded.append((target, e.label))
            retracted.update(e.contradiction_targets)
    return tuple(surviving.values()), tuple(discarded)


def elicit_subaf(af: ArgumentationFramework, valuation: Valuation,
                 use_strength: bool = False) -> ArgumentationFramework:
    """Sub-framework of the arguments active under the editor's crisp
    valuation: an argument with a rule is active when that rule activated,
    one without when its premises hold.  An attack survives when both
    endpoints are active and, under strength filtering, the source is at
    least as strong as the target."""
    activated, holding = valuation
    active = {
        label: arg for label, arg in af.arguments.items()
        if (arg.premises in holding if arg.rule is None else arg.rule in activated)
    }
    attacks = []
    for src, tgt in af.attacks:
        if src not in active or tgt not in active:
            continue
        if use_strength and active[src].strength < active[tgt].strength:
            continue
        attacks.append((src, tgt))
    return ArgumentationFramework(active, tuple(attacks))


def _vectors(kb1, kb2):
    return (_uniform_vectors(EDITORS) + _boundary_vectors(EDITORS, (kb1,))
            + _boundary_vectors(EDITORS, (kb2,)))


def _same(got, want) -> bool:
    return got == want and repr(got) == repr(want)


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
        want = valuation(kb, fv)
        activated = expert.activate_rules(kb, fv)
        assert _same(list(activated.items()), list(want.activated.items())), fv
        got = expert.valuation(kb, fv, activated)
        assert got.activated is activated and got.holding == want.holding, fv
        survivors, discarded = expert.resolve_contradictions(kb, got)
        assert _same((survivors, discarded), resolve_contradictions(kb, want)), fv
        for use_strength in (False, True):
            subaf, values = argumentation.elicit(kb, got, use_strength)
            want_subaf = elicit_subaf(kb.framework, want, use_strength)
            assert list(subaf.arguments.items()) == list(want_subaf.arguments.items()), fv
            assert subaf.attacks == want_subaf.attacks, fv
            assert _same(list(values.items()),
                         [(a, want.activated[a].value) for a, arg in want_subaf.arguments.items()
                          if arg.kind == "forecast"]), fv
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


def test_kbs_with_equal_rules_share_one_rule_table(kb1, kb2, mixed_kb):
    # KB1 and KB2 differ only in their contradictions
    assert kb1.rule_table is kb2.rule_table
    assert mixed_kb.rule_table is not kb1.rule_table
