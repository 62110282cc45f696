import pytest

from nonmono.cli import main
from nonmono.kb import load_builtin, parse_kb

MINI_HEADER = """
feature comments weight 5 domain [0.0, 1.0] {
    term low = [0.0, 0.25] fmf crisp(0.0, 0.25)
    term high = [0.75, 1.0] fmf crisp(0.75, 1.0)
}
feature not_minor weight 7 domain [0.0, 1.0] {
    term very_low = [0.0, 0.05] fmf crisp(0.0, 0.05)
}
trustlevel low = [0.0, 0.5] fmf crisp(0.0, 0.5)
trustlevel high = [0.5, 1.0] fmf crisp(0.5, 1.0)
"""


def test_parse_rule_line():
    src = MINI_HEADER + "rule C4: IF comments is high THEN trust is high\n"
    kb = parse_kb(src).kb
    rule = kb.rules["C4"]
    assert rule.antecedent == ((("comments", "high"),),)
    assert rule.consequent_level == "high"


def test_parse_contradiction_line():
    src = MINI_HEADER + (
        "rule NM1: IF not_minor is very_low THEN trust is low\n"
        "rule B1: IF comments is low THEN trust is high\n"
        "contradiction CC1: IF rule NM1 THEN NOT rule B1\n"
    )
    kb = parse_kb(src).kb
    c = kb.contradictions["CC1"]
    assert (c.rule, c.premises) == ("NM1", None)
    assert (c.rule_targets, c.contradiction_targets) == (("B1",), ())


def test_targets_split_in_declaration_order(mixed_kb, kb1):
    a = mixed_kb.contradictions["A"]
    assert (a.rule, a.premises) == (None, ((("f", "on"),),))
    assert (a.rule_targets, a.contradiction_targets) == (("S",), ("B",))
    cc3 = kb1.contradictions["CC3"]
    assert cc3.rule_targets == ()
    assert cc3.contradiction_targets == ("OnlyAge.a", "OnlyAge.b", "OnlyAge.c")


def test_empty_source_is_error():
    result = parse_kb("")
    assert result.kb is None
    assert any("no features declared" in d.message for d in result.errors)


def test_and_binds_tighter_than_or():
    src = MINI_HEADER + (
        "rule X: IF comments is low OR comments is high AND not_minor is very_low "
        "THEN trust is low\n"
    )
    kb = parse_kb(src).kb
    assert kb.rules["X"].antecedent == (
        (("comments", "low"),),
        (("comments", "high"), ("not_minor", "very_low")),
    )


def test_parenthesized_premises():
    src = MINI_HEADER + (
        "rule X: IF (comments is low OR comments is high) AND not_minor is very_low "
        "THEN trust is low\n"
    )
    kb = parse_kb(src).kb
    assert kb.rules["X"].antecedent == (
        (("comments", "low"), ("not_minor", "very_low")),
        (("comments", "high"), ("not_minor", "very_low")),
    )


def test_duplicate_label_rejected():
    src = MINI_HEADER + (
        "rule R: IF comments is low THEN trust is low\n"
        "rule R: IF comments is high THEN trust is high\n"
    )
    result = parse_kb(src)
    assert result.kb is None
    assert any("duplicate rule" in d.message for d in result.errors)


def test_dangling_reference_rejected():
    src = MINI_HEADER + "rule R: IF pages is low THEN trust is low\n"
    result = parse_kb(src)
    assert result.kb is None
    assert any("unknown feature" in d.message for d in result.errors)


def test_unknown_trust_level_rejected():
    src = MINI_HEADER + "rule R: IF comments is low THEN trust is very_high\n"
    result = parse_kb(src)
    assert result.kb is None
    assert any("very_high" in d.message for d in result.errors)


def test_malformed_range_rejected():
    src = """
feature f weight 1 domain [0.0, 1.0] {
    term bad = [0.9, 0.1] fmf crisp(0.0, 1.0)
}
"""
    result = parse_kb(src)
    assert result.kb is None
    assert any("malformed range" in d.message for d in result.errors)


NUMBERS = """\
feature pages weight 3 domain [0.0, 10.0] {
    term low = [0.0, 5.0] fmf triangular(0.0, 0.0, 5.0)
    term high = [5.0, inf] fmf gaussian(8.0, 1.0)
}
trustlevel low = [0.0, 0.5] fmf crisp(0.0, 0.5)
trustlevel high = [0.5, 1.0] fmf crisp(0.5, 1.0)
rule R: IF pages is high THEN trust is high
"""


@pytest.mark.parametrize("old, new, line", [
    pytest.param("weight 3", "weight 3.7", 1, id="weight"),
    pytest.param("domain [0.0, 10.0]", "domain [0.0, nan]", 1, id="domain"),
    pytest.param("low = [0.0, 5.0]", "low = [nan, 5.0]", 2, id="term-lower"),
    pytest.param("high = [5.0, inf]", "high = [5.0, nan]", 3, id="term-upper"),
    pytest.param("triangular(0.0, 0.0, 5.0)", "triangular(0.0, nan, 5.0)", 2, id="term-fmf"),
    pytest.param("gaussian(8.0, 1.0)", "gaussian(8.0, nan)", 3, id="gaussian-nan"),
    pytest.param("gaussian(8.0, 1.0)", "gaussian(8.0, inf)", 3, id="gaussian-inf"),
    pytest.param("trustlevel low = [0.0, 0.5]", "trustlevel low = [-inf, 0.5]", 5,
                 id="trustlevel"),
    pytest.param("crisp(0.5, 1.0)", "crisp(0.5, nan)", 6, id="trustlevel-fmf"),
])
def test_number_not_coerced(tmp_path, capsys, old, new, line):
    assert parse_kb(NUMBERS).diagnostics == []
    src = NUMBERS.replace(old, new, 1)
    result = parse_kb(src)
    assert result.kb is None
    assert any(d.line == line for d in result.errors)
    path = tmp_path / "bad.kb"
    path.write_text(src)
    assert main(["kb", "validate", str(path)]) == 1
    assert f"error: line {line}:" in capsys.readouterr().out


@pytest.mark.parametrize("old, new, line, message", [
    pytest.param("low = [0.0, 5.0]", "low = [0.9, 0.1]", 2, "malformed range [0.9, 0.1]",
                 id="term"),
    pytest.param("high = [5.0, inf]", "high = [20.0, inf]", 3, "malformed range [20.0, 10.0]",
                 id="term-saturated"),
    pytest.param("trustlevel high = [0.5, 1.0]", "trustlevel high = [0.9, 0.1]", 6,
                 "malformed range [0.9, 0.1]", id="trustlevel"),
    pytest.param("domain [0.0, 10.0]", "domain [0.9, 0.1]", 1, "malformed range [0.9, 0.1]",
                 id="domain"),
    pytest.param("high = [5.0, inf]", "high = [inf, 10.0]", 3,
                 "expected a finite number, got 'inf'", id="term-lower-inf"),
    pytest.param("trustlevel high = [0.5, 1.0]", "trustlevel high = [0.0, inf]", 6,
                 "expected a finite number, got 'inf'", id="trustlevel-inf"),
    pytest.param("domain [0.0, 10.0]", "domain [0.0, inf]", 1,
                 "expected a finite number, got 'inf'", id="domain-inf"),
])
def test_range_error_names_its_line(old, new, line, message):
    result = parse_kb(NUMBERS.replace(old, new, 1))
    assert result.kb is None
    assert (line, message) in [(d.line, d.message) for d in result.errors]


def test_inf_saturates_a_term_upper_bound():
    high = parse_kb(NUMBERS).kb.features["pages"].terms[1]
    assert (high.label, high.lower, high.upper, high.saturated) == ("high", 5.0, 10.0, True)


GOOD_RULES = (
    "rule NM1: IF not_minor is very_low THEN trust is low\n"
    "rule B1: IF comments is low THEN trust is high\n"
)


@pytest.mark.parametrize("src, line, message", [
    pytest.param(MINI_HEADER + GOOD_RULES + "contradiction ZZ: IF rule NOPE THEN NOT rule B1\n",
                 13, "contradiction ZZ: unknown rule 'NOPE'", id="unknown-rule"),
    pytest.param(MINI_HEADER + "rule R: IF pages is low THEN trust is low\n" + GOOD_RULES,
                 11, "rule R: unknown feature 'pages'", id="unknown-feature"),
    pytest.param(MINI_HEADER + GOOD_RULES + "rule R: IF comments is nope THEN trust is low\n",
                 13, "rule R: feature comments has no term 'nope'", id="unknown-term"),
    pytest.param(MINI_HEADER + GOOD_RULES
                 + "contradiction ZZ: IF comments is nope THEN NOT rule B1\n",
                 13, "contradiction ZZ: feature comments has no term 'nope'",
                 id="unknown-term-premises"),
    pytest.param(MINI_HEADER + "rule R: IF comments is low THEN trust is very_high\n",
                 11, "rule R: unknown trust level 'very_high'", id="unknown-trust-level"),
    pytest.param(MINI_HEADER.replace("high = [0.5, 1.0]", "high = [0.6, 1.0]") + GOOD_RULES,
                 10, "trust levels low and high do not tile [0, 1]", id="tiling-gap"),
    pytest.param(MINI_HEADER.replace("low = [0.0, 0.5]", "low = [0.1, 0.5]") + GOOD_RULES,
                 9, "trust levels must span [0, 1]", id="span-start"),
])
def test_validation_error_names_its_line(tmp_path, capsys, src, line, message):
    result = parse_kb(src)
    assert result.kb is None
    assert [(d.line, d.message) for d in result.errors] == [(line, message)]
    path = tmp_path / "bad.kb"
    path.write_text(src)
    assert main(["kb", "validate", str(path)]) == 1
    assert f"error: line {line}: {message}" in capsys.readouterr().out


def test_unresolved_target_is_warning():
    src = MINI_HEADER + (
        "rule NM1: IF not_minor is very_low THEN trust is low\n"
        "contradiction Z: IF rule NM1 THEN NOT rule NOPE\n"
    )
    result = parse_kb(src)
    assert result.kb is not None
    assert result.kb.contradictions["Z"].unresolved == ("NOPE",)
    assert any(d.severity == "warning" and "unresolved" in d.message
               for d in result.diagnostics)


def test_diagnostics_sorted_by_line():
    src = MINI_HEADER + (
        "rule R1: IF comments is nope THEN trust is low\n"
        "rule R2: IF comments is nah THEN trust is low\n"
    )
    result = parse_kb(src)
    lines = [d.line for d in result.diagnostics]
    assert lines == sorted(lines)


def test_builtin_kb1_counts(kb1):
    assert len(kb1.rules) == 29
    assert len(kb1.contradictions) == 43


def test_builtin_kb2_counts(kb2):
    assert len(kb2.rules) == 29
    # 55 directed rows plus 252 mutual rows, each expanding to two
    assert len(kb2.contradictions) == 55 + 2 * 252
    mutual = [c for c in kb2.contradictions.values() if c.mutual_with is not None]
    assert len(mutual) == 2 * 252
    for c in mutual:
        twin = kb2.contradictions[c.mutual_with]
        assert twin.mutual_with == c.label
        assert (twin.premises, twin.contradiction_targets) == (None, ())
        assert twin.rule_targets == (c.rule,)
        assert c.rule_targets == (twin.rule,)


def test_kb2_shares_kb1_rules(kb1, kb2):
    assert kb1.rules == kb2.rules
    assert kb1.features == kb2.features
    assert kb1.trust_levels == kb2.trust_levels


def test_bot_a_unresolved_in_builtin(kb1):
    bot_a = kb1.contradictions["Bot.a"]
    assert bot_a.rule_targets + bot_a.contradiction_targets == ()
    assert kb1.contradictions["Bot.a"].unresolved == ("U4",)


def test_load_builtin_rejects_unknown():
    with pytest.raises(ValueError, match="KB3"):
        load_builtin("KB3")
