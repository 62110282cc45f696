"""Parser for the line-oriented knowledge-base DSL.

Grammar (one declaration per line, ``#`` starts a comment)::

    kb <id>
    feature <name> weight <0-8> domain [<lo>, <hi>] {
        term <label> = [<lo>, <hi>|inf] fmf <shape>(<params>) [<shape>(<params>) ...]
    }
    trustlevel <label> = [<lo>, <hi>] fmf <shape>(<params>) [<shape>(<params>) ...]
    rule <L>: IF <expr> THEN trust is <level>
    contradiction <L>: IF (rule <L2> | <expr>) THEN NOT (rule|contradiction|group) <L3>
    contradiction <L>: rule <A> MUTEX rule <B>
    group <name> = { <label>, <label>, ... }

``<expr>`` is ``<feature> is <term>`` combined with AND/OR; AND binds tighter
and parentheses are allowed.  Antecedents are normalized to DNF.  Every
number must be finite and a weight an integer.  ``inf`` in a term range is
replaced by the feature's domain upper bound (saturation).  Each contradiction
is parsed into the record the engines read: a rule label or DNF premises, and
its targets split into rules and contradictions in declaration order.  A
``MUTEX`` declaration expands to the two directed contradictions ``<L>.a`` and
``<L>.b``, each with its own rule as antecedent and the other as its target.
Unresolved contradiction targets are kept and reported as warnings.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources

from .model import (
    Contradiction,
    Feature,
    Fmf,
    KbValidationError,
    KnowledgeBase,
    LinguisticTerm,
    Rule,
    TrustLevel,
)

__all__ = ["ParseDiagnostic", "ParseResult", "KbParseError", "parse_kb", "load_builtin"]

BUILTIN_IDS = ("KB1", "KB2")


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" | "warning"
    line: int
    message: str

    def __str__(self):
        return f"{self.severity}: line {self.line}: {self.message}"


@dataclass
class ParseResult:
    kb: KnowledgeBase | None
    diagnostics: list[ParseDiagnostic]

    @property
    def errors(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]


class KbParseError(ValueError):
    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


_TOKEN = re.compile(r"\(|\)|\[|\]|\{|\}|,|=|:|[^\s()\[\]{},=:]+")


def _tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text)


# Rule and contradiction labels share one namespace, so the rule|contradiction
# keyword ahead of a target list is a reader hint; resolution is by lookup.


class _LineParser:
    """Token cursor over one logical line."""

    def __init__(self, tokens: list[str], line_no: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line_no

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise _SyntaxError(self.line, "unexpected end of line")
        self.pos += 1
        return tok

    def expect(self, *want: str) -> str:
        tok = self.next()
        if tok not in want and tok.upper() not in want:
            raise _SyntaxError(self.line, f"expected {' or '.join(want)!r}, got {tok!r}")
        return tok

    def number(self) -> float:
        tok = self.next()
        try:
            value = float(tok)
        except ValueError:
            raise _SyntaxError(self.line, f"expected a number, got {tok!r}") from None
        if not math.isfinite(value):
            raise _SyntaxError(self.line, f"expected a finite number, got {tok!r}")
        return value

    def done(self) -> bool:
        return self.pos >= len(self.tokens)


class _SyntaxError(Exception):
    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(message)


def parse_kb(source: str, kb_id: str | None = None) -> ParseResult:
    """Parse DSL text into a validated knowledge base.

    Returns the knowledge base together with all diagnostics; the knowledge
    base is ``None`` when any error-severity diagnostic was produced.  A
    validation error is reported at the line that declared the rule,
    contradiction or trust level it names.
    """
    diags: list[ParseDiagnostic] = []
    features: dict[str, Feature] = {}
    trust_levels: dict[str, TrustLevel] = {}
    rules: dict[str, Rule] = {}
    groups: dict[str, tuple[str, ...]] = {}
    # raw contradictions: (line, label, rule, premises, kind, targets, mutual_with)
    raw_contras: list[tuple] = []
    # line of each (keyword, label) declaration, for validation errors
    declared_at: dict[tuple[str, str], int] = {}
    declared_id = kb_id

    def err(line: int, msg: str):
        diags.append(ParseDiagnostic("error", line, msg))

    def warn(line: int, msg: str):
        diags.append(ParseDiagnostic("warning", line, msg))

    lines = source.splitlines()
    in_feature: dict | None = None  # name, weight, domain, terms, line
    for idx, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        lp = _LineParser(_tokenize(text), idx)
        try:
            head = lp.next()
            if in_feature is not None:
                if head == "}":
                    f = in_feature
                    try:
                        features[f["name"]] = Feature(
                            name=f["name"],
                            weight=f["weight"],
                            terms=tuple(f["terms"]),
                            domain_min=f["domain"][0],
                            domain_max=f["domain"][1],
                        )
                    except KbValidationError as e:
                        err(f["line"], str(e))
                    in_feature = None
                elif head == "term":
                    _parse_term_line(lp, in_feature)
                else:
                    raise _SyntaxError(idx, f"expected 'term' or '}}' inside feature block, got {head!r}")
                continue
            if head == "kb":
                declared_id = lp.next()
            elif head == "feature":
                name = lp.next()
                if name in features:
                    err(idx, f"duplicate feature {name!r}")
                lp.expect("weight")
                weight = lp.number()
                if weight != int(weight):
                    raise _SyntaxError(idx, f"weight must be an integer, got {weight}")
                lp.expect("domain")
                lo, hi, _ = _range(lp)
                lp.expect("{")
                in_feature = {"name": name, "weight": int(weight), "domain": (lo, hi), "terms": [], "line": idx}
            elif head == "trustlevel":
                label = lp.next()
                if label in trust_levels:
                    err(idx, f"duplicate trust level {label!r}")
                lp.expect("=")
                lo, hi, _ = _range(lp)
                fmfs = _parse_fmfs(lp) if not lp.done() else {}
                trust_levels[label] = TrustLevel(label, lo, hi, fmfs)
                declared_at["trustlevel", label] = idx
            elif head == "rule":
                label = lp.next()
                if label in rules:
                    err(idx, f"duplicate rule {label!r}")
                lp.expect(":")
                lp.expect("IF")
                dnf = _parse_expr_dnf(lp)
                lp.expect("THEN")
                lp.expect("trust")
                lp.expect("is")
                level = lp.next()
                rules[label] = Rule(label, dnf, level)
                declared_at["rule", label] = idx
            elif head == "contradiction":
                label = lp.next()
                lp.expect(":")
                tok = lp.peek()
                if tok == "rule" and "MUTEX" in lp.tokens:
                    lp.expect("rule")
                    a = lp.next()
                    lp.expect("MUTEX")
                    lp.expect("rule")
                    b = lp.next()
                    raw_contras.append((idx, f"{label}.a", a, None, "rule", (b,), f"{label}.b"))
                    raw_contras.append((idx, f"{label}.b", b, None, "rule", (a,), f"{label}.a"))
                else:
                    lp.expect("IF")
                    rule = premises = None
                    if lp.peek() == "rule":
                        lp.next()
                        rule = lp.next()
                    else:
                        premises = _parse_expr_dnf(lp)
                    lp.expect("THEN")
                    lp.expect("NOT")
                    kind = lp.expect("rule", "contradiction", "group")
                    targets = [lp.next()]
                    while lp.peek() == ",":
                        lp.next()
                        targets.append(lp.next())
                    raw_contras.append((idx, label, rule, premises, kind, tuple(targets), None))
            elif head == "group":
                name = lp.next()
                if name in groups:
                    err(idx, f"duplicate group {name!r}")
                lp.expect("=")
                lp.expect("{")
                members = []
                while lp.peek() != "}":
                    tok = lp.next()
                    if tok != ",":
                        members.append(tok)
                lp.expect("}")
                groups[name] = tuple(members)
            else:
                raise _SyntaxError(idx, f"unknown declaration {head!r}")
            if in_feature is None and not lp.done() and head != "feature":
                raise _SyntaxError(idx, f"trailing tokens: {' '.join(lp.tokens[lp.pos:])}")
        except _SyntaxError as e:
            err(e.line, e.message)
        except (KbValidationError, ValueError) as e:
            err(idx, str(e))
    if in_feature is not None:
        err(in_feature["line"], f"feature {in_feature['name']!r} block never closed")
    if not features:
        err(len(lines) or 1, "no features declared")

    # second phase: resolve contradictions (labels, groups, targets)
    contradictions: dict[str, Contradiction] = {}
    seen = set(rules)
    declared_contras = {label for (_l, label, *_rest) in raw_contras}
    for line, label, rule, premises, kind, raw_targets, mutual in raw_contras:
        if label in seen or label in contradictions:
            err(line, f"duplicate label {label!r}")
            continue
        if kind == "group":
            expanded: list[str] = []
            missing_group = False
            for g in raw_targets:
                members = groups.get(g)
                if members is None:
                    err(line, f"unknown group {g!r}")
                    missing_group = True
                else:
                    expanded.extend(members)
            if missing_group:
                continue
            raw_targets = tuple(expanded)
        rule_targets = tuple(t for t in raw_targets if t in rules)
        contra_targets = tuple(t for t in raw_targets if t in declared_contras)
        unresolved = tuple(t for t in raw_targets if t not in rules and t not in declared_contras)
        for t in unresolved:
            warn(line, f"contradiction {label}: unresolved target {t!r}")
        if label in contra_targets:
            warn(line, f"contradiction {label} targets itself")
        contradictions[label] = Contradiction(
            label, rule, premises, rule_targets, contra_targets, unresolved, mutual)
        declared_at["contradiction", label] = line

    if any(d.severity == "error" for d in diags):
        return ParseResult(None, _sorted(diags))
    kb = KnowledgeBase(
        id=declared_id or "KB",
        features=features,
        trust_levels=trust_levels,
        rules=rules,
        contradictions=contradictions,
    )
    try:
        kb.validate()
    except KbValidationError as e:
        err(declared_at.get(e.declaration, len(lines) or 1), str(e))
        return ParseResult(None, _sorted(diags))
    return ParseResult(kb, _sorted(diags))


def _sorted(diags: list[ParseDiagnostic]) -> list[ParseDiagnostic]:
    return sorted(diags, key=lambda d: (d.line, d.message))


def _range(lp: _LineParser, saturation: float | None = None) -> tuple[float, float, bool]:
    """``[lo, hi]`` and whether ``hi`` was ``inf``, which only a caller
    passing the ``saturation`` bound that replaces it accepts."""
    lp.expect("[")
    lo = lp.number()
    lp.expect(",")
    saturated = saturation is not None and lp.peek() == "inf"
    if saturated:
        lp.next()
        hi = saturation
    else:
        hi = lp.number()
    lp.expect("]")
    if lo > hi:
        raise _SyntaxError(lp.line, f"malformed range [{lo}, {hi}]")
    return lo, hi, saturated


def _parse_fmfs(lp: _LineParser) -> dict[str, Fmf]:
    lp.expect("fmf")
    fmfs: dict[str, Fmf] = {}
    while not lp.done():
        shape = lp.next()
        lp.expect("(")
        params = []
        while lp.peek() != ")":
            if lp.peek() == ",":
                lp.next()
            else:
                params.append(lp.number())
        lp.expect(")")
        fmf = Fmf(shape, tuple(params))
        variant = "gaussian" if shape == "gaussian" else "triangular"
        if variant in fmfs:
            raise _SyntaxError(lp.line, f"duplicate {variant!r} membership function")
        fmfs[variant] = fmf
    if not fmfs:
        raise _SyntaxError(lp.line, "missing membership function")
    return fmfs


def _parse_term_line(lp: _LineParser, feature_ctx: dict) -> None:
    label = lp.next()
    if any(t.label == label for t in feature_ctx["terms"]):
        raise _SyntaxError(lp.line, f"duplicate term {label!r}")
    lp.expect("=")
    lo, hi, saturated = _range(lp, feature_ctx["domain"][1])
    fmfs = _parse_fmfs(lp)
    feature_ctx["terms"].append(LinguisticTerm(label, lo, hi, fmfs, saturated))


def _parse_expr_dnf(lp: _LineParser) -> tuple:
    """Parse a premise expression into DNF; AND binds tighter than OR."""

    def atom():
        if lp.peek() == "(":
            lp.next()
            dnf = or_expr()
            lp.expect(")")
            return dnf
        feature = lp.next()
        lp.expect("is")
        term = lp.next()
        return (((feature, term),),)

    def and_expr():
        dnf = atom()
        while lp.peek() == "AND":
            lp.next()
            rhs = atom()
            dnf = tuple(l + r for l in dnf for r in rhs)
        return dnf

    def or_expr():
        dnf = and_expr()
        while lp.peek() == "OR":
            lp.next()
            dnf = dnf + and_expr()
        return dnf

    return or_expr()


def load_builtin(kb_id: str) -> KnowledgeBase:
    """Load one of the shipped knowledge bases (``KB1`` or ``KB2``)."""
    if kb_id not in BUILTIN_IDS:
        raise ValueError(f"unknown builtin knowledge base {kb_id!r}; expected one of {BUILTIN_IDS}")
    text = resources.files(__package__).joinpath(f"data/{kb_id.lower()}.kb").read_text("utf-8")
    result = parse_kb(text, kb_id=kb_id)
    if result.kb is None:
        raise KbParseError(result.errors)
    return result.kb
