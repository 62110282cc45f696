from .model import (
    Contradiction,
    ContradictionGraph,
    Feature,
    Fmf,
    KbValidationError,
    KnowledgeBase,
    LinguisticTerm,
    Premise,
    Rule,
    RuleRef,
    TrustLevel,
    contradiction_graph,
)
from .parser import (
    KbParseError,
    ParseDiagnostic,
    ParseResult,
    load_builtin,
    parse_kb,
    serialize_kb,
)

__all__ = [
    "Contradiction", "ContradictionGraph", "Feature", "Fmf", "KbValidationError",
    "KnowledgeBase", "LinguisticTerm", "Premise", "Rule", "RuleRef", "TrustLevel",
    "contradiction_graph",
    "KbParseError", "ParseDiagnostic", "ParseResult", "load_builtin", "parse_kb", "serialize_kb",
]
