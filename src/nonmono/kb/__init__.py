from .model import (
    Contradiction,
    Feature,
    Fmf,
    KbValidationError,
    KnowledgeBase,
    LinguisticTerm,
    Premise,
    Rule,
    TrustLevel,
    contradiction_graph,
)
from .parser import (
    KbParseError,
    ParseDiagnostic,
    ParseResult,
    load_builtin,
    parse_kb,
)

__all__ = [
    "Contradiction", "Feature", "Fmf", "KbValidationError",
    "KnowledgeBase", "LinguisticTerm", "Premise", "Rule", "TrustLevel",
    "contradiction_graph",
    "KbParseError", "ParseDiagnostic", "ParseResult", "load_builtin", "parse_kb",
]
