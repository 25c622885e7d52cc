"""Exact quasi-valuations on Q and Q(√d), the ultrametric topology they
induce, and constructive simultaneous approximation."""

from .approximation import (
    ApproxSolution,
    ApproxTarget,
    Certificate,
    intersection_basis,
    rational_approx,
    weak_approx,
)
from .errors import (
    DomainError,
    ParseError,
    PropertyViolation,
    QvalError,
)
from .exprparse import format_element, parse_element
from .quadratic import QuadElem, Rational, is_squarefree
from .quasi import (
    MinOf,
    NAdic,
    QVRing,
    Scaled,
    check_axioms,
    instability_witness,
    min_extension,
    n_adic,
    n_adic_decomposition,
    value_bound,
    value_witness,
)
from .qvspec import parse_qv
from .report import PropertyReport
from .topology import (
    Ball,
    BallRefinement,
    Side,
    dichotomy,
    integer_refinement,
    membership_scaling_chain,
    membership_scaling_rows,
    recenter,
    ring_value_equivalence,
    separation_witness,
)
from .triples import QuasiValuation
from .valuations import (
    ExtendedValuation,
    PAdicValuation,
    SplitKind,
    classify,
    extensions_of,
    hensel_sqrt,
    v_p,
)
from .values import INFINITY, Value

__all__ = [
    "ApproxSolution",
    "ApproxTarget",
    "Ball",
    "BallRefinement",
    "Certificate",
    "DomainError",
    "ExtendedValuation",
    "INFINITY",
    "MinOf",
    "NAdic",
    "PAdicValuation",
    "ParseError",
    "PropertyReport",
    "PropertyViolation",
    "QVRing",
    "QuasiValuation",
    "QuadElem",
    "QvalError",
    "Rational",
    "Scaled",
    "Side",
    "SplitKind",
    "Value",
    "check_axioms",
    "classify",
    "dichotomy",
    "extensions_of",
    "format_element",
    "hensel_sqrt",
    "instability_witness",
    "integer_refinement",
    "intersection_basis",
    "is_squarefree",
    "membership_scaling_chain",
    "membership_scaling_rows",
    "min_extension",
    "n_adic",
    "n_adic_decomposition",
    "parse_element",
    "parse_qv",
    "rational_approx",
    "recenter",
    "ring_value_equivalence",
    "separation_witness",
    "v_p",
    "value_bound",
    "value_witness",
    "weak_approx",
]
