"""Compact text specifications for quasi-valuations.

Grammar (used by the CLI's --qv flag):

    spec      := atom | "min[" valuation ("|" valuation)* "]"
               | "nadic:" N | "scaled:" FACTOR "," spec
    valuation := "vp:" P
               | "inert:" P ",d=" D | "ram:" P ",d=" D
               | "split1:" P ",d=" D | "split2:" P ",d=" D
               | "ext:" P ",d=" D          (the unique extension; an error
                                            when P splits — pick a branch)
    FACTOR    := positive rational, e.g. 2 or 3/2

Examples: ``vp:2``, ``min[vp:2|vp:3]``, ``min[split1:7,d=2|split2:7,d=2]``,
``nadic:12``, ``scaled:1/2,vp:3``.
"""

from .errors import DomainError, ParseError
from .exprparse import parse_rational
from .quasi import MinOf, NAdic, Scaled
from .valuations import ExtendedValuation, PAdicValuation, SplitKind, classify, extensions_of

GRAMMAR_HELP = (
    "vp:P | inert:P,d=D | ram:P,d=D | split1:P,d=D | split2:P,d=D | ext:P,d=D | "
    "min[V|V|...] | nadic:N | scaled:FACTOR,SPEC"
)


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {text!r}") from None


def _split_extension_args(body: str, tag: str) -> tuple[int, int]:
    parts = body.split(",")
    if len(parts) != 2 or not parts[1].startswith("d="):
        raise ParseError(f"{tag} takes 'P,d=D', got {body!r}")
    return _int(parts[0], "prime"), _int(parts[1][2:], "d")


def parse_valuation(text: str):
    """A single valuation atom."""
    text = text.strip()
    try:
        if text.startswith("vp:"):
            return PAdicValuation(_int(text[3:], "prime"))
        if text.startswith("inert:"):
            p, d = _split_extension_args(text[6:], "inert")
            return ExtendedValuation(p, d, SplitKind.INERT)
        if text.startswith("ram:"):
            p, d = _split_extension_args(text[4:], "ram")
            return ExtendedValuation(p, d, SplitKind.RAMIFIED)
        if text.startswith("split1:"):
            p, d = _split_extension_args(text[7:], "split1")
            return ExtendedValuation(p, d, SplitKind.SPLIT, branch=1)
        if text.startswith("split2:"):
            p, d = _split_extension_args(text[7:], "split2")
            return ExtendedValuation(p, d, SplitKind.SPLIT, branch=2)
        if text.startswith("ext:"):
            p, d = _split_extension_args(text[4:], "ext")
            if classify(p, d) is SplitKind.SPLIT:
                raise ParseError(
                    f"{p} splits in Q(sqrt({d})); choose split1:... or split2:..."
                )
            return extensions_of(p, d)[0]
    except DomainError as exc:
        raise ParseError(str(exc)) from None
    raise ParseError(f"unknown valuation spec {text!r}; grammar: {GRAMMAR_HELP}")


def parse_qv(text: str):
    """A quasi-valuation from its compact spec string."""
    text = text.strip()
    try:
        if text.startswith("min[") and text.endswith("]"):
            body = text[4:-1]
            if not body:
                raise ParseError("min[...] needs at least one member")
            return MinOf(tuple(parse_valuation(part) for part in body.split("|")))
        if text.startswith("nadic:"):
            return NAdic(_int(text[6:], "n-adic base"))
        if text.startswith("scaled:"):
            body = text[7:]
            comma = body.find(",")
            if comma < 0:
                raise ParseError("scaled takes 'FACTOR,SPEC'")
            factor = parse_rational(body[:comma], "scaling factor")
            return Scaled(parse_qv(body[comma + 1:]), factor)
    except DomainError as exc:
        raise ParseError(str(exc)) from None
    return parse_valuation(text)
