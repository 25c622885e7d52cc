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
from .valuations import ExtendedValuation, PAdicValuation, SplitKind, classify

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


# tag → (kind, branch); ext takes the kind p has in Q(√d) and refuses a split p
_EXTENSIONS = {"inert": (SplitKind.INERT, 0), "ram": (SplitKind.RAMIFIED, 0),
               "split1": (SplitKind.SPLIT, 1), "split2": (SplitKind.SPLIT, 2), "ext": (None, 0)}


def parse_valuation(text: str):
    """A single valuation atom."""
    text = text.strip()
    tag, colon, body = text.partition(":")
    try:
        if colon and tag == "vp":
            return PAdicValuation(_int(body, "prime"))
        if colon and tag in _EXTENSIONS:
            p, d = _split_extension_args(body, tag)
            kind, branch = _EXTENSIONS[tag]
            if kind is None:
                kind = classify(p, d)
                if kind is SplitKind.SPLIT:
                    raise ParseError(
                        f"{p} splits in Q(sqrt({d})); choose split1:... or split2:..."
                    )
            return ExtendedValuation(p, d, kind, branch)
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
