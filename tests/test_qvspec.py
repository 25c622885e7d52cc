from fractions import Fraction

import pytest

from qval.errors import ParseError
from qval.lemmas import constructor_pool
from qval.quasi import MinOf, NAdic, Scaled
from qval.qvspec import parse_qv
from qval.triples import QuasiValuation
from qval.valuations import ExtendedValuation, PAdicValuation, SplitKind


def test_atoms():
    assert parse_qv("vp:2") == PAdicValuation(2)
    assert parse_qv("inert:5,d=2") == ExtendedValuation(5, 2, SplitKind.INERT)
    assert parse_qv("ram:2,d=2") == ExtendedValuation(2, 2, SplitKind.RAMIFIED)
    assert parse_qv("split1:7,d=2") == ExtendedValuation(7, 2, SplitKind.SPLIT, 1)
    assert parse_qv("split2:7,d=2") == ExtendedValuation(7, 2, SplitKind.SPLIT, 2)
    assert parse_qv("ext:5,d=2") == ExtendedValuation(5, 2, SplitKind.INERT)
    assert parse_qv("nadic:12") == NAdic(12)


ONE_SPEC_PER_FORM = (
    "vp:2", "inert:5,d=2", "ram:2,d=2", "split1:7,d=2", "split2:7,d=2", "ext:5,d=2",
    "min[vp:2|vp:3]", "nadic:12", "scaled:3/2,vp:3",
)


def test_every_constructor_is_a_quasi_valuation():
    for w in constructor_pool() + [parse_qv(spec) for spec in ONE_SPEC_PER_FORM]:
        assert isinstance(w, QuasiValuation), w


def test_composites():
    assert parse_qv("min[vp:2|vp:3]") == MinOf((PAdicValuation(2), PAdicValuation(3)))
    w = parse_qv("min[split1:7,d=2|split2:7,d=2]")
    assert isinstance(w, MinOf) and w.extended_prime == 7
    scaled = parse_qv("scaled:3/2,vp:3")
    assert scaled == Scaled(PAdicValuation(3), Fraction(3, 2))
    nested = parse_qv("scaled:2,min[vp:2|vp:3]")
    assert isinstance(nested, Scaled) and isinstance(nested.inner, MinOf)


def test_round_trip_through_str():
    for spec in (
        "vp:2",
        "nadic:12",
        "min[vp:2|vp:3]",
        "min[split1:7,d=2|split2:7,d=2]",
        "scaled:3/2,min[inert:5,d=2|ram:2,d=2]",
        "ram:7,d=-7",
    ):
        w = parse_qv(spec)
        assert parse_qv(str(w)) == w


def test_errors():
    for bad in (
        "vq:2",
        "vp:4",          # not prime
        "vp:x",
        "min[]",
        "min[nadic:4]",  # members must be valuations
        "nadic:1",
        "scaled:vp:2",   # missing factor
        "scaled:0,vp:2",
        "split1:5,d=2",  # 5 is inert in Q(sqrt(2))
        "ext:7,d=2",     # splits: a branch must be chosen
        "inert:5",       # missing d
        "ram:2,d=3x",
    ):
        with pytest.raises(ParseError):
            parse_qv(bad)
