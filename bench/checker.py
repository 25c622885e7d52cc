"""Independent reference arithmetic for checking qval's outputs.

Nothing here imports qval, and everything is integer arithmetic: elements
are integer triples (A, B, Q) standing for (A + B*sqrt(d))/Q, and values
are ``None`` for infinity or a reduced pair (num, den) with den > 0.
Quasi-valuations are small tuples ("specs"):

    ("vp", p)
    ("inert", p, d)  ("ram", p, d)  ("split", p, d, branch)
    ("min", (spec, ...))
    ("nadic", n, ((p, c), ...))        # n = prod p**c, factored by the caller
    ("scaled", (u, v), spec)           # (u/v) * spec

Split-case conventions follow the documented qval API: for odd p, branch 1
is the root congruent to the smaller of the two square roots of d mod p;
at p = 2 the roots are told apart mod 4 (branch 1 is 1 mod 4).
"""

import math
import re

# Miller-Rabin with these bases is deterministic below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= MR_BOUND:
        raise ValueError(f"{n} is beyond the deterministic primality bound")
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_squarefree(n: int) -> bool:
    """Trial division; callers keep |n| small."""
    n = abs(n)
    if n == 0:
        return False
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


def vp_int(p: int, n: int) -> int:
    """Multiplicity of p in the nonzero integer n, by repeated squaring of p
    so that valuations in the thousands stay cheap."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    n = abs(n)
    if n % p:
        return 0
    powers = []
    pk = p
    while n % pk == 0:
        powers.append(pk)
        n //= pk
        pk *= pk
    v = (1 << len(powers)) - 1
    for i in range(len(powers) - 1, -1, -1):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


# ---------------------------------------------------------------------------
# values


def make_value(num: int, den: int = 1):
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    return (num // g, den // g)


def value_lt(x, y) -> bool:
    if x is None:
        return False
    if y is None:
        return True
    return x[0] * y[1] < y[0] * x[1]


def value_min(values):
    out = None
    for v in values:
        if value_lt(v, out):
            out = v
    return out


def parse_rational(text: str):
    """'n' or 'n/m' as a reduced (num, den) pair."""
    num, _, den = text.strip().partition("/")
    return make_value(int(num), int(den) if den else 1)


def parse_value(text: str):
    text = text.strip()
    return None if text == "inf" else parse_rational(text)


def value_text(v) -> str:
    if v is None:
        return "inf"
    return str(v[0]) if v[1] == 1 else f"{v[0]}/{v[1]}"


def value_floor(v) -> int:
    return v[0] // v[1]


# ---------------------------------------------------------------------------
# splitting behaviour and p-adic square roots


def classify(p: int, d: int) -> str:
    disc = d if d % 4 == 1 else 4 * d
    if disc % p == 0:
        return "ram"
    if p == 2:
        return "split" if d % 8 == 1 else "inert"
    return "split" if pow(d % p, (p - 1) // 2, p) == 1 else "inert"


def _small_sqrt_mod(a: int, p: int) -> int:
    a %= p
    for r in range(1, p):
        if r * r % p == a:
            return r
    raise ValueError(f"{a} is not a nonzero square mod {p}")


def split_root(p: int, d: int, k: int, branch: int) -> int:
    """s mod p^k agreeing with the p-adic square root of d on the branch."""
    if p == 2:
        # s^2 = d mod 2^m with s odd; adding 2^(m-1) flips bit m of s^2 and
        # keeps s mod 4.  Lifting to 2^(k+1) pins the root to k digits.
        s, m = (1 if branch == 1 else 3), 3
        while m < k + 1:
            if ((s * s - d) >> m) & 1:
                s += 1 << (m - 1)
            m += 1
        return s % (1 << k)
    r = _small_sqrt_mod(d, p)
    s = min(r, p - r) if branch == 1 else max(r, p - r)
    target = p**k
    mod = p
    while mod < target:
        mod = min(mod * mod, target)
        s = (s - (s * s - d) * pow(2 * s, -1, mod)) % mod
    return s % target


# ---------------------------------------------------------------------------
# specs


def spec_field(spec):
    """The d of the field a spec lives on, or None for Q."""
    tag = spec[0]
    if tag in ("inert", "ram", "split"):
        return spec[2]
    if tag == "min":
        return spec_field(spec[1][0])
    if tag == "scaled":
        return spec_field(spec[2])
    return None


def spec_text(spec) -> str:
    """The spec in qval's --qv grammar."""
    tag = spec[0]
    if tag == "vp":
        return f"vp:{spec[1]}"
    if tag in ("inert", "ram"):
        return f"{tag}:{spec[1]},d={spec[2]}"
    if tag == "split":
        return f"split{spec[3]}:{spec[1]},d={spec[2]}"
    if tag == "min":
        return "min[" + "|".join(spec_text(m) for m in spec[1]) + "]"
    if tag == "nadic":
        return f"nadic:{spec[1]}"
    if tag == "scaled":
        u, v = spec[1]
        factor = str(u) if v == 1 else f"{u}/{v}"
        return f"scaled:{factor},{spec_text(spec[2])}"
    raise ValueError(f"unknown spec {spec!r}")


def evaluate(spec, elem):
    """w(x) for x = (A + B*sqrt(d))/Q, exactly."""
    a, b, q = elem
    tag = spec[0]
    if tag == "min":
        return value_min(evaluate(m, elem) for m in spec[1])
    if tag == "scaled":
        inner = evaluate(spec[2], elem)
        if inner is None:
            return None
        u, v = spec[1]
        return make_value(inner[0] * u, inner[1] * v)
    if a == 0 and b == 0:
        return None
    if tag == "vp":
        if b:
            raise ValueError("vp is defined on Q")
        return make_value(vp_int(spec[1], a) - vp_int(spec[1], q))
    if tag == "nadic":
        if b:
            raise ValueError("the n-adic function is defined on Q")
        return make_value(min(
            (vp_int(p, a) - vp_int(p, q)) // c for p, c in spec[2]
        ))
    p, d = spec[1], spec[2]
    vq = vp_int(p, q)
    if tag in ("inert", "ram"):
        return make_value(vp_int(p, a * a - b * b * d) - 2 * vq, 2)
    if b == 0:
        return make_value(vp_int(p, a) - vq)
    vb = vp_int(p, b)
    k = 8
    while k <= 1 << 20:
        t = a + b * split_root(p, d, k, spec[3])
        if t:
            vt = vp_int(p, t)
            if vt < vb + k:
                return make_value(vt - vq)
        k *= 2
    raise ValueError(f"split value of {elem} not certified")


# ---------------------------------------------------------------------------
# elements


def triple(a_num: int, a_den: int, b_num: int, b_den: int):
    """(a + b*sqrt(d)) with rational coordinates as an integer triple."""
    q = math.lcm(a_den, b_den)
    return (a_num * (q // a_den), b_num * (q // b_den), q)


def same_element(x, y) -> bool:
    return x[0] * y[2] == y[0] * x[2] and x[1] * y[2] == y[1] * x[2]


def sub(x, y):
    return (x[0] * y[2] - y[0] * x[2], x[1] * y[2] - y[1] * x[2], x[2] * y[2])


def element_expr(elem, d) -> str:
    """An expression qval's parser reads back as the element."""
    a, b, q = elem
    text = f"({a})"
    if b:
        text = f"({a}) + ({b})*sqrt({d})"
    return text if q == 1 else f"({text})/{q}"


_RATIONAL = r"-?\d+(?:/\d+)?"
_ELEMENT = re.compile(
    rf"^(?:(?P<a>{_RATIONAL})(?: (?P<sign>[+-]) (?P<b>\d+(?:/\d+)?)\*sqrt\((?P<d>-?\d+)\))?"
    rf"|(?P<neg>-?)(?P<b_only>\d+(?:/\d+)?)\*sqrt\((?P<d_only>-?\d+)\))$"
)


def parse_element_text(text: str):
    """Read qval's canonical element text back into a triple."""
    m = _ELEMENT.match(text.strip())
    if m is None:
        raise ValueError(f"unrecognised element text {text[:80]!r}")
    if m.group("b_only") is not None:
        a = (0, 1)
        b = parse_rational(m.group("b_only"))
        if m.group("neg"):
            b = (-b[0], b[1])
    else:
        a = parse_rational(m.group("a"))
        b = (0, 1)
        if m.group("b") is not None:
            b = parse_rational(m.group("b"))
            if m.group("sign") == "-":
                b = (-b[0], b[1])
    return triple(a[0], a[1], b[0], b[1])


def axiom_assertions(values) -> int:
    """The number of exact assertions the axiom harness makes on samples
    with these values: w(0), one negation per sample, two per unordered
    pair (with repetition), and the equality case per pair that differs."""
    n = len(values)
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    same = sum(c * (c - 1) // 2 for c in counts.values())
    differing = n * (n - 1) // 2 - same
    return 1 + n + n * (n + 1) + differing
