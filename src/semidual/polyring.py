"""Exact arithmetic substrate: prime fields, monomials, monomial orders and
graded multivariate polynomials.

Coefficients are plain ints reduced into [0, p).  Monomials are exponent
tuples.  Polynomials are immutable and store their terms sorted descending
under the ring's monomial order, so every downstream iteration is
reproducible.  Rings carry per-variable positive integer weights (default 1)
used for all homogeneity bookkeeping; monomial orders compare by unweighted
total degree.
"""

from __future__ import annotations

from operator import add, le, neg, sub

__all__ = [
    "PrimeField",
    "MonomialOrder",
    "PolyRing",
    "Polynomial",
    "PolyParseError",
    "parse_polynomial",
    "mono_mul",
    "mono_div",
    "mono_divides",
    "mono_lcm",
    "mono_degree",
    "intpoly_add",
    "intpoly_sub",
    "intpoly_shift",
]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for machine-width ints."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic mod a prime p.  Elements are ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p

    def normalize(self, a: int) -> int:
        return a % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


# ---------------------------------------------------------------------------
# Monomials: bare exponent tuples.

def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_div(a, b):
    # caller guarantees divisibility
    return tuple(map(sub, a, b))


def mono_divides(a, b):
    """True if monomial a divides monomial b."""
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_degree(a) -> int:
    return sum(a)


class _KeyMemo(dict):
    """exps -> MonomialOrder.key(exps), filled on first lookup."""

    __slots__ = ("order",)

    def __init__(self, order):
        self.order = order

    def __missing__(self, exps):
        k = self[exps] = self.order.key(exps)
        return k


class MonomialOrder:
    """Total order on exponent tuples: degrevlex (default), deglex or lex,
    optionally composed with a variable priority permutation.

    perm lists variable indices in decreasing priority; identity by default.
    key() maps an exponent tuple to a sort key such that a > b in the order
    iff key(a) > key(b).  `keys` memoises it: `keys[exps]` computes a key
    once per distinct monomial, which is what the hot loops look up.
    """

    KINDS = ("degrevlex", "deglex", "lex")

    __slots__ = ("kind", "perm", "keys")

    def __init__(self, kind: str = "degrevlex", perm=None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown monomial order {kind!r}")
        self.kind = kind
        self.perm = tuple(perm) if perm is not None else None
        self.keys = _KeyMemo(self)

    def key(self, exps):
        e = exps if self.perm is None else tuple(exps[i] for i in self.perm)
        if self.kind == "degrevlex":
            return (sum(e), tuple(map(neg, reversed(e))))
        if self.kind == "deglex":
            return (sum(e), e)
        return e

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.perm == other.perm
        )

    def __hash__(self):
        return hash((self.kind, self.perm))

    def __repr__(self):
        if self.perm is None:
            return f"MonomialOrder({self.kind!r})"
        return f"MonomialOrder({self.kind!r}, perm={self.perm})"


class PolyRing:
    """A polynomial ring over a prime field with named, weighted variables
    and an active monomial order."""

    __slots__ = ("field", "names", "weights", "order", "_zero_exps")

    def __init__(self, field: PrimeField, names, weights=None, order=None):
        self.field = field
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        if weights is None:
            self.weights = (1,) * len(self.names)
        else:
            self.weights = tuple(weights)
            if len(self.weights) != len(self.names):
                raise ValueError("one weight per variable required")
            if any(w < 1 for w in self.weights):
                raise ValueError("variable weights must be positive")
        self.order = order if order is not None else MonomialOrder()
        self._zero_exps = (0,) * len(self.names)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def wdeg(self, exps) -> int:
        """Weighted degree of a monomial."""
        return sum(w * e for w, e in zip(self.weights, exps))

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        c = self.field.normalize(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, ((self._zero_exps, c),))

    def variable(self, i: int) -> "Polynomial":
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, ((exps, 1),))

    def monomial(self, exps, coeff: int = 1) -> "Polynomial":
        c = self.field.normalize(coeff)
        if c == 0:
            return self.zero()
        return Polynomial(self, ((tuple(exps), c),))

    def from_dict(self, terms: dict) -> "Polynomial":
        items = []
        for exps, c in terms.items():
            c = self.field.normalize(c)
            if c:
                items.append((tuple(exps), c))
        keys = self.order.keys
        items.sort(key=lambda t: keys[t[0]], reverse=True)
        return Polynomial(self, tuple(items))

    def monomials_of_wdeg(self, d: int):
        """All exponent tuples of weighted degree exactly d, sorted descending
        under the ring's order."""
        out = []

        def rec(i, rem, acc):
            if i == self.nvars - 1:
                w = self.weights[i]
                if rem % w == 0:
                    out.append(tuple(acc + [rem // w]))
                return
            w = self.weights[i]
            for e in range(rem // w + 1):
                rec(i + 1, rem - e * w, acc + [e])

        if d == 0:
            return [self._zero_exps]
        if d < 0:
            return []
        if self.nvars == 0:
            return []
        rec(0, d, [])
        out.sort(key=self.order.keys.__getitem__, reverse=True)
        return out

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
            and self.weights == other.weights
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.field, self.names, self.weights, self.order))

    def __repr__(self):
        return f"PolyRing(F{self.field.p}, {','.join(self.names)})"


class AmbientMismatch(ValueError):
    """Arithmetic attempted between elements of different rings."""


class Polynomial:
    """Immutable polynomial; terms sorted descending under the ring order."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms):
        self.ring = ring
        self.terms = terms  # tuple of (exps, coeff), coeff nonzero

    # -- queries ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def leading(self):
        """(coefficient, exponent tuple) of the leading term under the ring
        order; raises on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps, c = self.terms[0]
        return c, exps

    def constant_coefficient(self) -> int:
        for exps, c in self.terms:
            if not any(exps):
                return c
        return 0

    def wdeg(self) -> int:
        """Maximum weighted degree of the support; -1 for zero."""
        if not self.terms:
            return -1
        return max(self.ring.wdeg(e) for e, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {self.ring.wdeg(e) for e, _ in self.terms}
        return len(degs) == 1

    def homogeneous_degree(self):
        """Weighted degree if homogeneous and nonzero, else None for zero;
        raises for inhomogeneous input."""
        if not self.terms:
            return None
        degs = {self.ring.wdeg(e) for e, _ in self.terms}
        if len(degs) != 1:
            raise ValueError(f"polynomial {self} is not homogeneous")
        return degs.pop()

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise AmbientMismatch("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check(other)
        acc = dict(self.terms)
        p = self.ring.field.p
        for exps, c in other.terms:
            nc = (acc.get(exps, 0) + c) % p
            if nc:
                acc[exps] = nc
            else:
                acc.pop(exps, None)
        return self.ring.from_dict(acc)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.field.p
        return Polynomial(self.ring, tuple((e, -c % p) for e, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            c = self.ring.field.normalize(other)
            if c == 0:
                return self.ring.zero()
            p = self.ring.field.p
            return Polynomial(
                self.ring, tuple((e, c0 * c % p) for e, c0 in self.terms)
            )
        self._check(other)
        p = self.ring.field.p
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = mono_mul(e1, e2)
                nc = (acc.get(e, 0) + c1 * c2) % p
                if nc:
                    acc[e] = nc
                else:
                    acc.pop(e, None)
        return self.ring.from_dict(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative exponent")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def scale_mono(self, coeff: int, exps):
        """self * coeff * x^exps, the inner-loop primitive."""
        p = self.ring.field.p
        coeff %= p
        if coeff == 0:
            return self.ring.zero()
        return Polynomial(
            self.ring,
            tuple((mono_mul(e, exps), c * coeff % p) for e, c in self.terms),
        )

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.terms:
            factors = []
            for name, e in zip(self.ring.names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} over F{self.ring.field.p}>"


# ---------------------------------------------------------------------------
# Integer polynomials in one variable t, as {degree: coeff} dicts.  Used for
# Hilbert numerators.

def intpoly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for d, c in b.items():
        nc = out.get(d, 0) + c
        if nc:
            out[d] = nc
        else:
            out.pop(d, None)
    return out


def intpoly_sub(a: dict, b: dict) -> dict:
    return intpoly_add(a, {d: -c for d, c in b.items()})


def intpoly_shift(a: dict, s: int) -> dict:
    return {d + s: c for d, c in a.items()}


# ---------------------------------------------------------------------------
# ASCII polynomial syntax: sums of terms like 3*x^2*y - z + 1.  The '*'
# between a coefficient and its monomial is optional.

class PolyParseError(ValueError):
    pass


def _tokenize_poly(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j]))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        if ch in "+-*^":
            tokens.append((ch, ch))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r} in polynomial")
    return tokens


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    tokens = _tokenize_poly(text)
    if not tokens:
        raise PolyParseError("empty polynomial")
    var_index = {name: i for i, name in enumerate(ring.names)}
    acc: dict = {}
    pos = 0
    p = ring.field.p

    def parse_term(sign: int):
        nonlocal pos
        coeff = sign
        exps = [0] * ring.nvars
        saw_factor = False
        expect_factor = True
        while True:
            if pos >= len(tokens):
                break
            kind, val = tokens[pos]
            if kind == "int":
                if not expect_factor:
                    break
                coeff = coeff * int(val) % p
                pos += 1
                saw_factor = True
                # optional '*' after a coefficient
                if pos < len(tokens) and tokens[pos][0] == "*":
                    pos += 1
                    expect_factor = True
                elif pos < len(tokens) and tokens[pos][0] == "name":
                    expect_factor = True
                else:
                    expect_factor = False
            elif kind == "name":
                if not expect_factor:
                    break
                if val not in var_index:
                    raise PolyParseError(f"unknown variable {val!r}")
                e = 1
                pos += 1
                if pos < len(tokens) and tokens[pos][0] == "^":
                    pos += 1
                    if pos >= len(tokens) or tokens[pos][0] != "int":
                        raise PolyParseError("exponent expected after '^'")
                    e = int(tokens[pos][1])
                    if e < 0:
                        raise PolyParseError("negative exponent")
                    pos += 1
                exps[var_index[val]] += e
                saw_factor = True
                if pos < len(tokens) and tokens[pos][0] == "*":
                    pos += 1
                    expect_factor = True
                else:
                    expect_factor = False
            else:
                break
        if not saw_factor:
            raise PolyParseError("term expected")
        if expect_factor:
            raise PolyParseError("dangling '*' in polynomial")
        key = tuple(exps)
        nc = (acc.get(key, 0) + coeff) % p
        if nc:
            acc[key] = nc
        else:
            acc.pop(key, None)

    # leading sign
    sign = 1
    while pos < len(tokens) and tokens[pos][0] in "+-":
        if tokens[pos][0] == "-":
            sign = -sign
        pos += 1
    parse_term(sign)
    while pos < len(tokens):
        kind, _ = tokens[pos]
        if kind not in "+-":
            raise PolyParseError(f"'+' or '-' expected, got {tokens[pos][1]!r}")
        sign = 1
        while pos < len(tokens) and tokens[pos][0] in "+-":
            if tokens[pos][0] == "-":
                sign = -sign
            pos += 1
        parse_term(sign)
    return ring.from_dict(acc)
