"""Base polynomial layer: field arithmetic, grading, orders, parsing."""

import itertools
import random
from pathlib import Path

import pytest
import sympy

from semidual import cli
from semidual.polyring import (
    MonomialOrder,
    PolyRing,
    Polynomial,
    PrimeField,
    is_prime,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    parse_polynomial,
)
from semidual.session import (
    ModuleDecl,
    ParseError,
    RingDecl,
    expr_to_str,
    parse_session,
)

F = PrimeField(101)


def test_prime_field_basics():
    assert F.p == 101
    assert F.normalize(-1) == 100
    assert F.normalize(202) == 0
    inv = F.inv(7)
    assert (inv * 7) % 101 == 1
    with pytest.raises(ValueError):
        PrimeField(100)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_is_prime_small_cases():
    primes = {2, 3, 5, 7, 11, 101, 32003}
    for n in range(2, 120):
        assert is_prime(n) == all(n % d for d in range(2, n)), n
    assert all(is_prime(p) for p in primes)


def test_poly_arithmetic_matches_sympy():
    S = PolyRing(F, ("x", "y"))
    x, y = S.variable(0), S.variable(1)
    f = x**3 + 2 * x * y + 5
    g = y**2 - x + 7
    sx, sy = sympy.symbols("x y")
    sf = sx**3 + 2 * sx * sy + 5
    sg = sy**2 - sx + 7
    prod = f * g
    spoly = sympy.Poly(sympy.expand(sf * sg), sx, sy)
    # compare coefficient by coefficient mod 101, both inclusions
    for exps, c in prod.terms:
        sc = spoly.coeff_monomial(sx ** exps[0] * sy ** exps[1])
        assert int(sc) % 101 == c
    for mono in spoly.monoms():
        sc = int(spoly.coeff_monomial(sx ** mono[0] * sy ** mono[1]))
        ours = dict(prod.terms).get(tuple(mono), 0)
        assert sc % 101 == ours


def test_poly_identities():
    S = PolyRing(F, ("x", "y"))
    x, y = S.variable(0), S.variable(1)
    f = x + y
    assert (f - f).is_zero
    assert (f * S.zero()).is_zero
    assert f * S.one() == f
    assert -(-f) == f
    assert f**0 == S.one()
    assert f**3 == f * f * f
    assert (x + 1) * (x - 1) == x**2 - 1


def test_weighted_grading():
    S = PolyRing(F, ("x", "y", "z"), weights=(3, 4, 5))
    x, y, z = (S.variable(i) for i in range(3))
    assert (y * y).wdeg() == 8
    assert (x * z).wdeg() == 8
    assert (y * y - x * z).is_homogeneous()
    assert (y * y - x * z).homogeneous_degree() == 8
    assert not (x + y).is_homogeneous()
    with pytest.raises(ValueError):
        (x + y).homogeneous_degree()
    assert S.zero().is_homogeneous()
    assert S.zero().wdeg() == -1


def test_monomials_of_wdeg_counts_semigroup():
    # a weighted degree-d basis of F[x,y,z] counts solutions of
    # 3a + 4b + 5c = d; cross-check a brute-force count
    S = PolyRing(F, ("x", "y", "z"), weights=(3, 4, 5))
    for d in range(0, 16):
        got = len(S.monomials_of_wdeg(d))
        want = sum(
            1
            for a in range(d // 3 + 1)
            for b in range(d // 4 + 1)
            for c in range(d // 5 + 1)
            if 3 * a + 4 * b + 5 * c == d
        )
        assert got == want, d


def test_order_is_degree_compatible():
    S = PolyRing(F, ("x", "y"))
    x, y = S.variable(0), S.variable(1)
    f = x + x * y + y**3
    c, exps = f.leading()
    assert S.wdeg(exps) == 3


# Every exponent tuple of degree at most 4 in 3 variables.
MONOMIALS = [e for e in itertools.product(range(5), repeat=3) if sum(e) <= 4]


def _greater_by_definition(kind, perm, a, b):
    """a > b in the order, from the textbook definition: compare degrees
    first (not for lex); then lex wins on the first differing variable and
    degrevlex on the last one having the smaller exponent."""
    if perm is not None:
        a = tuple(a[i] for i in perm)
        b = tuple(b[i] for i in perm)
    if kind != "lex" and sum(a) != sum(b):
        return sum(a) > sum(b)
    diff = [x - y for x, y in zip(a, b) if x != y]
    if not diff:
        return False
    if kind == "degrevlex":
        return diff[-1] < 0
    return diff[0] > 0


@pytest.mark.parametrize("kind", MonomialOrder.KINDS)
@pytest.mark.parametrize("perm", [None, (2, 0, 1)])
def test_order_key_matches_written_out_formulas(kind, perm):
    order = MonomialOrder(kind, perm)
    for a in MONOMIALS:
        e = a if perm is None else tuple(a[i] for i in perm)
        want = {
            "degrevlex": (sum(e), tuple(-x for x in reversed(e))),
            "deglex": (sum(e), e),
            "lex": e,
        }[kind]
        assert order.key(a) == want, a
        for b in MONOMIALS:
            assert ((order.key(a) > order.key(b))
                    == _greater_by_definition(kind, perm, a, b)), (a, b)


def _written_out_key(kind, perm, a):
    e = a if perm is None else tuple(a[i] for i in perm)
    return {
        "degrevlex": (sum(e), tuple(-x for x in reversed(e))),
        "deglex": (sum(e), e),
        "lex": e,
    }[kind]


@pytest.mark.parametrize("kind", MonomialOrder.KINDS)
@pytest.mark.parametrize("perm", [None, (2, 0, 1)])
def test_memoised_order_key_matches_written_out_formulas(kind, perm):
    order = MonomialOrder(kind, perm)
    for _ in range(2):  # the second pass reads the filled memo
        for a in MONOMIALS:
            assert order.keys[a] == _written_out_key(kind, perm, a), a
            assert order.key(a) == order.keys[a], a
    assert len(order.keys) == len(MONOMIALS)


def test_orders_with_equal_kind_and_perm_stay_equal():
    for kind in MonomialOrder.KINDS:
        for perm in (None, (2, 0, 1)):
            a, b = MonomialOrder(kind, perm), MonomialOrder(kind, perm)
            for e in MONOMIALS[:7]:
                a.keys[e]
            assert len(a.keys) == 7 and not b.keys
            assert a == b and hash(a) == hash(b)
            assert a != MonomialOrder(kind, (1, 2, 0))
            assert PolyRing(F, ("x", "y", "z"), order=a) == \
                PolyRing(F, ("x", "y", "z"), order=b)


@pytest.mark.parametrize("kind", MonomialOrder.KINDS)
@pytest.mark.parametrize("perm", [None, (2, 0, 1)])
def test_from_dict_sorts_terms_by_the_written_out_key(kind, perm):
    S = PolyRing(F, ("x", "y", "z"), order=MonomialOrder(kind, perm))
    rng = random.Random(f"{kind}-{perm}")
    for _ in range(20):
        terms = {e: rng.randrange(1, 101)
                 for e in rng.sample(MONOMIALS, rng.randrange(1, 12))}
        f = S.from_dict(terms)
        assert dict(f.terms) == terms
        assert [e for e, _ in f.terms] == sorted(
            terms, key=lambda a: _written_out_key(kind, perm, a),
            reverse=True)


def test_monomial_kernels_match_zip_references():
    for a in MONOMIALS:
        for b in MONOMIALS:
            assert mono_mul(a, b) == tuple(x + y for x, y in zip(a, b))
            assert mono_lcm(a, b) == tuple(max(x, y) for x, y in zip(a, b))
            divides = all(x <= y for x, y in zip(b, a))
            assert mono_divides(b, a) is divides, (b, a)
            if divides:
                assert mono_div(a, b) == tuple(x - y for x, y in zip(a, b))


def test_constant_coefficient():
    S = PolyRing(F, ("x", "y"))
    x = S.variable(0)
    assert (x + 5).constant_coefficient() == 5
    assert x.constant_coefficient() == 0
    assert S.zero().constant_coefficient() == 0


def test_parse_polynomial_round_trip():
    S = PolyRing(F, ("x", "y", "z"), weights=(3, 4, 5))
    rng = random.Random(7)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = tuple(rng.randint(0, 3) for _ in range(3))
            terms[e] = rng.randint(1, 100)
        f = S.from_dict(terms)
        assert parse_polynomial(str(f), S) == f
    assert parse_polynomial("0", S).is_zero
    x, y = S.variable(0), S.variable(1)
    assert parse_polynomial("(x + 2*y)^2 - x*(y - 1)", S) == \
        (x + 2 * y) ** 2 - x * (y - 1)
    for text in ("", "x +", "x y", "x^"):
        with pytest.raises(ParseError):
            parse_polynomial(text, S)
    with pytest.raises(ValueError, match="undefined name 'q'") as err:
        parse_polynomial("q", S)
    assert not isinstance(err.value, ParseError)


def test_parse_polynomial_agrees_with_declarations(monkeypatch):
    """Every polynomial of every bundled corpus declaration, printed and
    read back by parse_polynomial, is the one build_environment made."""
    corpus = Path(cli.__file__).parent / "corpus"
    seen = []
    evaluate = cli._eval_poly

    def spy(node, amb, pos):
        value = evaluate(node, amb, pos)
        seen.append((node, amb, value))
        return value

    monkeypatch.setattr(cli, "_eval_poly", spy)
    declared = []
    for path in sorted(corpus.glob("*.sd")):
        for entry in parse_session(path.read_text()).corpus_entries():
            for stmt in entry.statements:
                columns = ([stmt.ideal] if isinstance(stmt, RingDecl)
                           else stmt.rels if isinstance(stmt, ModuleDecl)
                           else stmt.cols)
                declared += [node for col in columns for node in col]
            cli.build_environment(entry.statements)
    assert [node for node, _, _ in seen] == declared != []
    for node, amb, value in seen:
        assert parse_polynomial(expr_to_str(node), amb) == value, \
            expr_to_str(node)
