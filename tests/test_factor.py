"""Factorization over F_p on the Frobenius matrix, against the per-degree
pow_mod route kept in tests/factor_oracle.py."""

import random

import numpy as np
import pytest

import factor_oracle
from wplus import supersingular
from wplus.config import Config
from wplus.errors import SplitDegreeMismatchError
from wplus.fppoly import Frobenius, FpPoly, convolve_mod, is_prime
from wplus.pipeline import verify_prime
from wplus.supersingular import factor_degrees, ss_polys


def _key(factors):
    return [(tuple(int(c) for c in f.coeffs), e) for f, e in factors]


def _assert_matches_oracle(f):
    got = f.factor()
    assert _key(got) == _key(factor_oracle.factor(f))
    rebuilt = FpPoly.one(f.p) * f.leading()
    for q, e in got:
        rebuilt = rebuilt * q ** e
    assert rebuilt == f
    return got


def _random_monic(rng, p, degree):
    return FpPoly(p, [rng.randrange(p) for _ in range(degree)] + [1])


def _irreducible(rng, p, degree):
    """A random monic irreducible of this degree, by the oracle's test."""
    while True:
        f = _random_monic(rng, p, degree)
        found = factor_oracle.factor(f)
        if len(found) == 1 and found[0][1] == 1:
            return f


@pytest.mark.parametrize("p", [5, 7, 31, 67, 389])
def test_random_products_with_repeated_factors_match_oracle(p):
    rng = random.Random(p)
    for _ in range(12):
        f = FpPoly(p, [rng.randrange(1, p)])
        for _ in range(rng.randrange(1, 6)):
            f = f * _random_monic(rng, p, rng.randrange(1, 9)) ** rng.randrange(1, 4)
        _assert_matches_oracle(f)


@pytest.mark.parametrize("p", [5, 7])
def test_pth_powers_match_oracle(p):
    # f' = 0 on the p-th powers: squarefree decomposition takes p-th roots
    rng = random.Random(100 + p)
    for _ in range(6):
        g, h = (_random_monic(rng, p, rng.randrange(1, 5)) for _ in range(2))
        for f in (g ** p, g ** p * h, (g * h) ** (p * p), g ** (2 * p) * h ** 3):
            _assert_matches_oracle(f)


@pytest.mark.parametrize("p", [5, 67, 389])
def test_all_linear_and_irreducible_inputs(p):
    rng = random.Random(200 + p)
    roots = rng.sample(range(p), min(p, 12))
    _assert_matches_oracle(FpPoly.from_roots(p, roots))
    _assert_matches_oracle(FpPoly.from_roots(p, roots + roots[:3] + roots[:1]))
    for degree in (2, 3, 7, 12):
        f = _irreducible(rng, p, degree)
        assert f.factor() == [(f, 1)] and f.is_irreducible()
        assert not (f * f).is_irreducible()
    # equal-degree splitting with several factors of each degree
    for degree, count in ((2, 6), (3, 4), (5, 3)):
        factors = {tuple(_irreducible(rng, p, degree).coeffs) for _ in range(count)}
        f = FpPoly.one(p)
        for c in factors:
            f = f * FpPoly(p, c)
        got = _assert_matches_oracle(f)
        assert [q.degree() for q, _ in got] == [degree] * len(factors)


def test_factor_does_not_depend_on_the_rng():
    # factor draws from its own random.Random(0); equal-degree splitting,
    # its one randomized step, gives the same sorted pieces for any seed
    p = 67
    rng = random.Random(3)
    f = FpPoly.one(p)
    for degree in (1, 1, 2, 2, 2, 4, 4):
        f = f * _irreducible(rng, p, degree)
    for g, _ in f.squarefree_decomposition():
        frob = Frobenius(g)
        for h, d in g.distinct_degree(frob):
            splits = {tuple(sorted(tuple(q.coeffs.tolist()) for q in
                                   h._equal_degree(d, frob, random.Random(s))))
                      for s in range(5)}
            assert len(splits) == 1


def test_frobenius_rows_are_powers_of_x():
    p = 31
    rng = random.Random(5)
    for degree in (1, 2, 3, 8, 17):
        g = _random_monic(rng, p, degree)
        q = Frobenius(g).matrix
        for i in range(degree):
            want = FpPoly.x(p).pow_mod(i * p, g)
            assert FpPoly(p, q[i].astype(np.int64)) == want, (degree, i)


@pytest.mark.parametrize("p", [5, 67, 389])
def test_factor_degrees_agree_with_oracle(p):
    rng = random.Random(300 + p)
    for extra in ((), (1,), (4,), (3,), (1, 4), (2, 4)):
        for repeat in (1, 2):
            f = FpPoly.one(p)
            for degree in (2, 2, 2) + extra:
                f = f * _irreducible(rng, p, degree) ** repeat
            oracle = {q.degree() for q, _ in factor_oracle.factor(f)}
            assert factor_degrees(f) == oracle, (extra, repeat)
    assert factor_degrees(FpPoly.one(p)) == set()


def _h(p, tmp_path):
    report = verify_prime(p, Config(cache_dir=tmp_path))
    assert report.status == "ok"
    return report.polys["H"]


@pytest.mark.parametrize("p", [67, 199, 389]
                         + [pytest.param(p, marks=pytest.mark.slow)
                            for p in (601, 1009)])
def test_chain_polynomials_match_oracle(p, tmp_path):
    # H from a cold verify_prime, and the quadratic part S_q of S_p
    _assert_matches_oracle(_h(p, tmp_path))
    s_q = ss_polys(p).S_q
    assert factor_degrees(s_q) == {2}
    assert {q.degree() for q, _ in _assert_matches_oracle(s_q)} == {2}


def test_quartic_factor_in_s_q_is_named(monkeypatch):
    # a falsifier of the quadratic split: S_tilde times a quartic irreducible
    p = 67
    quartic = _irreducible(random.Random(7), p, 4)
    real = supersingular.divisor_polynomials
    monkeypatch.setattr(supersingular, "divisor_polynomials",
                        lambda *args: [f * quartic for f in real(*args)])
    with pytest.raises(SplitDegreeMismatchError, match="of degree 4$"):
        ss_polys(p)


def test_frobenius_refuses_moduli_beyond_float64():
    # n (p - 1)^2 >= 2^53 for a cubic near 2^26, which convolve_mod accepts
    p = next(q for q in range(2**26 + 1, 2**26 + 200, 2) if is_prime(q))
    g = FpPoly(p, [1, 1, 0, 1])
    assert 3 * (p - 1) ** 2 >= 2**53
    assert len(convolve_mod(g.coeffs, g.coeffs, p)) == 7
    assert g.derivative().degree() == 2 and g.gcd(g.derivative()).is_one()
    for route in (lambda: Frobenius(g), g.factor, g.is_irreducible,
                  lambda: factor_degrees(g)):
        with pytest.raises(OverflowError):
            route()


@pytest.mark.parametrize("p", [5, 67, 389])
def test_equal_degree_refuses_products_of_other_degrees(p):
    # four linear factors passed as degree-2 pieces: a^((p^2 - 1)/2) = 1 at
    # every root where a is nonzero, so an attempt splits off only roots of
    # a, a piece of odd degree, or nothing; before the degree check and the
    # stall bound this looped forever
    rng = random.Random(p)
    linears = FpPoly.from_roots(p, [1, 2, 3, 4])
    with pytest.raises(ValueError, match="degree"):
        linears._equal_degree(2, Frobenius(linears), rng)
    with pytest.raises(ValueError, match="degree"):
        factor_oracle.equal_degree(linears, 2, rng)
    # a degree that 2 does not divide, and a linear piece split off a
    # linear times a cubic irreducible
    for f in (FpPoly.from_roots(p, [1, 2, 3]),
              FpPoly.linear(p, 1) * _irreducible(rng, p, 3)):
        with pytest.raises(ValueError, match="degree"):
            f._equal_degree(2, Frobenius(f), rng)
        with pytest.raises(ValueError, match="degree"):
            factor_oracle.equal_degree(f, 2, rng)


def test_equal_degree_stall_bound(monkeypatch):
    # at p = 389 an attempt hits a root of a with probability about 1/100,
    # so three attempts in a row split nothing
    from wplus import fppoly
    monkeypatch.setattr(fppoly, "EDF_MAX_STALLS", 3)
    monkeypatch.setattr(factor_oracle, "MAX_STALLS", 3)
    linears = FpPoly.from_roots(389, [1, 2, 3, 4])
    with pytest.raises(ValueError, match="no split in 3 attempts"):
        linears._equal_degree(2, Frobenius(linears), random.Random(0))
    with pytest.raises(ValueError, match="no split in 3 attempts"):
        factor_oracle.equal_degree(linears, 2, random.Random(0))
