import math
from fractions import Fraction

import numpy as np
import pytest

from wplus import linalg
from wplus.errors import PrecisionError
from wplus.modsym import (BasisComputer, ModSymSpace, atkin_lehner_plus,
                          good_basis, heilbronn_cremona, merel_set,
                          wt_infinity)


def genus_x0(p):
    """Independent genus formula for X_0(p), p >= 5 prime."""
    return {1: (p - 13) // 12, 5: (p - 5) // 12,
            7: (p - 7) // 12, 11: (p + 1) // 12}[p % 12]


#: genus of the Atkin-Lehner quotient; 0 exactly at the small "moonshine"
#: primes, positive values from the class-number count
KNOWN_G_PLUS = {11: 0, 23: 0, 31: 0, 37: 1, 41: 0, 43: 1, 47: 0, 59: 0,
                61: 1, 67: 2, 71: 0, 73: 2, 97: 3, 101: 1, 103: 2}

# the printed echelon basis of the w_67 = +1 forms, through q^8
F1_67 = [1, 0, -3, -3, -3, 1, 4, 3]
F2_67 = [0, 1, -1, -3, 0, 0, 3, 4]


def hecke_on_plus(space, ell):
    """T_ell on the w_p = +1 cuspidal part, in the basis of
    atkin_lehner_plus: the public reference route, apart from the basis."""
    embed = linalg.mat_mul(space.cuspidal, atkin_lehner_plus(space))
    image = linalg.mat_mul(space.hecke_matrix(ell).fractions(), embed)
    restricted = linalg.solve(embed, image)
    assert restricted is not None, "T_ell left the +1 part"
    return restricted


def hecke_operators(t_prime, upto):
    """T_n for n <= upto built from the prime operators t_prime[ell] by
    T_{ell m} = T_ell T_m (ell not dividing m) and
    T_{ell^{k+1}} = T_ell T_{ell^k} - ell T_{ell^{k-1}}; n with a prime
    factor missing from t_prime are skipped."""
    g = len(next(iter(t_prime.values())))
    ops = {1: linalg.identity(g)}
    for n in range(2, upto + 1):
        ell = next(d for d in range(2, n + 1) if n % d == 0)
        m = n // ell
        if ell not in t_prime or m not in ops:
            continue
        ops[n] = t_prime[ell] if m == 1 else \
            linalg.mat_mul(t_prime[ell], ops[m])
        if m % ell == 0:
            ops[n] = linalg.mat_add(ops[n], ops[m // ell], -ell)
    return ops


def test_space_dimensions_match_genus_formula():
    for p in (11, 23, 37, 67, 101):
        s = ModSymSpace(p)
        assert s.dim == genus_x0(p) + 1
        assert s.genus == genus_x0(p)


def test_x0_11_hecke_eigenvalues():
    # the unique weight-2 newform of level 11 has these a_ell
    s = ModSymSpace(11)
    for ell, a in ((2, -2), (3, -1), (5, 1), (7, -2), (13, 4), (11, 1)):
        t = s.restrict_to_cuspidal(s.hecke_matrix(ell).fractions())
        assert t == [[Fraction(a)]]


def test_path_hecke_agrees_with_merel():
    # three routes to T_ell: coset paths, Merel's matrices, and production
    # (Heilbronn-Cremona for odd ell != p, Merel for 2 and U_p)
    for p in (11, 23, 67, 109):
        s = ModSymSpace(p)
        for ell in (2, 3, 5, 7, 11, 13, 31, p):
            path = s.hecke_matrix_path(ell).fractions()
            assert s.hecke_matrix_merel(ell).fractions() == path, (p, ell)
            assert s.hecke_matrix(ell).fractions() == path, (p, ell)


def test_heilbronn_cremona_set():
    for ell in (3, 5, 7, 31, 1259):
        mats = heilbronn_cremona(ell)
        a, b, c, d = mats.T
        assert (a * d - b * c == ell).all()
        assert tuple(mats[0]) == (1, 0, 0, ell)


def test_trace_formula_oracle_matches_hecke():
    # Eichler-Selberg traces share no code with the Hecke routes
    from trace_oracle import hecke_trace, hurwitz_class_number
    assert [hurwitz_class_number(n) for n in (3, 4, 12, 15, 16, 23)] == [
        Fraction(1, 3), Fraction(1, 2), Fraction(4, 3), 2, Fraction(3, 2), 3]
    for p in (11, 23, 37, 67, 109, 199):
        s = ModSymSpace(p)
        t_prime = {ell: s.restrict_to_cuspidal(s.hecke_matrix(ell).fractions())
                   for ell in range(2, 31) if ell != p and all(
                       ell % d for d in range(2, ell))}
        ops = hecke_operators(t_prime, 30)
        for n in range(1, 31):
            if n % p:
                trace = sum(ops[n][i][i] for i in range(s.genus))
                assert trace == hecke_trace(p, n), (p, n)


def test_hecke_commutativity():
    for p in (67, 101):
        s = ModSymSpace(p)
        t2 = s.hecke_matrix(2).fractions()
        t3 = s.hecke_matrix(3).fractions()
        assert linalg.mat_mul(t2, t3) == linalg.mat_mul(t3, t2)


def test_atkin_lehner_commutes_with_hecke():
    s = ModSymSpace(67)
    up = s.restrict_to_cuspidal(s.hecke_matrix(67).fractions())
    t2 = s.restrict_to_cuspidal(s.hecke_matrix(2).fractions())
    assert linalg.mat_mul(up, t2) == linalg.mat_mul(t2, up)


def test_atkin_lehner_is_involution():
    # exercised inside atkin_lehner_plus, which raises on failure
    for p in (11, 37, 67):
        atkin_lehner_plus(ModSymSpace(p))


def test_quotient_genus_known_values():
    for p, g in KNOWN_G_PLUS.items():
        plus = atkin_lehner_plus(ModSymSpace(p))
        got = len(plus[0]) if plus else 0
        assert got == g, (p, got, g)


def test_good_basis_67_printed_expansions():
    gb = good_basis(67, 12)
    assert gb.g == 2 and gb.genus_x0 == 5
    assert gb.pivots == [1, 2]
    assert gb.p_integral
    assert [gb.forms[0].coefficient(n) for n in range(1, 9)] == F1_67
    assert [gb.forms[1].coefficient(n) for n in range(1, 9)] == F2_67


def test_good_basis_small_genus():
    assert good_basis(23, 10).g == 0
    gb = good_basis(101, 25)
    assert gb.g == 1 and gb.pivots == [1]


def test_good_basis_echelon_identity_block():
    gb = good_basis(97, 25)
    for i, f in enumerate(gb.forms):
        for j, c in enumerate(gb.pivots):
            assert f.coefficient(c) == (1 if i == j else 0)
    assert gb.pivots == sorted(gb.pivots)


def test_good_basis_precision_too_small():
    with pytest.raises(PrecisionError):
        BasisComputer(193).basis(6)


def test_sturm_bound_on_pivots():
    for p in (67, 97, 109, 157):
        gb = good_basis(p, (p + 1) // 6 + 10)
        assert all(1 <= c <= (p + 1) // 6 for c in gb.pivots)


def test_hasse_bound_numeric():
    space = ModSymSpace(67)
    for ell in (2, 3, 5):
        t = hecke_on_plus(space, ell)
        chi = linalg.charpoly(t)
        roots = np.roots([float(c) for c in reversed(chi)])
        assert np.max(np.abs(np.imag(roots))) < 1e-4
        assert np.max(np.abs(roots)) <= 2 * math.sqrt(ell) + 1e-6


def test_wt_infinity():
    gb = good_basis(67, 12)
    assert wt_infinity(gb) == 0
    gb109 = good_basis(109, 30)
    assert gb109.pivots == [1, 2, 4]
    assert wt_infinity(gb109) == 1
    gb397 = good_basis(397, 80)
    assert wt_infinity(gb397) > 0


def test_basis_is_hecke_stable():
    # T_ell f (a_n -> a_{ell n} + ell a_{n / ell}) of each basis form is the
    # combination of the basis read off at the pivots, at every n where
    # both are known; and U_p f = -f, since w_p = -U_p at prime level
    for p, prec in ((67, 210), (109, 84), (389, 225)):
        gb = good_basis(p, prec)
        for f in gb.forms:
            assert all(f.coefficient(p * n) == -f.coefficient(n)
                       for n in range(1, (prec - 1) // p + 1))
        for ell in (2, 3):
            known = range(1, (prec - 1) // ell + 1)
            for f in gb.forms:
                image = [f.coefficient(ell * n)
                         + (ell * f.coefficient(n // ell) if n % ell == 0 else 0)
                         for n in known]
                combo = [sum(image[c - 1] * h.coefficient(n)
                             for c, h in zip(gb.pivots, gb.forms))
                         for n in known]
                assert combo == image, (p, ell)


def test_merel_set_small():
    assert sorted(merel_set(2)) == [(1, 0, 0, 2), (1, 0, 1, 2),
                                    (2, 0, 0, 1), (2, 1, 0, 1)]
    for n in (2, 3, 5, 11):
        assert all(a * d - b * c == n for a, b, c, d in merel_set(n))


def test_modular_polynomials_derived_from_j():
    # the oracle's Phi_ell come from the q-expansion of j: Phi_2 and Phi_3
    # must be the classical tables, Phi_5 and Phi_7 must satisfy Kronecker's
    # congruence and carry 744 ell at X^ell Y^(ell-1)
    from graph_oracle import (PHI2, PHI3, kronecker_congruent,
                              modular_polynomial)
    assert modular_polynomial(2) == PHI2
    assert modular_polynomial(3) == PHI3
    for ell in (5, 7):
        phi = modular_polynomial(ell)
        assert kronecker_congruent(ell, phi)
        assert phi[(ell, ell - 1)] == 744 * ell


def test_graph_oracle_cross_check():
    # fully independent route to T_2, T_3, T_5, T_7 on the +1 part:
    # supersingular isogeny graphs with Atkin-Lehner acting as Frobenius
    from graph_oracle import hecke_on_plus_part
    for p in (67, 109):
        space = ModSymSpace(p)
        for ell in (2, 3, 5, 7):
            graph = hecke_on_plus_part(p, ell)
            msym = hecke_on_plus(space, ell)
            assert linalg.charpoly(graph) == linalg.charpoly(msym)


def test_graph_oracle_confirms_109_pivot_gap():
    # rank 2 here means a_3 is a linear combination of 1 and a_2 across the
    # three eigenforms, which forces the echelon pivots (1, 2, 4)
    from graph_oracle import hecke_on_plus_part
    b2 = hecke_on_plus_part(109, 2)
    b3 = hecke_on_plus_part(109, 3)
    g = len(b2)
    flat = [[m[i][j] for i in range(g) for j in range(g)]
            for m in (linalg.identity(g), b2, b3)]
    assert linalg.rank(flat) == 2


def test_cache_round_trip(tmp_path):
    from wplus.cache import DiskCache
    cache = DiskCache(tmp_path)
    gb = good_basis(67, 12, cache=cache)
    again = good_basis(67, 12, cache=cache)
    assert again.pivots == gb.pivots
    assert all(f1 == f2 for f1, f2 in zip(gb.forms, again.forms))
    shorter = good_basis(67, 8, cache=cache)
    assert shorter.forms[0].precision == 8
    assert shorter.forms[0].coefficient(7) == gb.forms[0].coefficient(7)


def test_cache_recomputes_old_payload_version(tmp_path):
    # a version-1 entry (the eigenform-block algorithm) is never served
    from wplus.cache import DiskCache
    cache = DiskCache(tmp_path)
    planted = {"version": 1, "p": 67, "g": 2, "genus_x0": 5,
               "pivots": [1, 3], "precision": 40, "p_integral": True,
               "galois_blocks": [[1, 2]],
               "coefficients": [["0/1"] + ["7/1"] * 39] * 2}
    cache.put("good_basis", "67", planted)
    gb = good_basis(67, 12, cache=cache)
    assert gb.pivots == [1, 2]
    assert [gb.forms[0].coefficient(n) for n in range(1, 9)] == F1_67
    stored = cache.get("good_basis", "67")
    assert stored["version"] == 2 and "galois_blocks" not in stored
    assert stored["precision"] == 12 and stored["pivots"] == [1, 2]


def test_verify_prime_builds_one_space_per_prime(tmp_path, monkeypatch):
    # the chain-precision basis extends the pivot-precision computer, and
    # the cached basis is the one a fresh computer gives at that precision
    from wplus import modsym
    from wplus.cache import DiskCache
    from wplus.config import Config
    from wplus.pipeline import verify_prime
    built = []
    init = modsym.ModSymSpace.__init__

    def counting_init(self, p):
        built.append(p)
        init(self, p)

    monkeypatch.setattr(modsym.ModSymSpace, "__init__", counting_init)
    report = verify_prime(109, Config(cache_dir=tmp_path))
    assert report.status == "ok" and built == [109]
    stored = DiskCache(tmp_path).get("good_basis", "109")
    fresh = BasisComputer(109).basis(stored["precision"])
    assert stored == modsym._basis_to_payload(fresh)
    assert stored["precision"] > (109 + 1) // 6 + 12
