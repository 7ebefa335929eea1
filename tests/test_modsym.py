import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from basis_oracle import basis_forms
from modsym_oracle import (atkin_lehner_plus, cuspidal, hecke_matrix_merel,
                           hecke_matrix_path, restrict_to_cuspidal)
from wplus import linalg
from wplus.errors import PrecisionError
from wplus.modsym import (BasisComputer, ModSymSpace, good_basis,
                          heilbronn_cremona, merel_set)


def genus_x0(p):
    """Independent genus formula for X_0(p), p >= 5 prime."""
    return {1: (p - 13) // 12, 5: (p - 5) // 12,
            7: (p - 7) // 12, 11: (p + 1) // 12}[p % 12]


#: genus of the Atkin-Lehner quotient; 0 exactly at the small "moonshine"
#: primes, positive values from the class-number count
KNOWN_G_PLUS = {11: 0, 23: 0, 31: 0, 37: 1, 41: 0, 43: 1, 47: 0, 59: 0,
                61: 1, 67: 2, 71: 0, 73: 2, 97: 3, 101: 1, 103: 2}

PRIMES_11_199 = [p for p in range(11, 200) if all(p % d for d in range(2, p))]

# the printed echelon basis of the w_67 = +1 forms, through q^8
F1_67 = [1, 0, -3, -3, -3, 1, 4, 3]
F2_67 = [0, 1, -1, -3, 0, 0, 3, 4]


def hecke_on_plus(space, ell):
    """T_ell on the w_p = +1 cuspidal part, in the basis of
    atkin_lehner_plus: the rational reference route, apart from T_ell."""
    embed = linalg.mat_mul(cuspidal(space), atkin_lehner_plus(space))
    image = linalg.mat_mul(space.hecke_matrix(ell).tolist(), embed)
    restricted = linalg.solve(embed, image)
    assert restricted is not None, "T_ell left the +1 part"
    return restricted


def hecke_operators(t_prime, upto):
    """T_n for n <= upto built from the prime operators t_prime[ell] (square
    numpy object arrays over Q) by T_{ell m} = T_ell T_m (ell not dividing m)
    and T_{ell^{k+1}} = T_ell T_{ell^k} - ell T_{ell^{k-1}}; n with a prime
    factor missing from t_prime are skipped."""
    g = len(next(iter(t_prime.values())))
    ops = {1: np.eye(g, dtype=int).astype(object)}
    for n in range(2, upto + 1):
        ell = next(d for d in range(2, n + 1) if n % d == 0)
        m = n // ell
        if ell not in t_prime or m not in ops:
            continue
        ops[n] = t_prime[ell] @ ops[m]
        if m % ell == 0:
            ops[n] = ops[n] - ell * ops[m // ell]
    return ops


def exact_array(rows):
    """Object array of a Fraction matrix, integral entries as Python ints so
    that products stay in integer arithmetic."""
    return np.array([[x.numerator if x.denominator == 1 else x for x in row]
                     for row in rows], dtype=object)


def test_space_dimensions_match_genus_formula():
    for p in (11, 23, 37, 67, 101):
        s = ModSymSpace(p)
        assert s.dim == genus_x0(p) + 1
        assert s.genus == genus_x0(p)


def test_x0_11_hecke_eigenvalues():
    # the unique weight-2 newform of level 11 has these a_ell; U_11 comes
    # from Merel's matrices
    s = ModSymSpace(11)
    for ell, a in ((2, -2), (3, -1), (5, 1), (7, -2), (13, 4), (11, 1)):
        t = hecke_matrix_merel(s, ell) if ell == 11 else s.hecke_matrix(ell)
        assert restrict_to_cuspidal(s, t.tolist()) == [[Fraction(a)]]


def test_path_hecke_agrees_with_merel():
    # three routes to T_ell: coset paths, Merel's matrices, and production
    # (Heilbronn-Cremona for odd ell != p, Merel for 2); at ell = p, U_p,
    # the two reference routes alone
    for p in (11, 23, 67, 109):
        s = ModSymSpace(p)
        for ell in (2, 3, 5, 7, 11, 13, 31, p):
            path = hecke_matrix_path(s, ell)
            assert np.array_equal(hecke_matrix_merel(s, ell), path), (p, ell)
            if ell != p:
                assert np.array_equal(s.hecke_matrix(ell), path), (p, ell)


@pytest.mark.parametrize("n", [0, 1, 4, 9, 15, 67])
def test_hecke_matrix_refuses_a_non_prime_index(n):
    # the Heilbronn-Cremona and production Merel sets give T_ell for prime
    # ell != p only, so hecke_matrix and hecke_columns refuse any other n,
    # U_p at n = p = 67 included
    s = ModSymSpace(67)
    with pytest.raises(ValueError, match="must be prime"):
        s.hecke_matrix(n)
    with pytest.raises(ValueError, match="must be prime"):
        s.hecke_columns([2, n], np.arange(1, s.dim + 1))


def test_merel_composite_index_matches_recurrence():
    # Merel's matrices give T_n for every n: T_4 = T_2^2 - 2, T_9 = T_3^2 - 3
    for p in (67, 389):
        s = ModSymSpace(p)
        one = np.eye(s.dim, dtype=np.int64)
        for ell in (2, 3):
            t = s.hecke_matrix(ell)
            assert np.array_equal(hecke_matrix_merel(s, ell * ell),
                                  t @ t - ell * one), (p, ell)


def test_heilbronn_cremona_set():
    for ell in (3, 5, 7, 31, 1259):
        mats = heilbronn_cremona(ell)
        a, b, c, d = mats.T
        assert (a * d - b * c == ell).all()
        assert tuple(mats[0]) == (1, 0, 0, ell)


def test_heilbronn_cremona_is_memoised_read_only():
    for ell in (3, 31, 1259):
        mats = heilbronn_cremona(ell)
        assert heilbronn_cremona(ell) is mats
        assert not mats.flags.writeable
        with pytest.raises(ValueError):
            mats[0, 0] = 0
        assert np.array_equal(mats, heilbronn_cremona.__wrapped__(ell))


def test_trace_formula_oracle_matches_hecke():
    # Eichler-Selberg traces share no code with the Hecke routes: every
    # prime 11 <= p <= 199 with genus > 0, every n <= 50 the formula covers
    from trace_oracle import hecke_trace, hurwitz_class_number
    assert [hurwitz_class_number(n) for n in (3, 4, 12, 15, 16, 23)] == [
        Fraction(1, 3), Fraction(1, 2), Fraction(4, 3), 2, Fraction(3, 2), 3]
    checked = 0
    for p in PRIMES_11_199:
        s = ModSymSpace(p)
        if s.genus == 0:
            continue
        t_prime = {ell: exact_array(restrict_to_cuspidal(
                       s, s.hecke_matrix(ell).tolist()))
                   for ell in range(2, 51) if ell != p and all(
                       ell % d for d in range(2, ell))}
        ops = hecke_operators(t_prime, 50)
        for n in range(1, 51):
            if n % p and 4 * n < p * p:
                trace = ops[n].trace()
                assert trace == hecke_trace(p, n), (p, n)
                checked += 1
    assert checked == 2016


def test_atkin_lehner_matrix_matches_merel_up():
    # W_p by convergents shares no path code with Merel's U_p: at prime
    # level every cusp form is new, so -W_p = U_p on the cuspidal space
    for p in PRIMES_11_199:
        s = ModSymSpace(p)
        if s.genus == 0:
            continue
        w = s.atkin_lehner_matrix()
        minus_w = [[-x for x in row]
                   for row in restrict_to_cuspidal(s, w.tolist())]
        assert minus_w == restrict_to_cuspidal(
            s, hecke_matrix_merel(s, p).tolist()), p


def test_basis_never_enumerates_merel_for_up(tmp_path, monkeypatch):
    # the production basis reaches w_p through W_p, never through U_p
    from wplus import modsym
    from wplus.config import Config
    from wplus.pipeline import verify_prime
    merel = modsym.merel_set

    def guarded(n):
        if n > 2:
            raise AssertionError(f"merel_set({n}) called")
        return merel(n)

    monkeypatch.setattr(modsym, "merel_set", guarded)
    assert good_basis(389, 80).pivots
    report = verify_prime(67, Config(cache_dir=tmp_path), basis_only=True)
    assert report.status == "ok"


def test_hecke_commutativity():
    # T_2, T_3 and W_p commute on the whole quotient
    for p in (67, 101):
        s = ModSymSpace(p)
        t2 = s.hecke_matrix(2).tolist()
        t3 = s.hecke_matrix(3).tolist()
        w = s.atkin_lehner_matrix().tolist()
        for a, b in ((t2, t3), (w, t2), (w, t3)):
            assert linalg.mat_mul(a, b) == linalg.mat_mul(b, a), p


def test_atkin_lehner_commutes_with_hecke():
    s = ModSymSpace(67)
    up = restrict_to_cuspidal(s, hecke_matrix_merel(s, 67).tolist())
    t2 = restrict_to_cuspidal(s, s.hecke_matrix(2).tolist())
    assert linalg.mat_mul(up, t2) == linalg.mat_mul(t2, up)


def test_atkin_lehner_is_involution():
    # U_p^2 = 1 is exercised inside atkin_lehner_plus, which raises on
    # failure; W_p^2 = 1 holds on the whole quotient
    for p in (11, 37, 67):
        s = ModSymSpace(p)
        atkin_lehner_plus(s)
        w = s.atkin_lehner_matrix()
        assert np.array_equal(w @ w, np.eye(s.dim)), p


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
    f1, f2 = basis_forms(gb)
    assert [f1.coefficient(n) for n in range(1, 9)] == F1_67
    assert [f2.coefficient(n) for n in range(1, 9)] == F2_67


def test_good_basis_small_genus():
    assert good_basis(23, 10).g == 0
    gb = good_basis(101, 25)
    assert gb.g == 1 and gb.pivots == [1]


def test_good_basis_echelon_identity_block():
    gb = good_basis(97, 25)
    for i, f in enumerate(basis_forms(gb)):
        for j, c in enumerate(gb.pivots):
            assert f.coefficient(c) == (1 if i == j else 0)
    assert gb.pivots == sorted(gb.pivots)


def test_good_basis_precision_too_small():
    with pytest.raises(PrecisionError):
        BasisComputer(193).basis(6)


@pytest.mark.parametrize("prec", [2, 0, -3])
def test_cached_basis_refuses_a_precision_below_its_pivots(tmp_path, prec):
    # the cache changes timing only: a precision that does not pass the
    # pivots raises cold, and warm from an entry at a longer precision
    from wplus.cache import DiskCache
    with pytest.raises(PrecisionError):
        good_basis(67, prec)
    cache = DiskCache(tmp_path)
    assert good_basis(67, 23, cache).pivots == [1, 2]
    with pytest.raises(PrecisionError):
        good_basis(67, prec, cache)
    assert cache.get("good_basis", "67")["precision"] == 23


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
    assert gb.wt_infinity() == 0
    gb109 = good_basis(109, 30)
    assert gb109.pivots == [1, 2, 4]
    assert gb109.wt_infinity() == 1
    gb397 = good_basis(397, 80)
    assert gb397.wt_infinity() > 0


def test_basis_is_hecke_stable():
    # T_ell f (a_n -> a_{ell n} + ell a_{n / ell}) of each basis form is the
    # combination of the basis read off at the pivots, at every n where
    # both are known; and U_p f = -f, since w_p = -U_p at prime level
    for p, prec in ((67, 210), (109, 84), (389, 225)):
        gb = good_basis(p, prec)
        forms = basis_forms(gb)
        for f in forms:
            assert all(f.coefficient(p * n) == -f.coefficient(n)
                       for n in range(1, (prec - 1) // p + 1))
        for ell in (2, 3):
            known = range(1, (prec - 1) // ell + 1)
            for f in forms:
                image = [f.coefficient(ell * n)
                         + (ell * f.coefficient(n // ell) if n % ell == 0 else 0)
                         for n in known]
                combo = [sum(image[c - 1] * h.coefficient(n)
                             for c, h in zip(gb.pivots, forms))
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
    from graph_oracle import hecke_on_plus_part, rank
    b2 = hecke_on_plus_part(109, 2)
    b3 = hecke_on_plus_part(109, 3)
    g = len(b2)
    flat = [[m[i][j] for i in range(g) for j in range(g)]
            for m in (linalg.identity(g), b2, b3)]
    assert rank(flat) == 2


def test_cache_round_trip(tmp_path):
    from wplus.cache import DiskCache
    cache = DiskCache(tmp_path)
    gb = good_basis(67, 12, cache=cache)
    again = good_basis(67, 12, cache=cache)
    assert again.pivots == gb.pivots
    assert all(f1 == f2 for f1, f2 in zip(basis_forms(gb), basis_forms(again)))
    shorter = basis_forms(good_basis(67, 8, cache=cache))[0]
    assert shorter.precision == 8
    assert shorter.coefficient(7) == basis_forms(gb)[0].coefficient(7)


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
    assert [basis_forms(gb)[0].coefficient(n) for n in range(1, 9)] == F1_67
    stored = cache.get("good_basis", "67")
    assert stored["version"] == 2 and "galois_blocks" not in stored
    assert stored["precision"] == 12 and stored["pivots"] == [1, 2]


def test_verify_prime_builds_one_space_per_prime(tmp_path, monkeypatch):
    # the chain runs on the pivot-precision basis, and the cached basis is
    # the one a fresh computer gives at that precision
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
    assert stored["precision"] == (109 + 1) // 6 + 12
    fresh = BasisComputer(109).basis(stored["precision"])
    assert stored == modsym._basis_to_payload(fresh)


def test_verify_prime_serves_longer_cached_basis_unchanged(tmp_path,
                                                           monkeypatch):
    # an entry stored at a longer precision, as earlier releases stored the
    # chain's basis (110 at 389, against 77 now), is the same reduced
    # echelon basis: it is served cut to the pivot precision, gives the
    # cold report, and is neither recomputed nor rewritten
    from wplus import modsym
    from wplus.cache import DiskCache
    from wplus.config import Config
    from wplus.pipeline import verify_prime
    p = 389

    def stripped(report):
        out = report.to_json_dict()
        out.pop("timings_ms")
        return out

    cold = stripped(verify_prime(p, Config(cache_dir=tmp_path / "cold")))
    warm_dir = tmp_path / "warm"
    DiskCache(warm_dir).put("good_basis", str(p), modsym._basis_to_payload(
        BasisComputer(p).basis(110)))
    entry = warm_dir / "good_basis" / f"{p}.json"
    before = entry.read_bytes()
    monkeypatch.setattr(modsym, "BasisComputer", None)
    assert stripped(verify_prime(p, Config(cache_dir=warm_dir))) == cold
    assert cold["status"] == "ok"
    assert entry.read_bytes() == before


def test_plus_dimension_from_trace_matches_rank():
    # g+ = (genus + tr W_p + 1) / 2 against the exact rank of (1 + W_p) C,
    # C the integer cuspidal basis: dim x genus, in the kernel of the
    # boundary row
    for p in PRIMES_11_199:
        bc = BasisComputer(p)
        space = bc.space
        w = space.atkin_lehner_matrix().astype(object)
        rows = cuspidal(space)
        assert all(type(x) is int for row in rows for x in row)
        cusp = np.array(rows, dtype=object)
        assert cusp.shape == (space.dim, space.genus), p
        assert not (space.boundary.astype(object) @ cusp).any(), p
        rank = len(linalg.pivot_columns(cusp + w @ cusp)) \
            if space.genus else 0
        assert bc.g == rank, p
        assert bc.g == KNOWN_G_PLUS.get(p, bc.g), p


#: sha256 of the good_basis payloads at (p + 1)//6 + 12 from the exact
#: pivot searches (Bareiss on Python ints) alone
PAYLOAD_SHA256 = {
    109: "8f322c54d455a996ab95f83de378e8d7b540d70aa361a51c945bc409c15409e4",
    389: "d790ee5f19674130b3a7a72394d76eb72ed4b0b3ea48b8a69501b0ff52349886",
}


def _payload_sha256(gb):
    from wplus import modsym
    blob = json.dumps(modsym._basis_to_payload(gb), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


_EXACT_PIVOTS = linalg.pivot_columns


def _short(a):
    return _EXACT_PIVOTS(a)[:-1]


def _last_moved(a):
    pivots = _EXACT_PIVOTS(a)
    if pivots and pivots[-1] + 1 < np.asarray(a).shape[1]:
        pivots[-1] += 1
    return pivots


def _first_columns(a):
    return list(range(len(_EXACT_PIVOTS(a))))


@pytest.mark.parametrize("modular", [None, _short, _last_moved,
                                     _first_columns])
def test_basis_certifies_modular_pivots(monkeypatch, modular):
    # wrong pivots from the modular search cost an exact search, never a
    # different basis; honest ones need no exact search at all
    exact_calls = []
    monkeypatch.setattr(linalg, "pivot_columns",
                        lambda a: exact_calls.append(1) or _EXACT_PIVOTS(a))
    if modular is not None:
        monkeypatch.setattr(linalg, "pivot_columns_mod", modular)
    for p, sha in PAYLOAD_SHA256.items():
        exact_calls.clear()
        gb = BasisComputer(p).basis((p + 1) // 6 + 12)
        assert _payload_sha256(gb) == sha, p
        if modular is None:
            assert not exact_calls
        elif modular is _short:
            assert len(exact_calls) == 2      # the rows, then the pivots


def test_hecke_matrices_only_below_square_root_of_precision(monkeypatch):
    # a prime ell with ell^2 >= the precision acts on x alone
    from wplus import modsym
    asked = []
    hecke_matrix = modsym.ModSymSpace.hecke_matrix
    monkeypatch.setattr(modsym.ModSymSpace, "hecke_matrix",
                        lambda self, ell: asked.append(ell)
                        or hecke_matrix(self, ell))
    bc = BasisComputer(389)
    gb = bc.basis(77)
    assert sorted(asked) == [2, 3, 5, 7]
    bc.basis(200)
    assert sorted(asked) == [2, 3, 5, 7, 11, 13]
    fresh = BasisComputer(389).basis(77)
    assert [f.coefficients(77) for f in basis_forms(gb)] == [
        f.coefficients(77) for f in basis_forms(fresh)]


@pytest.mark.slow
def test_modular_pivot_searches_match_exact_scan():
    # the production rows and echelon pivots are those of the exact search
    # on the same Krylov matrices, at every prime in [5, 449] and at 601
    primes = [p for p in range(5, 450) if all(p % d for d in range(2, p))]
    for p in primes + [601]:
        bc = BasisComputer(p)
        if bc.g == 0:
            continue
        krylov = np.array(bc._cols[:(p + 1) // 6 + 2])
        rows = linalg.pivot_columns(krylov)
        assert bc.rows == rows, p
        assert bc._pivots == linalg.pivot_columns(krylov[:, rows].T), p
        assert bc.basis((p + 1) // 6 + 12).pivots == [
            c + 1 for c in bc._pivots]


def test_cache_rechecks_identity_block_and_p_integral(tmp_path):
    # a checksummed entry of the current version is still refused when its
    # forms break the identity block at the pivots, or when their
    # p-integrality is not the stored one; it is recomputed and overwritten
    from wplus import modsym
    from wplus.cache import DiskCache
    cache = DiskCache(tmp_path)
    good = modsym._basis_to_payload(BasisComputer(67).basis(12))
    broken_block = json.loads(json.dumps(good))
    broken_block["coefficients"][0][2] = "1/1"       # f_1 at the pivot q^2
    wrong_flag = dict(good, p_integral=False)
    for planted in (broken_block, wrong_flag):
        cache.put("good_basis", "67", planted)
        assert cache.get("good_basis", "67") == planted
        gb = good_basis(67, 12, cache=cache)
        assert gb.pivots == [1, 2] and gb.p_integral
        assert [basis_forms(gb)[0].coefficient(n)
                for n in range(1, 9)] == F1_67
        assert cache.get("good_basis", "67") == good


PRIMES_5_300 = [p for p in range(5, 301) if all(p % d for d in range(2, p))]


def _assert_integer_basis_matches_fraction_oracle(p, bc=None):
    # the numerator rows over their least denominators against one Fraction
    # per coefficient, from the same Krylov columns
    from basis_oracle import fraction_forms
    prec = (p + 1) // 6 + 12
    bc = bc or BasisComputer(p)
    gb = bc.basis(prec)
    oracle = fraction_forms(bc, prec)
    assert len(oracle) == gb.g == len(gb.den) == len(gb.num)
    for row, d, f in zip(gb.num.tolist(), gb.den, oracle):
        coeffs = f.coefficients(prec)
        assert d == math.lcm(*(c.denominator for c in coeffs)), p
        assert [Fraction(n, d) for n in row] == coeffs, p
    assert gb.p_integral == all(f.is_p_integral(p) for f in oracle)


def test_integer_basis_matches_fraction_oracle():
    for p in PRIMES_5_300 + [389]:
        _assert_integer_basis_matches_fraction_oracle(p)


@pytest.mark.slow
@pytest.mark.parametrize("p", [601, 1009])
def test_integer_basis_matches_fraction_oracle_large(p):
    # opt-in (pytest -m slow)
    _assert_integer_basis_matches_fraction_oracle(p)


@pytest.mark.parametrize("p", [67, 199, 389])
def test_payload_bytes_match_fraction_oracle(p):
    # the codec writes from the integers the "n/d" strings, in the key
    # order, that the Fraction route writes
    from basis_oracle import fraction_payload
    from wplus import modsym
    prec = (p + 1) // 6 + 12
    bc = BasisComputer(p)
    assert json.dumps(modsym._basis_to_payload(bc.basis(prec))) == \
        json.dumps(fraction_payload(bc, prec))


#: a hand-built basis at p = 7 with pivots 1 and 3, whose denominators
#: differ from coefficient to coefficient; 1/14 makes it not 7-integral
MIXED_ROWS = [
    [0, 1, Fraction(1, 2), 0, Fraction(-3, 4), Fraction(5, 6),
     Fraction(2, 9), Fraction(1, 14)],
    [0, 0, 0, 1, Fraction(-1, 3), 0, Fraction(7, 10), Fraction(-11, 5)],
]


def _integer_basis(p, rows, pivots, p_integral):
    from wplus.modsym import GoodBasis
    dens = [math.lcm(*(Fraction(c).denominator for c in row)) for row in rows]
    num = np.array([[int(c * d) for c in row] for row, d in zip(rows, dens)])
    return GoodBasis(p, len(rows), 3, num, dens, pivots, p_integral)


def test_codec_round_trips_mixed_denominators():
    from wplus.modsym import _basis_from_payload, _basis_to_payload
    gb = _integer_basis(7, MIXED_ROWS, [1, 3], False)
    payload = _basis_to_payload(gb)
    assert payload["coefficients"] == [
        [f"{Fraction(c).numerator}/{Fraction(c).denominator}" for c in row]
        for row in MIXED_ROWS]
    back = _basis_from_payload(json.loads(json.dumps(payload)), 8)
    assert np.array_equal(back.num, gb.num)
    assert back.den == gb.den == [252, 30]
    assert (back.pivots, back.p_integral) == ([1, 3], False)
    assert json.dumps(_basis_to_payload(back)) == json.dumps(payload)
    # cut at 7, each form over the least denominator of what is left; the
    # stored p-integrality is that of the stored precision
    cut = _basis_from_payload(payload, 7)
    assert cut.den == [36, 30] and not cut.p_integral
    assert [[Fraction(n, d) for n in row] for row, d in zip(
        cut.num.tolist(), cut.den)] == [row[:7] for row in MIXED_ROWS]
    assert basis_forms(cut)[0].coefficients(7) == MIXED_ROWS[0][:7]
    assert _basis_from_payload(dict(payload, p_integral=True), 8) is None
    # numerators past int64 come back as Python ints
    huge = _integer_basis(7, [[0, 1, Fraction(2 ** 70 + 1, 3)]], [1], True)
    back = _basis_from_payload(_basis_to_payload(huge), 3)
    assert back.num.dtype == object and back.den == [3]
    assert back.num.tolist() == huge.num.tolist() == [[0, 3, 2 ** 70 + 1]]


def test_good_basis_builds_no_qexpansion(tmp_path, monkeypatch):
    # cold and served from the cache, the basis and the chain that reads
    # it build no QExpansion; only the tests' forms view does
    from wplus.cache import DiskCache
    from wplus.config import Config
    from wplus.pipeline import verify_prime
    from wplus.series import QExpansion
    p = 389
    prec = (p + 1) // 6 + 12

    def refuse(self, *args, **kwargs):
        raise AssertionError("QExpansion built")

    monkeypatch.setattr(QExpansion, "__init__", refuse)
    cache = DiskCache(tmp_path)
    cold = good_basis(p, prec, cache)
    warm = good_basis(p, prec, cache)
    assert np.array_equal(cold.num, warm.num) and cold.den == warm.den
    assert verify_prime(p, Config(cache_dir=tmp_path)).status == "ok"
    with pytest.raises(AssertionError, match="QExpansion built"):
        basis_forms(warm)


PRIMES_5_400 = [p for p in range(5, 401) if all(p % d for d in range(2, p))]


def test_relations_match_union_find_oracle():
    # the orbit quotient against the union-find one: their coordinates
    # differ, so compare dim, genus, the row space of the integer
    # reduction map (each map is an invertible combination of the rows of
    # the other, so stacking them gives rank dim) and the traces of T_2,
    # T_3 and W_p, each reduction map taking the images of its own free
    # symbols
    import copy

    from modsym_oracle import OracleRelations
    for p in PRIMES_5_400:
        s, o = ModSymSpace(p), OracleRelations(p)
        assert (s.dim, s.genus) == (o.dim, o.genus), p
        for r, free in ((s._r_num, s.free), (o.r_num, o.free)):
            assert np.array_equal(r[:, free], np.eye(s.dim)), p
        assert np.array_equal(o.r_num, o.r_num[:, s.free] @ s._r_num), p
        assert np.array_equal(s._r_num, s._r_num[:, o.free] @ o.r_num), p
        lifted = copy.copy(s)
        lifted.free = o.free
        for ell in (2, 3):
            counts = s._count_images(merel_set(ell), o.free)
            assert np.trace(o.r_num @ counts) == np.trace(
                s.hecke_matrix(ell)), (p, ell)
        w_counts = lifted._path_counts([(0, -1, p, 0)])
        assert np.trace(o.r_num @ w_counts) == np.trace(
            s.atkin_lehner_matrix()), p


def _three_term_rows(monkeypatch, p):
    """The rows ModSymSpace(p) feeds its SparseRREF, and the finished
    pivot rows."""
    fed, finished = [], []

    class Recording(linalg.SparseRREF):
        def add_row(self, row):
            fed.append(dict(row))
            super().add_row(row)

        def finish(self):
            finished.append(super().finish())
            return finished[-1]

    monkeypatch.setattr(linalg, "SparseRREF", Recording)
    ModSymSpace(p)
    return fed, finished[0]


@pytest.mark.parametrize("p", [5, 7, 11, 13, 67, 109, 199, 389])
def test_sparse_rref_matches_dense_fraction_rref(monkeypatch, p):
    # the exact pivot rule on ints against dense Fraction elimination of
    # the same three-term rows; at p = 1 (mod 3) a fixed point of tau
    # gives the row 3 x_r = 0, whose pivot 3 divides it
    fed, finished = _three_term_rows(monkeypatch, p)
    cols = sorted({c for row in fed for c in row})
    red, pivots = linalg.rref([[row.get(c, 0) for c in cols] for row in fed])
    assert sorted(finished) == [cols[j] for j in pivots], p
    for row, j in zip(red, pivots):
        got = finished[cols[j]]
        assert got == {cols[t]: v for t, v in enumerate(row) if v}, p
        assert all(type(v) is int for v in got.values()), p
    assert any(sorted(map(abs, row.values())) == [3] for row in fed) == (
        p % 3 == 1), p


def test_good_basis_builds_no_fraction(tmp_path, monkeypatch):
    # cold and served from the cache, the basis of every prime in [5, 400]
    # stays on integers: the relations, the reduction map, the Hecke
    # matrices and the Krylov columns
    from wplus import modsym
    from wplus.cache import DiskCache

    def refuse(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(linalg, "Fraction", refuse)
    assert not hasattr(modsym, "Fraction")
    cache = DiskCache(tmp_path)
    cold = {p: good_basis(p, (p + 1) // 6 + 12, cache) for p in PRIMES_5_400}
    monkeypatch.setattr(modsym, "BasisComputer", None)
    for p, gb in cold.items():
        warm = good_basis(p, (p + 1) // 6 + 12, cache)
        assert np.array_equal(warm.num, gb.num) and warm.den == gb.den, p
        assert warm.pivots == gb.pivots, p


@pytest.mark.parametrize("p", [67, 71])
def test_good_basis_is_built_once_per_cache(tmp_path, monkeypatch, p):
    # the second call is served from the cache, also at 71, where g+ = 0 and
    # the basis is 0 x prec
    from wplus import modsym
    from wplus.cache import DiskCache
    built = []
    init = modsym.BasisComputer.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(modsym.BasisComputer, "__init__", counting)
    cache = DiskCache(tmp_path)
    cold, warm = (good_basis(p, 24, cache) for _ in range(2))
    assert len(built) == 1
    assert warm.num.shape == cold.num.shape == (cold.g, 24)


@pytest.mark.slow
def test_every_space_below_6000_meets_the_pivot_rule():
    # every pivot of the three-term relations divides its row (SparseRREF
    # raises otherwise) at each prime below 6000; opt-in (pytest -m slow)
    from wplus.fppoly import is_prime
    for p in range(5, 6000):
        if is_prime(p):
            assert ModSymSpace(p).dim == genus_x0(p) + 1, p


@pytest.mark.parametrize("p", [11, 67, 389])
def test_support_route_matches_hecke_matrices(p):
    # T_ell y from the images of the support of y alone is the matrix of
    # T_ell times y, and W_p commutes with it: (1 + w) T_ell y =
    # T_ell (1 + w) y, for every prime ell != p below the precision
    from wplus.fppoly import is_prime
    space = ModSymSpace(p)
    w = space.atkin_lehner_matrix()
    ells = [ell for ell in range(2, (p + 1) // 6 + 12)
            if ell != p and is_prime(ell)]
    rng = np.random.default_rng(p)
    for _ in range(3):
        y = np.zeros(space.dim, dtype=np.int64)
        support = rng.choice(space.dim, size=min(4, space.dim), replace=False)
        y[support] = rng.integers(1, 10, size=support.size) * rng.choice(
            [-1, 1], size=support.size)
        h = space.hecke_columns(ells, y)
        assert h.shape == (space.dim, len(ells))
        for col, ell in zip(h.T, ells):
            t = space.hecke_matrix(ell)
            assert np.array_equal(col, t @ y), (p, ell)
            assert np.array_equal(col + w @ col, t @ (y + w @ y)), (p, ell)


def test_cyclic_vector_fallback_at_1051():
    # the support vectors of trials 0 and 1 are not cyclic at 1051, so the
    # third, on coordinates 9..12, is taken; its basis is the Fraction
    # route's, and its payload hash is the one a dense cyclic vector gives
    p = 1051
    bc = BasisComputer(p)
    assert np.flatnonzero(bc._y).tolist() == [9, 10, 11, 12]
    assert bc._y[9:13].tolist() == [1, 2, 3, 4]
    _assert_integer_basis_matches_fraction_oracle(p, bc)
    gb = bc.basis((p + 1) // 6 + 12)
    assert _payload_sha256(gb) == (
        "52ae6bbc242ad4959f8670614e2eba51ddbad4b7b979a2f37732cf3b5fb29328")


@pytest.mark.parametrize("p,prec", [(11, 14), (13, 14), (37, 80), (67, 23),
                                    (389, 77)])
def test_krylov_columns_match_merel_hecke_operators(p, prec):
    # every column T_n x, n < prec, against the matrix of T_n from Merel's
    # determinant-n matrices times x, which shares with the engine only
    # the index of a symbol's image: not the levels, the recurrence, the
    # Heilbronn sets or the late-prime count.  The columns come from the
    # extension of __init__ and from a second one.
    # At 11 and 13 (g+ = 0) no column is made; at 37 the column n = 37
    # takes U_p = -1, and n = 74 is T_2 of it, a level later
    from wplus.modsym import pivot_precision
    bc = BasisComputer(p)
    if bc.g == 0:
        assert bc._cols == [] and prec == pivot_precision(p)
        return
    bc._extend(prec)
    x = bc._cols[0]
    for n in range(1, prec):
        assert np.array_equal(bc._cols[n - 1],
                              hecke_matrix_merel(bc.space, n) @ x), (p, n)


@pytest.mark.parametrize("p", [67, 389])
def test_hecke_columns_mixing_primes_refuses_p(p, monkeypatch):
    # one batched count against the matrix of each T_ell, for lists in any
    # order, with repeats, on sparse and dense y
    space = ModSymSpace(p)
    rng = np.random.default_rng(p)
    for ells in ([2, 3, 7], [11, 13, 2, 5, 13], [97, 2, 31, 53, 3]):
        for size in (1, 4, space.dim):
            y = np.zeros(space.dim, dtype=np.int64)
            y[rng.choice(space.dim, size=size, replace=False)] = (
                rng.integers(1, 9, size=size) * rng.choice([-1, 1], size))
            h = space.hecke_columns(ells, y)
            for col, ell in zip(h.T, ells):
                assert np.array_equal(col, space.hecke_matrix(ell) @ y), (
                    p, ells, ell)
    # a non-prime, or the level (U_p), is refused before any image is
    # counted
    monkeypatch.setattr(ModSymSpace, "_images", None)
    for ells in ([2, 3, 9], [2, 3, p]):
        with pytest.raises(ValueError, match="must be prime"):
            space.hecke_columns(ells, y)


def test_extend_makes_one_product_per_level_and_prime(monkeypatch):
    # the columns n in [68, 200) at 389: one product with T_ell per group
    # (Omega(n), ell = least prime factor of n), counted against a plain
    # factorisation; a product per n would make about 130
    def factor(n):
        out, f = [], 2
        while n > 1:
            while n % f == 0:
                out.append(f)
                n //= f
            f += 1
        return out

    bc = BasisComputer(389)
    start, upto = len(bc._cols) + 1, 200
    groups = {(len(factor(n)), factor(n)[0]) for n in range(start, upto)
              if len(factor(n)) > 1 or n * n < upto}
    calls = []
    exact_matmul = linalg.exact_matmul

    def recording(a, b):
        calls.append(any(b is s for s in bc._steps.values()))
        return exact_matmul(a, b)

    monkeypatch.setattr(linalg, "exact_matmul", recording)
    bc._extend(upto)
    assert sum(calls) == len(groups)
    # the rest: T_11 and T_13 are formed (one product with R each), and
    # the late primes take one product with R and one with 1 + W_p
    assert sorted(bc._steps) == [2, 3, 5, 7, 11, 13]
    assert len(calls) == len(groups) + 4
