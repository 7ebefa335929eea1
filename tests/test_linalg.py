import math
import random
from fractions import Fraction

import numpy as np
import pytest

from wplus import linalg


def test_pivot_columns_match_rref():
    # the fraction-free pivot search against Fraction elimination, on
    # integer matrices of every rank with zero columns mixed in
    rng = random.Random(7)
    for _ in range(500):
        rows, cols = rng.randint(1, 7), rng.randint(1, 9)
        k = rng.randint(0, min(rows, cols))
        left = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(rows)]
        right = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(cols)]
                 for _ in range(k)]
        m = [[sum(left[i][t] * right[t][j] for t in range(k))
              for j in range(cols)] for i in range(rows)]
        assert linalg.pivot_columns(m) == linalg.rref(m)[1]


def test_scaled_inverse_matches_fraction_solve():
    # fraction-free Gauss-Jordan against the Fraction route, on square
    # integer matrices with a zero (0, 0) entry now and then
    rng = random.Random(11)
    tried = 0
    while tried < 300:
        n = rng.randint(1, 8)
        a = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            a[0][0] = 0
        inv = linalg.solve(a, linalg.identity(n))
        if inv is None:
            continue
        k, kinv = linalg.scaled_inverse(a)
        assert k == math.lcm(*(x.denominator for row in inv for x in row))
        assert [[Fraction(x, k) for x in row] for row in kinv] == inv
        tried += 1


def test_scaled_inverse_small_and_swapped():
    assert linalg.scaled_inverse([[-3]]) == (3, [[-1]])
    # a zero (0, 0) entry forces a row swap
    k, kinv = linalg.scaled_inverse([[0, 2], [3, 1]])
    assert [[Fraction(x, k) for x in row] for row in kinv] == [
        [Fraction(-1, 6), Fraction(1, 3)], [Fraction(1, 2), 0]]


def test_scaled_inverse_singular_raises():
    for a in ([[0]], [[1, 2], [2, 4]], [[0, 0, 1], [0, 1, 0], [0, 2, 0]]):
        with pytest.raises(ValueError):
            linalg.scaled_inverse(a)


def _random_integer_matrix(rng, rows, cols, rank, size):
    left = [[rng.randint(-size, size) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.choice((0, rng.randint(-size, size))) for _ in range(cols)]
             for _ in range(rank)]
    return [[sum(left[i][t] * right[t][j] for t in range(rank))
             for j in range(cols)] for i in range(rows)]


@pytest.mark.parametrize("shape", ["full", "deficient", "wide", "tall", "huge"])
def test_pivot_columns_mod_matches_exact(shape):
    # on seeded integer matrices the search mod PIVOT_PRIME finds the exact
    # pivots; "huge" has entries far above 2^63
    rng = random.Random(shape)
    tried = 0
    while tried < 100:
        rows, cols = {"wide": (rng.randint(1, 5), rng.randint(6, 14)),
                      "tall": (rng.randint(6, 14), rng.randint(1, 5))}.get(
            shape, (rng.randint(1, 9), rng.randint(1, 9)))
        size = 2 ** 80 if shape == "huge" else 9
        m = _random_integer_matrix(rng, rows, cols,
                                   rng.randint(0, min(rows, cols)), size)
        exact = linalg.pivot_columns(m)
        full = len(exact) == min(rows, cols)
        if (shape == "full" and not full) or (shape == "deficient" and full):
            continue
        if shape == "huge" and max(abs(x) for row in m for x in row) < 2 ** 63:
            continue
        assert linalg.pivot_columns_mod(m) == exact
        assert linalg.pivot_columns_mod(np.array(m, dtype=object)) == exact
        tried += 1


def test_pivot_columns_mod_can_differ_from_exact():
    # a column divisible by the prime is no pivot mod it: the reason every
    # caller certifies the pivots it takes from the modular search
    ell = linalg.PIVOT_PRIME
    assert linalg.pivot_columns([[ell, 1], [0, 1]]) == [0, 1]
    assert linalg.pivot_columns_mod([[ell, 1], [0, 1]]) == [1]
    assert linalg.pivot_columns([[ell, 1]]) == [0]
    assert linalg.pivot_columns_mod([[ell, 1]]) == [1]


def test_exact_matmul_matches_python_ints():
    # int64 inside the bound, Python ints past it, equal to the schoolbook
    # product either way
    rng = random.Random(5)
    for size, dtype in ((2 ** 10, np.int64), (2 ** 40, object),
                        (2 ** 70, object)):
        a = [[rng.randint(-size, size) for _ in range(6)] for _ in range(4)]
        b = [[rng.randint(-size, size) for _ in range(3)] for _ in range(6)]
        want = [[sum(a[i][t] * b[t][j] for t in range(6)) for j in range(3)]
                for i in range(4)]
        got = linalg.exact_matmul(np.array(a, dtype=object),
                                  np.array(b, dtype=object))
        assert got.dtype == dtype
        assert got.tolist() == want


@pytest.mark.parametrize("top", [2 ** 24 - 1, 2 ** 24])
def test_exact_matmul_float64_path_at_its_bound(monkeypatch, top):
    # max|a| max|b| inner = 2^23 top 64: just below 2^53 the product runs
    # in float64 (shown by switching the int64 route off), at 2^53 it runs
    # in int64; rows and columns of extreme entries take partial sums to
    # the bound, and every route equals the product on Python ints
    rng = np.random.default_rng(top)
    inner, big = 64, 2 ** 23
    a = rng.integers(-big, big, size=(5, inner), endpoint=True)
    a[0], a[1] = big, -big
    b = rng.integers(-top, top, size=(inner, 4), endpoint=True)
    b[:, 0] = top
    b[:, 1] = rng.choice([-top, top], inner)
    want = a.astype(object) @ b.astype(object)
    assert abs(want[0, 0]) == big * top * inner
    got = linalg.exact_matmul(a, b)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    monkeypatch.setattr(linalg, "_INT64_SAFE", 0)
    for right in (b, b[:, 1]):
        got = linalg.exact_matmul(a, right)
        assert np.array_equal(got, a.astype(object) @ right.astype(object))
        assert got.dtype == (np.int64 if top < 2 ** 24 else object)


def test_sparse_rref_planted_row_whose_lead_does_not_divide_it():
    # a pivot must divide its row: a lead of 2 over an odd entry raises,
    # naming the pivot and the column, whether the row arrives with that
    # lead or reaches it by reduction; a lead of 6 over even entries passes
    with pytest.raises(ValueError, match="pivot 2 at column 0"):
        linalg.SparseRREF().add_row({0: 2, 1: 3})
    reducer = linalg.SparseRREF()
    reducer.add_row({0: 1, 1: 1})
    with pytest.raises(ValueError, match="pivot 2 at column 1"):
        reducer.add_row({0: 1, 1: 3, 2: 1})
    reducer.add_row({0: -3, 1: 3, 5: 6})
    finished = reducer.finish()
    assert finished == {0: {0: 1, 5: -1}, 1: {1: 1, 5: 1}}
    assert all(type(v) is int for row in finished.values()
               for v in row.values())



def test_sparse_rref_with_fill_in_matches_dense_fraction_rref():
    # rows L U with U unit upper triangular on random pivot columns and L
    # unit lower triangular reduce to the rows of U as they arrive, so every
    # lead is 1; the sparse rows of U hold other pivot columns, whose back
    # substitution fills in free columns.  Dependent rows reduce to nothing.
    # The finished rows are those of Fraction elimination of the same rows.
    rng = random.Random(5)
    fills = 0
    for _ in range(200):
        width = rng.randint(4, 24)
        rank = min(rng.randint(1, 8), width)
        pivots = sorted(rng.sample(range(width), rank))
        upper = []
        for c in pivots:
            row = [0] * width
            row[c] = 1
            for k in rng.sample(range(c + 1, width), min(3, width - c - 1)):
                row[k] = rng.randint(-4, 4)
            upper.append(row)
        lower = [[rng.randint(-2, 2) for _ in range(i)] + [1]
                 for i in range(rank)]
        rows = [[sum(m * u[k] for m, u in zip(mix, upper))
                 for k in range(width)] for mix in lower]
        for _ in range(rng.randint(0, 2)):
            mix = [rng.randint(-2, 2) for _ in range(rank)]
            rows.append([sum(m * r[k] for m, r in zip(mix, rows))
                         for k in range(width)])
        reducer = linalg.SparseRREF()
        for row in rows:
            reducer.add_row({k: v for k, v in enumerate(row) if v})
        before = sum(len(r) for r in reducer.pivot_rows.values())
        finished = reducer.finish()
        red, dense_pivots = linalg.rref(rows)
        assert sorted(finished) == dense_pivots == pivots
        for row, c in zip(red, dense_pivots):
            assert finished[c] == {k: v for k, v in enumerate(row) if v}
            assert all(type(v) is int for v in finished[c].values())
        fills += sum(len(r) for r in finished.values()) > before
    assert fills > 25
