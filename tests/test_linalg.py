import math
import random
from fractions import Fraction

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
