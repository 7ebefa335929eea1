import random

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
