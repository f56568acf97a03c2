"""Exact integer linear algebra: oracles are brute force and fractions."""

import random
from fractions import Fraction

import pytest

from dpmod2 import intlinalg


def _row_span_member(rows, v, bound=6):
    """Brute-force membership of v in the integer row span (small cases)."""
    if not rows:
        return not any(v)
    coeffs = range(-bound, bound + 1)

    def rec(i, acc):
        if i == len(rows):
            return acc == list(v)
        return any(rec(i + 1, [a + c * b for a, b in zip(acc, rows[i])])
                   for c in coeffs)

    return rec(0, [0] * len(v))


def test_hnf_canonical_under_row_operations():
    random.seed(3)
    for _ in range(25):
        rows = [[random.randint(-4, 4) for _ in range(4)] for _ in range(3)]
        h1 = intlinalg.hermite_normal_form(rows)
        # unimodular mix: shuffle, negate, add a multiple of another row
        mixed = [list(r) for r in rows]
        random.shuffle(mixed)
        mixed[0] = [-x for x in mixed[0]]
        mixed[1] = [a + 2 * b for a, b in zip(mixed[1], mixed[2])]
        assert intlinalg.hermite_normal_form(mixed) == h1


def test_hnf_reduced_shape():
    h = intlinalg.hermite_normal_form([[2, 4, 4], [0, 6, 12], [0, 0, 8]])
    # pivots positive, entries above pivots reduced
    assert h == [(2, 4, 4), (0, 6, 4), (0, 0, 8)]


def test_kernel_basis_spans_kernel():
    random.seed(5)
    for _ in range(20):
        c = [random.randint(-3, 3) for _ in range(4)]
        if not any(c):
            continue
        basis = intlinalg.kernel_basis(c)
        assert len(basis) == 3
        assert all(sum(a * b for a, b in zip(c, row)) == 0 for row in basis)
        # every small kernel vector is an integer combination of the basis
        for v in [(c[1], -c[0], 0, 0), (0, c[2], -c[1], 0), (0, 0, c[3], -c[2])]:
            assert _row_span_member(basis, v)


def test_kernel_basis_is_sorted_and_deterministic():
    c = (-3, -1, -1, -1)
    b1 = intlinalg.kernel_basis(c)
    assert b1 == sorted(b1)
    assert b1 == intlinalg.kernel_basis(c)


def test_kernel_of_zero_functional_rejected():
    with pytest.raises(ValueError):
        intlinalg.kernel_basis((0, 0, 0))


def test_det_matches_fraction_elimination():
    random.seed(11)

    def det_frac(M):
        n = len(M)
        A = [[Fraction(x) for x in row] for row in M]
        sign = 1
        for c in range(n):
            piv = next((i for i in range(c, n) if A[i][c]), None)
            if piv is None:
                return 0
            if piv != c:
                A[c], A[piv] = A[piv], A[c]
                sign = -sign
            for i in range(c + 1, n):
                f = A[i][c] / A[c][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[c])]
        out = Fraction(sign)
        for i in range(n):
            out *= A[i][i]
        assert out.denominator == 1
        return int(out)

    for n in (1, 2, 3, 4, 5):
        for _ in range(10):
            M = [[random.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert intlinalg.det(M) == det_frac(M)


def test_positive_definite():
    assert intlinalg.is_positive_definite([[2, -1], [-1, 2]])
    assert not intlinalg.is_positive_definite([[1, 2], [2, 1]])

