"""Exact integer linear algebra: Hermite normal form, kernels, determinants.

Everything here runs on Python integers, so there is no overflow and no
floating-point rounding anywhere in the lattice constructions.
"""

from __future__ import annotations

from . import errors


def hermite_normal_form(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns the nonzero rows as tuples: row echelon with positive pivots and
    entries above each pivot reduced into [0, pivot).  Canonical for the row
    lattice, i.e. two matrices with the same integer row span give the same
    result.
    """
    A = [list(map(int, r)) for r in rows]
    if not A:
        return []
    m, ncols = len(A), len(A[0])
    r = 0
    for c in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, m):
            while A[i][c]:
                q = A[r][c] // A[i][c]
                A[r] = [a - q * b for a, b in zip(A[r], A[i])]
                A[r], A[i] = A[i], A[r]
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [a - q * b for a, b in zip(A[i], A[r])]
        r += 1
    return [tuple(row) for row in A[:r]]


def kernel_basis(coeffs):
    """Canonical basis of the integer kernel of v -> sum(coeffs[i] * v[i]).

    The functional must be nonzero.  Returns HNF rows of the kernel lattice,
    sorted lexicographically, so the basis is identical across runs and
    platforms.
    """
    n = len(coeffs)
    if not any(coeffs):
        raise errors.BadInput("zero functional has no canonical kernel basis")
    # Row-reduce [coeffs_i | e_i]; unimodular row operations keep the row span
    # equal to {(f(a), a) : a in Z^n}, so rows whose first entry reaches 0
    # carry a basis of the kernel in their tail.
    aug = [[int(coeffs[i])] + [1 if j == i else 0 for j in range(n)]
           for i in range(n)]
    tails = [row[1:] for row in hermite_normal_form(aug) if row[0] == 0]
    return sorted(hermite_normal_form(tails))


def det(mat):
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    A = [list(map(int, row)) for row in mat]
    n = len(A)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def is_positive_definite(gram):
    """Sylvester's criterion on a symmetric integer matrix, exactly."""
    n = len(gram)
    return all(det([row[: k + 1] for row in gram[: k + 1]]) > 0
               for k in range(n))

