"""Exact integer linear algebra: Hermite normal form, and from it kernels
and |det|.

Everything here runs on Python integers, so there is no overflow and no
floating-point rounding anywhere in the lattice constructions.
"""

from math import prod

from . import errors


def _hermite_normal_form(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns the nonzero rows as tuples: row echelon with positive pivots and
    entries above each pivot reduced into [0, pivot).  Canonical for the row
    lattice, i.e. two matrices with the same integer row span give the same
    result.  Raises BadInput for a ragged matrix or an entry that is not an
    int.
    """
    A = [list(r) for r in rows]
    if not A:
        return []
    m, ncols = len(A), len(A[0])
    if any(len(r) != ncols or any(type(x) is not int for x in r) for r in A):
        raise errors.BadInput("expected a rectangular matrix of ints")
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


def _kernel_basis(coeffs):
    """Canonical basis of the integer kernel of v -> sum(coeffs[i] * v[i]).

    The functional must be nonzero, with int coefficients.  Returns HNF rows
    of the kernel lattice, sorted lexicographically, so the basis is
    identical across runs and platforms.
    """
    n = len(coeffs)
    if not any(coeffs):
        raise errors.BadInput("zero functional has no canonical kernel basis")
    # Row-reduce [coeffs_i | e_i]; unimodular row operations keep the row span
    # equal to {(f(a), a) : a in Z^n}, so rows whose first entry reaches 0
    # carry a basis of the kernel in their tail.
    aug = [[coeffs[i]] + [1 if j == i else 0 for j in range(n)]
           for i in range(n)]
    tails = [row[1:] for row in _hermite_normal_form(aug) if row[0] == 0]
    return sorted(_hermite_normal_form(tails))


def _abs_det(mat):
    """|det| of a square integer matrix: its HNF is U * mat, U unimodular,
    so |det| is the product of the n diagonal pivots, or 0 when the HNF has
    fewer than n rows (Cohen, GTM 138, 2.4.3)."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise errors.BadInput("expected a square matrix")
    hnf = _hermite_normal_form(mat)
    return prod(row[i] for i, row in enumerate(hnf)) if len(hnf) == n else 0
