"""Brute-force oracles, independent of the package's searches and chains;
the determinant by rational elimination; the mod-2 chain built the plain
way, from every map's permutation; and a reader for the reports' JSON
form."""

from fractions import Fraction

from dpmod2 import errors, f2
from dpmod2.bridge import VerificationReport
from dpmod2.groups import PermGroup


def report_from_json_dict(d):
    """The report that VerificationReport.to_json_dict turned into d."""
    numbers = {k: v for k, v in d["numbers"].items() if v is not None}
    return VerificationReport(d["statement"], d["n"], d["pass"], numbers,
                              list(d["witnesses"]))


def closure(generators, multiply, identity, limit=2_000_000):
    """All elements of the generated group, by breadth-first closure.

    Elements must be hashable.  Raises if the closure exceeds `limit`.
    """
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = multiply(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    if len(seen) > limit:
                        raise RuntimeError("closure exceeded limit")
        frontier = new
    return seen


def det_fraction(M):
    """The signed determinant of a square integer matrix, by Gaussian
    elimination over the rationals."""
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
    if out.denominator != 1:
        raise AssertionError(f"non-integer determinant {out}")
    return int(out)


def f2_chain_of_permutations(S, maps):
    """The stabilizer chain of linear maps of S on its nonzero vectors, built
    by turning every map into its permutation and extending by each one:
    every map is checked and sifted in full."""
    return PermGroup([f2.permutation(S, m) for m in maps], 2 ** S.dim - 1,
                     known_base=[S._position[1 << i] for i in range(S.dim)])


def isometry_count_bruteforce(S):
    """|O(S, q)| by trying every basis image, keeping the whole span of the
    images fixed so far to test independence; exponential, for dim <= 5."""
    vecs = S.vectors()
    count = 0

    def assign(i, images, span):
        nonlocal count
        if i == S.dim:
            count += 1
            return
        for v in vecs:
            if v in span or S.q(v) != S.qdiag[i]:
                continue
            if any(S.pair(v, images[j]) != S.gram2[i][j] for j in range(i)):
                continue
            assign(i + 1, images + [v], span | {s ^ v for s in span})

    assign(0, [], frozenset({0}))
    return count


def radical_kernel_bruteforce(S, k):
    """The isometries of S that move each basis vector b to b or b + k, by
    trying all 2^dim choices and keeping those check_isometry accepts."""
    maps = []
    for choice in range(1 << S.dim):
        images = [b ^ (k if choice >> i & 1 else 0) for i, b in enumerate(S.basis)]
        try:
            maps.append(f2.check_isometry(S, images))
        except errors.NotIsometry:
            pass
    return maps
