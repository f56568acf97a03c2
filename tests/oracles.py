"""Brute-force oracles, independent of the package's searches and chains;
the determinant by rational elimination; the mod-2 chain built the plain
way, from every map's permutation; the isometry search without pruning and
the eager completions it was first written with; the isometry check on every pairing of the simple roots; the root pairing
rows by one height scan per root and the reflections by one pairing per
root; and a reader for the reports' JSON form."""

from fractions import Fraction

import pytest

from dpmod2 import errors, f2, groups, lattice
from dpmod2.bridge import VerificationReport
from dpmod2.groups import PermGroup, _bit_indices, completions


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
    """The stabilizer chain of linear maps of S on the coordinate bits of its
    vectors, built by turning every map into its permutation and extending
    by each one: every map is checked and sifted in full."""
    return PermGroup([f2.permutation(S, m) for m in maps], 2 ** S.dim,
                     known_base=[1 << i for i in range(S.dim)])


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


def completions_eager(rows, masks, target, images, keep=None):
    """groups.completions as first written: the candidates of the position
    filled next listed in full by _bit_indices, then tried in ascending
    order."""
    open_pos = [t for t, p in enumerate(images) if p < 0]
    if not open_pos:
        yield tuple(images)
        return
    t = min(open_pos, key=lambda s: masks[s].bit_count())
    for r in _bit_indices(masks[t]):
        row = rows[r]
        narrowed = [m & row.get(target[t][s], 0) for s, m in enumerate(masks)]
        images[t] = r
        if all(narrowed[s] for s in open_pos) and (keep is None or keep(images)):
            yield from completions_eager(rows, narrowed, target, images, keep)
        images[t] = -1


def orbit_search_unpruned(rows, allowed, target, base, act=None, keep=None):
    """groups.orbit_search without pruning (act is ignored): a fresh
    completions search for every candidate at every level.  Returns
    (level_counts, solutions), the solutions level by level, one for each
    candidate that completes."""
    images, masks = [-1] * len(base), list(allowed)
    counts, solutions = [], []
    for level, b in enumerate(base):
        found = []
        for r in _bit_indices(masks[level]):
            trial = list(masks)
            trial[level] = 1 << r
            sol = next(completions(rows, trial, target, list(images), keep), None)
            if sol is not None:
                found.append(sol)
        counts.append(len(found))
        solutions.append(tuple(found))
        images[level] = b
        masks = [m & rows[b].get(target[level][s], 0) for s, m in enumerate(masks)]
    return tuple(counts), tuple(solutions)


def searches(run, search=groups.orbit_search):
    """The (level_counts, solutions) of each groups.orbit_search that run()
    makes, with search run in its place."""
    found = []

    def spy(*args, **kwargs):
        found.append(search(*args, **kwargs))
        return found[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(groups, "orbit_search", spy)
        run()
    return found


def check_isometry_pairings(L, p):
    """Raise NotIsometry unless the permutation p of the roots keeps the
    pairing of every simple root with every root: p must map the roots
    pairing to v with s onto those pairing to v with p[s], for each v."""
    rows, count = lattice._root_pairings(L)[0], len(lattice.enumerate_roots(L))
    p = tuple(p)
    if (len(p) != count or set(map(type, p)) != {int}
            or set(p) != set(range(count))
            or any(sum(1 << p[r] for r in _bit_indices(bits)) != rows[p[s]][v]
                   for s in lattice._simple_indices(L) for v, bits in rows[s].items())):
        raise errors.NotIsometry("not the root permutation of an isometry")


def root_pairings_by_heights(L):
    """lattice._root_pairings with every row scanned: <a, b> = 1 iff
    h(a) - h(b) is a root's height, and the roots pairing to -1 with a pair
    to 1 with -a."""
    heights, index = lattice._heights(L)
    every = (1 << len(heights)) - 1
    ones = [sum(1 << index[h] for h in index.keys() & map(ha.__sub__, heights))
            for ha in heights]
    rows = []
    for a, ha in enumerate(heights):
        neg = index[-ha]
        row = {2: 1 << a, -2: 1 << neg, 1: ones[a], -1: ones[neg]}
        row[0] = every ^ sum(row.values())
        rows.append(row)
    roots, simple = lattice.enumerate_roots(L), list(lattice._simple_indices(L))
    return rows, simple, [[L.dot(roots[a], roots[b]) for b in simple] for a in simple]


def root_reflection_by_dots(L, alpha):
    """lattice.root_reflection with one ambient pairing per root: root r
    goes to the root of height h(r) - <r, alpha> h(alpha)."""
    (heights, index), ha = lattice._heights(L), lattice._height(alpha)
    return tuple(index[h - L.dot(r, alpha) * ha]
                 for r, h in zip(lattice.enumerate_roots(L), heights))
