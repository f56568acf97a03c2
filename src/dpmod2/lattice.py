"""Del Pezzo root lattices and plain A_n root lattices.

The del Pezzo lattice of rank n (3 <= n <= 8) is the orthogonal complement of
K = 3*E0 - E1 - ... - En inside Z^(n+1) with the Lorentzian form E0^2 = -1,
Ei^2 = 1.  It is even, positive definite, of discriminant 9 - n, and its
vectors of square 2 form a root system of type A1xA2, A4, D5, E6, E7, E8.
The plain A_n lattice is the sum-zero sublattice of Euclidean Z^(n+1); it goes
through the same machinery and serves as the counterexample family.

Ambient vectors are plain tuples of ints.  An isometry is stored only by the
permutation p it induces on enumerate_roots(L), an int32 array in which p[q]
applies q first; the roots span L, so this represents all of O(L), including
elements such as -1 that do not extend to the ambient lattice fixing K.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, prod

import numpy as np

from . import errors, groups, intlinalg

DEL_PEZZO_TYPES = {3: "A1xA2", 4: "A4", 5: "D5", 6: "E6", 7: "E7", 8: "E8"}

# Known root counts per type, used for sanity checks downstream.
ROOT_COUNTS = {"A1xA2": 8, "A4": 20, "D5": 40, "E6": 72, "E7": 126, "E8": 240}


@dataclass(frozen=True)
class Lattice:
    """An even positive-definite lattice K^perp inside a diagonal Z^(n+1)."""

    kind: str                 # "delpezzo" | "plain"
    n: int                    # rank
    signs: tuple              # diagonal of the ambient form, entries +-1
    K: tuple                  # ambient vector cut out
    basis: tuple              # n ambient vectors: canonical kernel basis
    gram: tuple               # n x n Gram matrix of the basis
    root_type: str

    @property
    def width(self):
        return len(self.K)

    def dot(self, v, w):
        """Ambient bilinear form of this lattice's model."""
        if len(v) != self.width or len(w) != self.width:
            raise errors.LengthMismatch("ambient vectors must have width n+1")
        return sum(s * a * b for s, a, b in zip(self.signs, v, w))

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "n": self.n,
            "root_type": self.root_type,
            "K": list(self.K),
            "basis": [list(b) for b in self.basis],
            "gram": [list(row) for row in self.gram],
        }


def _build(kind, n, signs, K, expected_disc, root_type):
    coeffs = tuple(s * k for s, k in zip(signs, K))
    basis = tuple(intlinalg.kernel_basis(coeffs))
    gram = tuple(
        tuple(sum(s * a * b for s, a, b in zip(signs, u, v)) for v in basis)
        for u in basis)
    lat = Lattice(kind, n, signs, K, basis, gram, root_type)
    # construction invariants: orthogonal to K, even, right discriminant
    if any(lat.dot(b, K) != 0 for b in basis):
        raise errors.CrossCheckFailed(f"{root_type}: a basis vector is not orthogonal to K")
    if any(gram[i][i] % 2 for i in range(n)):
        raise errors.CrossCheckFailed(f"{root_type}: the lattice is not even")
    if abs(intlinalg.det(gram)) != expected_disc:
        raise errors.CrossCheckFailed(f"{root_type}: discriminant is not {expected_disc}")
    if not intlinalg.is_positive_definite(gram):
        raise errors.CrossCheckFailed(f"{root_type}: the form is not positive definite")
    return lat


@lru_cache(maxsize=None)
def build_del_pezzo(n):
    """The rank-n del Pezzo lattice, with its canonical basis of K^perp."""
    if not 3 <= n <= 8:
        raise errors.OutOfRange(f"n must be in [3, 8], got {n}")
    signs = (-1,) + (1,) * n
    K = (3,) + (-1,) * n
    return _build("delpezzo", n, signs, K, 9 - n, DEL_PEZZO_TYPES[n])


@lru_cache(maxsize=None)
def build_plain_root_lattice(rank):
    """The A_rank lattice: sum-zero vectors of Euclidean Z^(rank+1)."""
    if not 2 <= rank <= 10:
        raise errors.OutOfRange(f"rank must be in [2, 10], got {rank}")
    signs = (1,) * (rank + 1)
    K = (1,) * (rank + 1)
    return _build("plain", rank, signs, K, rank + 1, f"A{rank}")


# -- roots -------------------------------------------------------------------

def _bounded_vectors(count, sum_target, sq_target):
    """Integer tuples of given length, coordinate sum, and sum of squares."""
    out = []
    vec = []

    def rec(i, s, q):
        if i == count:
            if s == 0 and q == 0:
                out.append(tuple(vec))
            return
        r = count - i
        # Cauchy-Schwarz and parity pruning; x^2 == x mod 2 coordinatewise.
        if (q - s) % 2 or s * s > q * r:
            return
        b = isqrt(q)
        for x in range(-b, b + 1):
            vec.append(x)
            rec(i + 1, s - x, q - x * x)
            vec.pop()

    rec(0, sum_target, sq_target)
    return out


@lru_cache(maxsize=None)
def enumerate_roots(L):
    """All ambient vectors with <v,v> = 2 and <v,K> = 0, sorted.

    The enumeration box is exact: for the del Pezzo form, <v,K> = 0 forces
    v0^2 * (9-n) <= 2n by Cauchy-Schwarz, and then each remaining coordinate
    is bounded by the square budget 2 + v0^2.
    """
    n = L.n
    roots = []
    if L.kind == "delpezzo":
        for v0 in range(-4, 5):
            if v0 * v0 * (9 - n) > 2 * n:
                continue
            for rest in _bounded_vectors(n, -3 * v0, 2 + v0 * v0):
                roots.append((v0, *rest))
    else:
        roots = _bounded_vectors(n + 1, 0, 2)
    roots = tuple(sorted(roots))
    if not all(L.dot(v, v) == 2 and L.dot(v, L.K) == 0 for v in roots):
        raise errors.CrossCheckFailed(f"{L.root_type}: an enumerated vector is not a root")
    return roots


def is_root(L, v):
    return (len(v) == L.width and all(isinstance(c, int) for c in v)
            and L.dot(v, v) == 2 and L.dot(v, L.K) == 0)


# -- coordinates on the canonical basis ---------------------------------------

@lru_cache(maxsize=None)
def _pivot_plan(L):
    """Basis rows ordered by pivot column (the basis is HNF up to row order)."""
    plan = []
    for i, row in enumerate(L.basis):
        c = next(j for j, x in enumerate(row) if x)
        plan.append((c, i, row))
    plan.sort()
    return tuple(plan)


def lattice_coords(L, v):
    """Integer coordinates of an ambient lattice vector on L.basis.

    Raises BadInput if v is not in the lattice.
    """
    rem = list(v)
    x = [0] * L.n
    for c, i, row in _pivot_plan(L):
        q, r = divmod(rem[c], row[c])
        if r:
            raise errors.BadInput("vector is not in the lattice")
        x[i] = q
        if q:
            rem = [a - q * b for a, b in zip(rem, row)]
    if any(rem):
        raise errors.BadInput("vector is not in the lattice")
    return tuple(x)


# -- roots as points: the pairing table and the simple roots --------------------

@lru_cache(maxsize=None)
def _pairing_table(L):
    """The pairings of all roots, in the order of enumerate_roots(L)."""
    rmat = np.array(enumerate_roots(L), dtype=np.int64)
    return (rmat * np.array(L.signs, dtype=np.int64) @ rmat.T).astype(np.int8)


_WEIGHT_BASE = 101  # exceeds twice any root coordinate, so heights are injective


def _height(v):
    return sum(c * _WEIGHT_BASE ** i for i, c in enumerate(v))


@lru_cache(maxsize=None)
def _simple_indices(L):
    """Indices in enumerate_roots(L) of the indecomposable positive roots for
    a fixed generic height functional.

    A positive root a is a sum of two positive roots iff some positive root b
    of lower height has <a, b> = 1: a - b is a root iff <a, b> = 1, and it is
    positive iff b is lower, since the height is linear.  Heights are Python
    ints: 101**10 exceeds int64.
    """
    heights = [_height(r) for r in enumerate_roots(L)]
    pos = sorted((i for i, h in enumerate(heights) if h > 0), key=heights.__getitem__)
    # row a, column b < a of the positive block in ascending height
    lower = np.tril(_pairing_table(L)[np.ix_(pos, pos)] == 1, -1).any(axis=1)
    simple = sorted(i for i, low in zip(pos, lower.tolist()) if not low)
    if len(simple) != L.n:
        raise errors.CrossCheckFailed(
            f"{L.root_type}: {len(simple)} simple roots for rank {L.n}")
    return tuple(simple)


def simple_roots(L):
    """Indecomposable positive roots for a fixed generic height functional."""
    roots = enumerate_roots(L)
    return tuple(roots[i] for i in _simple_indices(L))


# -- isometries, as root permutations --------------------------------------------
#
# Maps are computed on C, the roots' coordinates on the simple roots, and
# read back by _to_roots.

@lru_cache(maxsize=None)
def _root_coords(L):
    """(C, m, weights, the sorted keys of C's rows, the root of each).  A
    row's key is its base-(2m+1) number after clipping to C's range [-m, m],
    so rows in range have distinct keys."""
    coords = np.array([lattice_coords(L, r) for r in enumerate_roots(L)],
                      dtype=np.int64)
    C = coords @ np.array(_basis_on_simple(L), dtype=np.int64)
    m = int(abs(C).max())
    weights = (2 * m + 1) ** np.arange(L.n, dtype=np.int64)
    keys = (C + m) @ weights
    order = np.argsort(keys).astype(np.int32)
    return C, m, weights, keys[order], order


def _to_roots(L, rows):
    """Root indices of coordinate rows on the simple roots, of any leading
    shape, as a read-only int32 array; raises NotClosed unless every row is a
    root's."""
    C, m, weights, keys, order = _root_coords(L)
    at = np.searchsorted(keys, (np.clip(rows, -m, m) + m) @ weights)
    found = order[np.minimum(at, len(keys) - 1)]
    if not np.array_equal(C[found], rows):
        raise errors.NotClosed("a root maps outside the root set")
    found.flags.writeable = False
    return found


def _solution_perms(L, solutions):
    """Root permutations of the maps sending simple root t to root sol[t],
    one per solution, in order: root r goes to the row C[r] @ C[sol].  The
    rows are built for 16 solutions at a time: all 418 E8 solutions at once
    would take about 13 MB of temporary arrays."""
    C = _root_coords(L)[0]
    sols = np.array(solutions, dtype=np.intp).reshape(-1, L.n)
    for i in range(0, len(sols), 16):
        yield from _to_roots(L, C @ C[sols[i:i + 16]])


def minus_one(L):
    """The root permutation of -1."""
    return _to_roots(L, -_root_coords(L)[0])


def root_reflection(L, alpha):
    """The root permutation of the reflection x -> x - <x, alpha> alpha in a
    root alpha."""
    if not is_root(L, alpha):
        raise errors.NotARoot(f"{alpha} is not a root")
    a = enumerate_roots(L).index(tuple(alpha))
    C = _root_coords(L)[0]
    return _to_roots(L, C - _pairing_table(L)[:, a, None] * C[a])


def check_isometry(L, p):
    """Raise NotIsometry unless p is the root permutation of an isometry of L.

    It is one iff it keeps the pairing of every simple root with every root:
    the simple roots' images then keep their Gram matrix, so they define an
    isometry g, and as the simple roots span L and the form is nondegenerate,
    every p[r] is g(r).
    """
    table, simple = _pairing_table(L), list(_simple_indices(L))
    p = np.asarray(p)
    if (p.shape != (len(table),) or not np.issubdtype(p.dtype, np.integer)
            or ((p < 0) | (p >= len(table))).any()
            or not np.array_equal(table[np.ix_(p[simple], p)], table[simple])):
        raise errors.NotIsometry(
            f"not the root permutation of an isometry of {L.root_type}")


@lru_cache(maxsize=None)
def weyl_generators(L):
    """Reflections in the simple roots; they generate the full Weyl group."""
    return tuple(root_reflection(L, s) for s in simple_roots(L))


# -- full isometry group --------------------------------------------------------

@lru_cache(maxsize=None)
def _root_pairings(L):
    """The search data of the roots: groups.pairing_rows of their pairing
    table, the simple roots' indices in enumerate_roots(L), and the simple
    roots' Gram matrix."""
    table, simple = _pairing_table(L), list(_simple_indices(L))
    return (groups.pairing_rows(table), simple,
            table[np.ix_(simple, simple)].tolist())


@lru_cache(maxsize=None)
def _aut_search(L):
    """Backtracking over root images of the simple roots.

    Any assignment of roots to the simple roots preserving all pairwise Gram
    values extends linearly to an isometry of L, and every isometry arises
    this way.  Level by level, the number of candidates that extend to a full
    solution is the orbit length of that simple root under the pointwise
    stabilizer of the previous ones, so the product of the counts is |O(L)|.

    Returns (order, solutions); each solution is a tuple of root indices, one
    isometry per realizable candidate that fixes the earlier simple roots.
    """
    rows, simple, gram = _root_pairings(L)
    every = (1 << len(rows)) - 1
    counts, solutions = groups.orbit_search(rows, [every] * len(simple), gram,
                                            simple)
    if 0 in counts:
        raise errors.CrossCheckFailed(
            f"{L.root_type}: simple root {counts.index(0)} has no realizable image")
    return prod(counts), solutions


@lru_cache(maxsize=None)
def _basis_on_simple(L):
    """Integer coordinates of the canonical basis on the simple roots.

    With S the simple roots' coordinates on the basis, these are the rows of
    S^-1.  The HNF of [S | I] is [I | S^-1] exactly when S is unimodular, i.e.
    when the simple roots span the lattice.
    """
    n = L.n
    eye = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    hnf = intlinalg.hermite_normal_form(
        [lattice_coords(L, s) + e for s, e in zip(simple_roots(L), eye)])
    if [row[:n] for row in hnf] != eye:
        raise errors.CrossCheckFailed(
            f"{L.root_type}: the simple roots do not span the lattice")
    return tuple(row[n:] for row in hnf)


def automorphism_order(L):
    """|O(L)| by exhaustive backtracking, independent of the chain engine."""
    return _aut_search(L)[0]


@lru_cache(maxsize=None)
def automorphism_chain(L):
    """The stabilizer chain of O(L) on the roots.

    The backtracking search yields one isometry per stabilizer-orbit element,
    which together generate O(L); the chain starts from -1 and records, as
    its generators, only those that grow it, each checked to be an isometry.
    Its order is checked against the backtracking count.
    """
    order, solutions = _aut_search(L)
    chain = groups.PermGroup([minus_one(L)], len(enumerate_roots(L)))
    for p in _solution_perms(L, solutions):
        if chain.extend(p):
            check_isometry(L, p)
    if chain.order() != order:
        raise errors.CrossCheckFailed(
            f"{L.root_type}: stabilizer chain order {chain.order()} differs "
            f"from the backtracking count {order}")
    return chain


def automorphism_group(L):
    """Root permutations generating the full isometry group O(L); the first
    one is -1."""
    return tuple(automorphism_chain(L).generators)


# -- decomposition helpers (used for the n=3 analysis) ---------------------------

def root_components(L):
    """Connected components of the root set under nonzero pairing, sorted."""
    roots = enumerate_roots(L)
    linked = _pairing_table(L) != 0     # reflexive: <r, r> = 2
    while not np.array_equal(linked, grown := linked @ linked):
        linked = grown
    comps = {tuple(np.nonzero(row)[0].tolist()) for row in linked}
    return tuple(sorted((tuple(roots[i] for i in c) for c in comps),
                        key=lambda c: (len(c), c)))


def sublattice_gram(L, vectors):
    """Gram matrix of the sublattice spanned by the given ambient vectors."""
    rows = intlinalg.hermite_normal_form(vectors)
    return tuple(tuple(L.dot(u, v) for v in rows) for u in rows)


def gram_isometry_count(gram):
    """|O| of a small positive-definite lattice given by its Gram matrix G.

    An isometry is fixed by its basis images: lattice vectors with the basis
    vectors' squares and pairings.  Conversely, images with Gram matrix G
    have det(M)^2 = 1, so they define an isometry; groups.orbit_search counts
    them.  The coordinate box is the exact Fincke-Pohst bound: a vector x of
    square at most s has x_i^2 <= s * (G^-1)_ii, where (G^-1)_ii is the minor
    of G without row and column i over det G.  Intended for rank <= 3.
    """
    n = len(gram)
    squares = [gram[i][i] for i in range(n)]
    d = intlinalg.det(gram)
    bounds = [isqrt(max(squares) * intlinalg.det(
        [row[:i] + row[i + 1:] for j, row in enumerate(gram) if j != i]) // d)
        for i in range(n)]

    def form(x, y):
        return sum(a * g * b for a, row in zip(x, gram) for g, b in zip(row, y))

    vecs = [x for x in itertools.product(*(range(-b, b + 1) for b in bounds))
            if form(x, x) in squares]
    allowed = [sum(1 << p for p, x in enumerate(vecs) if form(x, x) == s)
               for s in squares]
    base = [vecs.index(tuple(int(i == j) for j in range(n))) for i in range(n)]
    rows = groups.pairing_rows([[form(x, y) for y in vecs] for x in vecs])
    return prod(groups.orbit_search(rows, allowed, gram, base)[0])
