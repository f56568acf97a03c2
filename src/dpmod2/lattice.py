"""Del Pezzo root lattices and plain A_n root lattices.

The del Pezzo lattice of rank n (3 <= n <= 8) is the orthogonal complement of
K = 3*E0 - E1 - ... - En inside Z^(n+1) with the Lorentzian form E0^2 = -1,
Ei^2 = 1.  It is even, positive definite, of discriminant 9 - n, and its
vectors of square 2 form a root system of type A1xA2, A4, D5, E6, E7, E8.
The plain A_n lattice is the sum-zero sublattice of Euclidean Z^(n+1); it goes
through the same machinery and serves as the counterexample family.

Ambient vectors are plain tuples of ints.  Isometries are stored by their
integer matrix on the lattice basis; this represents all of O(L), including
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


def from_coords(L, x):
    """Ambient vector with the given basis coordinates."""
    v = [0] * L.width
    for xi, row in zip(x, L.basis):
        if xi:
            v = [a + xi * b for a, b in zip(v, row)]
    return tuple(v)


@lru_cache(maxsize=None)
def _root_table(L):
    """Basis coordinates of the roots (one row each), row -> root index, and
    the largest l1-norm of a row."""
    coords = [lattice_coords(L, r) for r in enumerate_roots(L)]
    index = {x: i for i, x in enumerate(coords)}
    bound = max(sum(abs(c) for c in x) for x in coords)
    return np.array(coords, dtype=np.int64), index, bound


# -- isometries ----------------------------------------------------------------

class LatticeIsometry:
    """Isometry of a lattice, as its integer matrix on the lattice basis.

    Row i holds the basis coordinates of the image of basis vector i, so the
    map acts on coordinate rows by x -> x @ matrix.
    """

    __slots__ = ("lattice", "matrix")

    def __init__(self, lattice, matrix, check=True):
        matrix = tuple(tuple(int(a) for a in row) for row in matrix)
        if check:
            n = lattice.n
            if len(matrix) != n or any(len(r) != n for r in matrix):
                raise errors.NotIsometry("matrix must be n x n")
            G = lattice.gram
            for i in range(n):
                for j in range(i, n):
                    v = sum(matrix[i][a] * G[a][b] * matrix[j][b]
                            for a in range(n) for b in range(n))
                    if v != G[i][j]:
                        raise errors.NotIsometry("matrix does not preserve the Gram form")
            if abs(intlinalg.det(matrix)) != 1:
                raise errors.NotIsometry("matrix is not invertible over Z")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, *a):
        raise AttributeError("LatticeIsometry is immutable")

    @classmethod
    def identity(cls, L):
        return cls(L, tuple(tuple(1 if i == j else 0 for j in range(L.n))
                            for i in range(L.n)), check=False)

    @classmethod
    def minus_identity(cls, L):
        return cls(L, tuple(tuple(-1 if i == j else 0 for j in range(L.n))
                            for i in range(L.n)), check=False)

    def apply_ambient(self, v):
        """Image of an ambient lattice vector."""
        L, M = self.lattice, self.matrix
        x = lattice_coords(L, v)
        return from_coords(L, [sum(a * row[j] for a, row in zip(x, M))
                               for j in range(L.n)])

    def root_permutation(self):
        """Index in enumerate_roots(L) of the image of each root, in order.

        Raises NotClosed if a root maps outside the root set, which only a
        matrix built with check=False can do.
        """
        coords, index, bound = _root_table(self.lattice)
        big = max(abs(a) for row in self.matrix for a in row)
        # int64 is exact while no image coordinate can reach 2**63
        dtype = np.int64 if big * bound < 2 ** 63 else object
        images = (coords.astype(dtype) @ np.array(self.matrix, dtype=dtype)).tolist()
        perm = [index.get(tuple(row)) for row in images]
        if None in perm:
            raise errors.NotClosed("the matrix maps a root outside the root set")
        return perm

    def __mul__(self, other):
        """Composition: (self * other) applies other first."""
        if self.lattice != other.lattice:
            raise errors.NotIsometry("isometries of different lattices")
        A, B = other.matrix, self.matrix
        n = len(A)
        prod = tuple(tuple(sum(A[i][k] * B[k][j] for k in range(n))
                           for j in range(n)) for i in range(n))
        return LatticeIsometry(self.lattice, prod, check=False)

    def is_identity(self):
        return all(self.matrix[i][j] == (1 if i == j else 0)
                   for i in range(len(self.matrix)) for j in range(len(self.matrix)))

    def __eq__(self, other):
        return (isinstance(other, LatticeIsometry)
                and self.lattice == other.lattice and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.lattice, self.matrix))

    def __repr__(self):
        return f"LatticeIsometry({self.lattice.root_type}, {self.matrix})"


def root_reflection(L, alpha):
    """The reflection x -> x - <x, alpha> alpha in a root alpha."""
    if not is_root(L, alpha):
        raise errors.NotARoot(f"{alpha} is not a root")
    return LatticeIsometry(L, [lattice_coords(L, [a - L.dot(b, alpha) * c
                                                  for a, c in zip(b, alpha)])
                               for b in L.basis])


# -- simple roots and generators ----------------------------------------------

_WEIGHT_BASE = 101  # exceeds twice any root coordinate, so heights are injective


def _height(v):
    return sum(c * _WEIGHT_BASE ** i for i, c in enumerate(v))


@lru_cache(maxsize=None)
def simple_roots(L):
    """Indecomposable positive roots for a fixed generic height functional."""
    roots = enumerate_roots(L)
    pos = [r for r in roots if _height(r) > 0]
    posset = set(pos)
    simple = []
    for a in pos:
        if not any(b != a and tuple(x - y for x, y in zip(a, b)) in posset
                   for b in pos):
            simple.append(a)
    if len(simple) != L.n:
        raise errors.CrossCheckFailed(
            f"{L.root_type}: {len(simple)} simple roots for rank {L.n}")
    return tuple(simple)


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
    rmat = np.array(enumerate_roots(L), dtype=np.int64)
    table = rmat * np.array(L.signs, dtype=np.int64) @ rmat.T
    index = {r: i for i, r in enumerate(enumerate_roots(L))}
    simple = [index[s] for s in simple_roots(L)]
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


def _from_simple_images(L, images):
    """The map sending simple root t to root images[t] (indices into
    enumerate_roots(L)), unchecked: an isometry when the images keep the
    simple roots' pairings."""
    on_simple = np.array(_basis_on_simple(L), dtype=np.int64)
    coords = _root_table(L)[0]
    return LatticeIsometry(L, (on_simple @ coords[list(images)]).tolist(), check=False)


def automorphism_order(L):
    """|O(L)| by exhaustive backtracking, independent of the chain engine."""
    return _aut_search(L)[0]


@lru_cache(maxsize=None)
def automorphism_chain(L):
    """The stabilizer chain of O(L) on the roots, and the isometries behind it.

    The backtracking search yields one isometry per stabilizer-orbit element,
    which together generate O(L); only those that grow the chain are kept,
    with -1 first, so the chain's generators are the kept isometries' root
    permutations in order.  The chain order is checked against the
    backtracking count.
    """
    order, solutions = _aut_search(L)
    minus = LatticeIsometry.minus_identity(L)
    chain = groups.PermGroup([minus.root_permutation()], len(enumerate_roots(L)))
    kept = [minus]
    for sol in solutions:
        u = _from_simple_images(L, sol)
        if chain.extend(u.root_permutation()):
            kept.append(LatticeIsometry(L, u.matrix))
    if chain.order() != order:
        raise errors.CrossCheckFailed(
            f"{L.root_type}: stabilizer chain order {chain.order()} differs "
            f"from the backtracking count {order}")
    return chain, tuple(kept)


def automorphism_group(L):
    """Generators of the full isometry group O(L); the first one is -1."""
    return automorphism_chain(L)[1]


# -- decomposition helpers (used for the n=3 analysis) ---------------------------

def root_components(L):
    """Connected components of the root set under nonzero pairing, sorted."""
    roots = enumerate_roots(L)
    parent = list(range(len(roots)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if L.dot(roots[i], roots[j]) != 0:
                parent[find(i)] = find(j)
    comps = {}
    for i, r in enumerate(roots):
        comps.setdefault(find(i), []).append(r)
    return tuple(sorted((tuple(sorted(c)) for c in comps.values()),
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
