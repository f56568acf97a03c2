"""Del Pezzo root lattices and plain A_n root lattices.

The del Pezzo lattice of rank n (3 <= n <= 8) is the orthogonal complement of
K = 3*E0 - E1 - ... - En inside Z^(n+1) with the Lorentzian form E0^2 = -1,
Ei^2 = 1.  It is even, of discriminant 9 - n, and positive definite by
Sylvester's law of inertia: K.K = n - 9 < 0 takes the form's one negative
sign, so K^perp keeps the n positive ones.  Its vectors of square 2 form a
root system of type A1xA2, A4, D5, E6, E7, E8.  The plain A_n lattice is the
sum-zero sublattice of Euclidean Z^(n+1); it goes through the same machinery
and serves as the counterexample family.

Ambient vectors are plain tuples of ints.  An isometry is stored only by the
permutation p it induces on enumerate_roots(L), a tuple of root indices, in
which groups.gather(p, q) applies q first; the roots span L, so this
represents all of O(L), including elements such as -1 that do not extend to
the ambient lattice fixing K.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import isqrt, prod
from operator import mul

from . import errors, groups, intlinalg

DEL_PEZZO_TYPES = {3: "A1xA2", 4: "A4", 5: "D5", 6: "E6", 7: "E7", 8: "E8"}

# Known root counts per type, used for sanity checks downstream.
ROOT_COUNTS = {"A1xA2": 8, "A4": 20, "D5": 40, "E6": 72, "E7": 126, "E8": 240}


class Lattice(namedtuple("Lattice", "kind n signs K basis gram root_type")):
    """An even positive-definite lattice K^perp inside a diagonal Z^(n+1).

    An immutable value: kind is "delpezzo" or "plain", n the rank, signs the
    diagonal of the ambient form (entries +-1), K the ambient vector cut
    out, basis the n ambient vectors of the canonical kernel basis, gram
    their n x n Gram matrix, and root_type the name of the root system.
    """

    __slots__ = ()

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
    # construction invariants: orthogonal to K, even, right discriminant,
    # positive definite
    if any(lat.dot(b, K) != 0 for b in basis):
        raise errors.CrossCheckFailed(f"{root_type}: a basis vector is not orthogonal to K")
    if any(gram[i][i] % 2 for i in range(n)):
        raise errors.CrossCheckFailed(f"{root_type}: the lattice is not even")
    if intlinalg.abs_det(gram) != expected_disc:
        raise errors.CrossCheckFailed(f"{root_type}: discriminant is not {expected_disc}")
    # Sylvester's law of inertia: if K.K != 0, the ambient space is R K plus
    # K^perp, orthogonally, so K^perp has the negative signs K.K leaves over;
    # K.K = 0 needs a negative sign, so it fails here too
    if signs.count(-1) != (lat.dot(K, K) < 0):
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

    Raises BadInput if v is not in the lattice or an entry is not an int,
    LengthMismatch unless v has the ambient width.
    """
    if len(v) != L.width:
        raise errors.LengthMismatch("ambient vectors must have width n+1")
    if any(type(a) is not int for a in v):
        raise errors.BadInput("ambient vector entries must be ints")
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


# -- roots as points: heights, pairings and the simple roots --------------------

_WEIGHT_BASE = 101  # exceeds twice any root coordinate, so heights are injective


def _height(v):
    return sum(c * _WEIGHT_BASE ** i for i, c in enumerate(v))


@lru_cache(maxsize=None)
def _heights(L):
    """The height of each root, in the order of enumerate_roots(L), and the
    index of the root of each height."""
    heights = tuple(_height(r) for r in enumerate_roots(L))
    return heights, dict(zip(heights, range(len(heights))))


@lru_cache(maxsize=None)
def _simple_indices(L):
    """Indices in enumerate_roots(L) of the indecomposable positive roots for
    a fixed generic height functional.

    A positive root a is a sum of two positive roots iff h(a) - h(b) is the
    height of a positive root for some positive root b, as the height is
    linear and injective on the roots.
    """
    heights = _heights(L)[0]
    positive = {h for h in heights if h > 0}
    simple = [i for i, h in enumerate(heights)
              if h > 0 and positive.isdisjoint(map(h.__sub__, positive))]
    if len(simple) != L.n:
        raise errors.CrossCheckFailed(
            f"{L.root_type}: {len(simple)} simple roots for rank {L.n}")
    return tuple(simple)


def simple_roots(L):
    """Indecomposable positive roots for a fixed generic height functional."""
    roots = enumerate_roots(L)
    return tuple(roots[i] for i in _simple_indices(L))


# -- isometries, as root permutations --------------------------------------------

@lru_cache(maxsize=None)
def _simple_coords(L):
    """Each root's integer coordinates on the simple roots."""
    columns = tuple(zip(*_basis_on_simple(L)))
    return tuple(tuple(sum(map(mul, x, col)) for col in columns)
                 for x in (lattice_coords(L, r) for r in enumerate_roots(L)))


def _solution_perms(L, solutions):
    """Root permutations of the maps sending simple root t to root sol[t],
    one per solution, in order: root r goes to the root of height
    sum_t C[r][t] h(sol[t]), C[r] its coordinates on the simple roots, and
    NotClosed is raised where there is none.  Exact for a map that keeps the
    simple roots' pairings, as each search solution does: its images are
    roots."""
    heights, index = _heights(L)
    coords = _simple_coords(L)
    for sol in solutions:
        images = [heights[s] for s in sol]
        try:
            yield tuple(index[sum(map(mul, c, images))] for c in coords)
        except KeyError:
            raise errors.NotClosed("a root maps outside the root set") from None


def minus_one(L):
    """The root permutation of -1."""
    heights, index = _heights(L)
    return tuple(index[-h] for h in heights)


def root_reflection(L, alpha):
    """The root permutation of the reflection x -> x - <x, alpha> alpha in a
    root alpha."""
    if not is_root(L, alpha):
        raise errors.NotARoot(f"{alpha} is not a root")
    (heights, index), ha = _heights(L), _height(alpha)
    return tuple(index[h - L.dot(r, alpha) * ha]
                 for r, h in zip(enumerate_roots(L), heights))


def check_isometry(L, p):
    """Raise NotIsometry unless p is the root permutation of an isometry of L.

    It is one iff it keeps the pairing of every simple root with every root:
    the simple roots' images then keep their Gram matrix, so they define an
    isometry g, and as the simple roots span L and the form is nondegenerate,
    every p[r] is g(r).  The pairings of a root s are kept iff p maps the
    roots pairing to v with s onto those pairing to v with p[s], for each v.
    """
    rows = _root_pairings(L)[0]
    p = tuple(p)
    if (len(p) != len(rows) or set(map(type, p)) != {int}
            or set(p) != set(range(len(rows)))
            or any(sum(1 << p[r] for r in groups.bit_indices(bits)) != rows[p[s]][v]
                   for s in _simple_indices(L) for v, bits in rows[s].items())):
        raise errors.NotIsometry(
            f"not the root permutation of an isometry of {L.root_type}")


@lru_cache(maxsize=None)
def weyl_generators(L):
    """Reflections in the simple roots; they generate the full Weyl group."""
    return tuple(root_reflection(L, s) for s in simple_roots(L))


# -- full isometry group --------------------------------------------------------

@lru_cache(maxsize=None)
def _root_pairings(L):
    """The search data of the roots: rows[a][v], the bitset of the roots
    pairing to v with root a, the simple roots' indices in
    enumerate_roots(L), and the simple roots' Gram matrix.

    For roots a != +-t, <a, t> = 1 iff a - t is a root and -1 iff a + t is
    one, as every root has square 2.  The height is linear and injective on
    these vectors, so <a, t> = 1 iff h(a) - h(t) is a root's height, and
    the roots pairing to -1 with a pair to 1 with -a.
    """
    heights, index = _heights(L)
    every = (1 << len(heights)) - 1
    ones = [sum(1 << index[h] for h in index.keys() & map(ha.__sub__, heights))
            for ha in heights]
    rows = []
    for a, ha in enumerate(heights):
        neg = index[-ha]
        row = {2: 1 << a, -2: 1 << neg, 1: ones[a], -1: ones[neg]}
        row[0] = every ^ sum(row.values())
        rows.append(row)
    roots, simple = enumerate_roots(L), list(_simple_indices(L))
    return rows, simple, [[L.dot(roots[a], roots[b]) for b in simple] for a in simple]


def _root_search(L, mask):
    """Backtracking over root images of the simple roots in a bitset mask of
    roots, each image a root of the mask.  Returns (order, solutions, gram):
    the product of the level counts, the solutions as tuples of root indices,
    one isometry per realizable candidate that fixes the earlier simple
    roots, and the Gram matrix of those simple roots, the search's target.

    Over every root: any assignment of roots to the simple roots preserving
    all pairwise Gram values extends linearly to an isometry of L, and every
    isometry arises this way.  Level by level, the number of candidates that
    extend to a full solution is the orbit length of that simple root under
    the pointwise stabilizer of the previous ones, so the order is |O(L)|.

    Over a root component c, with span M: a root of L in M pairs nonzero
    with some root of c, so it lies in c, and the norm-2 vectors of M are c.
    A positive root a of c is x + y, sums of simple roots inside and outside
    c; those outside are orthogonal to c, so <y, y> = <a, y> = 0.  So the
    simple roots in c are a basis of M, and as for O(L), every
    Gram-preserving assignment of roots of c to them is one isometry of M.
    """
    rows, simple, gram = _root_pairings(L)
    pos = [i for i, s in enumerate(simple) if mask >> s & 1]
    target = [[gram[i][j] for j in pos] for i in pos]
    counts, solutions = groups.orbit_search(rows, [mask] * len(pos), target,
                                            [simple[i] for i in pos])
    if 0 in counts:
        raise errors.CrossCheckFailed(
            f"{L.root_type}: simple root {counts.index(0)} has no realizable image")
    return prod(counts), solutions, target


@lru_cache(maxsize=None)
def _aut_search(L):
    """_root_search over every root: (|O(L)|, solutions)."""
    return _root_search(L, (1 << len(enumerate_roots(L))) - 1)[:2]


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
    A solution is the images of the simple roots, the chain's known base,
    so it is sifted on them first; only one the chain does not contain is
    turned into a root permutation.  The chain's order is checked against
    the backtracking count.
    """
    order, solutions = _aut_search(L)
    chain = groups.PermGroup([minus_one(L)], len(enumerate_roots(L)),
                             known_base=_simple_indices(L))
    for sol in solutions:
        if not chain.sifts_on_known_base(sol):
            p, = _solution_perms(L, [sol])
            check_isometry(L, p)
            chain.extend(p)
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
    roots, rows = enumerate_roots(L), _root_pairings(L)[0]
    every = (1 << len(roots)) - 1
    comps = set()
    for a in range(len(roots)):
        comp, grown = 0, 1 << a
        while grown != comp:
            comp = grown
            for b in groups.bit_indices(comp):
                grown |= every ^ rows[b][0]     # reflexive: <b, b> = 2
        comps.add(tuple(roots[i] for i in groups.bit_indices(comp)))
    return tuple(sorted(comps, key=lambda c: (len(c), c)))


def component_isometries(L, component):
    """(|O(M)|, Gram matrix of M on its simple roots) for the span M of a
    component of root_components(L): _root_search over its roots."""
    if tuple(component) not in root_components(L):
        raise errors.BadInput("not a root component")
    index = _heights(L)[1]
    order, _, gram = _root_search(L, sum(1 << index[_height(r)] for r in component))
    return order, gram
