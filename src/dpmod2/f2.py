"""Mod-2 quadratic spaces of even lattices.

The reduction L/2L of an even lattice carries the bilinear form (x|y) =
<x,y> mod 2 and the quadratic form q(x) = <x,x>/2 mod 2, linked by the
polarization rule q(x+y) = q(x) + q(y) + (x|y).

Vectors are int bitmasks.  A space is its basis masks, q on the basis and
the Gram matrix mod 2 of the basis; the pairing of two vectors is read from
their basis coordinates.  In the canonical *ambient* model the bits index
the ambient coordinates e_0..e_n, where the pairing is also the parity of
the AND popcount (reduce() checks this); a lattice of rank n reduces to the
n-dimensional subspace of even-popcount masks.  The *intrinsic* model
(space_from_gram) uses the basis coordinates as masks; coords()/from_coords()
convert between a mask and its basis coordinates in either model.

A linear self-map of a space is the tuple of its basis images.
check_symplectic/check_isometry validate one and return it, apply and
compose evaluate it, and permutation gives the index map it induces on
nonzero_vectors(), the form the stabilizer chains take.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from . import errors, groups


def _parity(x):
    return x.bit_count() & 1


class F2QuadraticSpace:
    """A subspace of F2^width given by its basis masks, q on the basis and
    the pairing on the basis (gram2, entries taken mod 2)."""

    __slots__ = ("width", "basis", "qdiag", "ambient_k", "gram2",
                 "_coords", "_q", "_polar", "_point_coords", "_position")

    def __init__(self, width, basis, qdiag, gram2, ambient_k=None):
        basis, qdiag, gram2 = tuple(basis), tuple(qdiag), tuple(map(tuple, gram2))
        for v in (width, *basis, *qdiag, *(x for row in gram2 for x in row)):
            self._int(v, "width, mask, qdiag or gram2 entry")
        if len(qdiag) != len(basis):
            raise errors.BadInput("need one qdiag entry per basis mask")
        self.width = width
        self.basis = basis
        self.qdiag = tuple(q & 1 for q in qdiag)
        self.gram2 = tuple(tuple(x & 1 for x in row) for row in gram2)
        self.ambient_k = ambient_k
        if self.width < 0 or any(not 0 < b < 1 << self.width for b in self.basis):
            raise errors.BadInput("basis masks must lie in [1, 2**width)")
        g, n = self.gram2, len(self.basis)
        if (len(g) != n or any(len(row) != n or row[i] for i, row in enumerate(g))
                or any(g[i][j] != g[j][i] for i in range(n) for j in range(i))):
            raise errors.BadInput("gram2 must be an alternating dim x dim matrix")
        # span tables: mask -> basis coordinates, mask -> q value, and
        # mask -> polar bits (the basis vectors it pairs to 1 with)
        coords = {0: 0}
        qtab = {0: 0}
        polar = {0: 0}
        for i, (b, qb, row) in enumerate(zip(self.basis, self.qdiag, self.gram2)):
            if b in coords:
                raise errors.BadInput("basis masks are linearly dependent")
            rbits = sum(x << j for j, x in enumerate(row))
            for m in list(coords):
                nm = m ^ b
                coords[nm] = coords[m] | (1 << i)
                qtab[nm] = qtab[m] ^ qb ^ (polar[m] >> i & 1)
                polar[nm] = polar[m] ^ rbits
        self._coords = coords
        self._q = qtab
        self._polar = polar
        # coordinate bits of the sorted nonzero vectors, and the position
        # among them of the vector with each coordinate bits (-1 for 0)
        pc = self._point_coords = tuple(coords[v] for v in sorted(qtab)[1:])
        self._position = [-1] + sorted(range(len(pc)), key=pc.__getitem__)

    @property
    def dim(self):
        return len(self.basis)

    @staticmethod
    def _int(v, what):
        if isinstance(v, bool) or not isinstance(v, int):
            raise errors.BadInput(f"{what} {v!r} is not an int")
        return int(v)

    def _lookup(self, table, v):
        try:
            return table[self._int(v, "mask")]
        except KeyError:
            raise errors.NotInSpace(f"mask {v!r} is not in the space") from None

    def pair(self, u, v):
        """The bilinear form of two space vectors."""
        return _parity(self._lookup(self._polar, u) & self._lookup(self._coords, v))

    def contains(self, v):
        return self._int(v, "mask") in self._q

    def q(self, v):
        """q(v); raises NotInSpace for masks outside the space."""
        return self._lookup(self._q, v)

    def coords(self, v):
        """Basis coordinate bits of a space vector."""
        return self._lookup(self._coords, v)

    def from_coords(self, bits):
        bits = self._int(bits, "coordinate bits")
        if not 0 <= bits < 1 << self.dim:
            raise errors.BadInput(f"coordinate bits {bits} out of range "
                                  f"for dimension {self.dim}")
        m = 0
        for i in groups.bit_indices(bits):
            m ^= self.basis[i]
        return m

    def vectors(self):
        """All space vectors, sorted (deterministic)."""
        return sorted(self._q)

    def nonzero_vectors(self):
        return [v for v in sorted(self._q) if v]

    def to_json_dict(self):
        return {
            "width": self.width,
            "dim": self.dim,
            "basis": list(self.basis),
            "qdiag": list(self.qdiag),
            "bilinear": [list(row) for row in self.gram2],
        }


@lru_cache(maxsize=None)
def reduce(L):
    """The mod-2 quadratic space of an even lattice, in the ambient model.

    Basis masks are the reductions of the lattice basis; q on a basis vector
    is half its self-pairing mod 2, and the whole form follows by
    polarization.  The space is exactly the orthogonal complement of
    k = K mod 2 (the even-popcount masks, for both lattice families).
    """
    width = L.width
    basis = tuple(_mask(row) for row in L.basis)
    qdiag = tuple((L.gram[i][i] // 2) & 1 for i in range(L.n))
    k = (1 << width) - 1  # K has all coordinates odd in both families
    if _mask(L.K) != k:
        raise errors.CrossCheckFailed("K mod 2 is not the all-ones mask")
    S = F2QuadraticSpace(width, basis, qdiag, L.gram, ambient_k=k)
    if any(_parity(a & b) != g for a, row in zip(basis, S.gram2)
           for b, g in zip(basis, row)):
        raise errors.CrossCheckFailed(
            "the ambient pairing disagrees with the Gram matrix mod 2")
    return S


def _mask(vec):
    m = 0
    for i, c in enumerate(vec):
        if c & 1:
            m |= 1 << i
    return m


def space_from_gram(gram):
    """Intrinsic model: masks are coordinate vectors over the lattice basis."""
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise errors.BadInput("the Gram matrix must be square")
    if any(gram[i][i] % 2 for i in range(n)):
        raise errors.BadInput("the lattice must be even")
    basis = tuple(1 << i for i in range(n))
    return F2QuadraticSpace(n, basis, tuple(gram[i][i] // 2 for i in range(n)), gram)


def radical(S):
    """All vectors pairing to zero with the whole space (includes 0)."""
    return [v for v in S.vectors() if not S._polar[v]]


def value_census(S):
    """(count of q=0 vectors, count of q=1 vectors), exhaustively."""
    ones = sum(S._q.values())
    return (len(S._q) - ones, ones)


def symplectic_basis(S):
    """A symplectic basis by greedy hyperbolic-pair extraction (deterministic).

    Returns the tuple of hyperbolic pairs (x_i, y_i): (x_i|y_j) = [i==j], all
    other pairings 0.
    """
    if radical(S) != [0]:
        raise errors.DegenerateForm("the pairing has a nontrivial radical")
    work = list(S.basis)
    pairs = []
    while work:
        x = work.pop(0)
        j = next(i for i, w in enumerate(work) if S.pair(x, w))
        y = work.pop(j)
        fixed = []
        for w in work:
            if S.pair(w, y):
                w ^= x
            if S.pair(w, x):
                w ^= y
            fixed.append(w)
        work = fixed
        pairs.append((x, y))
    return tuple(pairs)


def arf(S):
    """The Arf invariant: sum of q(x)q(y) over a symplectic basis.

    Equals the value q takes on the majority of vectors: CrossCheckFailed
    is raised unless the census has count_q1 = 2^(m-1) * (2^m - (-1)^arf),
    where dim = 2m.
    """
    value = sum(S.q(x) & S.q(y) for x, y in symplectic_basis(S)) & 1
    m, census = S.dim // 2, value_census(S)
    if 2 * census[1] != 2 ** m * (2 ** m - (-1) ** value):
        raise errors.CrossCheckFailed(
            f"Arf invariant {value} disagrees with the census {census}")
    return value


# -- linear maps ----------------------------------------------------------------

def _independent(bits):
    """Whether the coordinate bit vectors are linearly independent, by
    elimination."""
    rows = {}  # leading bit -> reduced row
    for c in bits:
        while c.bit_length() in rows:
            c ^= rows[c.bit_length()]
        if not c:
            return False
        rows[c.bit_length()] = c
    return True


def _basis_images(S, images):
    """One int space vector per basis vector, as a tuple; NotIsometry
    otherwise."""
    images = tuple(images)
    if len(images) != S.dim:
        raise errors.NotIsometry("need one image per basis vector")
    if any(type(m) is not int or m not in S._coords for m in images):
        raise errors.NotIsometry("image outside the space or not an int mask")
    return images


def check_symplectic(S, images):
    """The images of S's basis under an invertible linear self-map that
    keeps the pairing, as a tuple; raises NotIsometry for anything else."""
    images = _basis_images(S, images)
    if not _independent(S._coords[m] for m in images):
        raise errors.NotIsometry("images are linearly dependent")
    if any(S.pair(images[i], images[j]) != S.gram2[i][j]
           for i in range(S.dim) for j in range(i + 1, S.dim)):
        raise errors.NotIsometry("the pairing is not preserved")
    return images


def check_isometry(S, images):
    """check_symplectic plus q on the basis images, which gives q everywhere
    by polarization (in characteristic 2 the polar form of q is alternating,
    so O(q) lies inside Sp)."""
    images = check_symplectic(S, images)
    if any(S.q(m) != qb for m, qb in zip(images, S.qdiag)):
        raise errors.NotIsometry("q is not preserved")
    return images


def apply(S, images, v):
    """The image of a space vector under the map with these basis images."""
    m = 0
    for i in groups.bit_indices(S.coords(v)):
        m ^= images[i]
    return m


def compose(S, a, b):
    """The basis images of a after b."""
    return tuple(apply(S, a, m) for m in b)


def permutation(S, images):
    """Position in S.nonzero_vectors() of the image of each of them.

    The images of the whole span are built by doubling over the basis
    images: entry c holds the coordinate bits of the image of the vector
    with coordinate bits c.  Returns a tuple of ints, gathered from S's
    position table.  Raises NotIsometry unless there is one image per basis
    vector, each in S, and the images are linearly independent.
    """
    images = _basis_images(S, images)
    if not _independent(S._coords[m] for m in images):
        raise errors.NotIsometry("images are linearly dependent")
    span = [0]
    for m in images:
        c = S._coords[m]
        span += [x ^ c for x in span]
    return groups.gather(S._position, groups.gather(span, S._point_coords))


def transvection(S, v):
    """The basis images of the symplectic transvection x -> x + (x|v)v (no
    q constraint)."""
    if not S.contains(v) or v == 0:
        raise errors.BadVector("transvection vector must be a nonzero space vector")
    pv = S._polar[v]
    return tuple(b ^ (v if pv >> i & 1 else 0) for i, b in enumerate(S.basis))


def f2_reflection(S, v):
    """The reflection x -> x + (x|v)v for a vector with q(v) = 1.

    An involutive isometry of (S, q); it is the identity exactly when v lies
    in the radical.
    """
    if S.q(v) != 1:
        raise errors.BadVector(f"q(v) must be 1, got {S.q(v)}")
    return transvection(S, v)


def orthogonal_generators(S):
    """All reflections r_v with q(v) = 1; they generate the isometry group."""
    return tuple(f2_reflection(S, v) for v in S.vectors() if S.q(v) == 1)


@lru_cache(maxsize=None)
def isometry_order(S):
    """|O(S, q)| by groups.orbit_search over the basis images, independent
    of the reflections and the chains.

    Basis vector i goes to a vector with q = qdiag[i] and gram2's pairings
    with the other images; independent such images are exactly the
    isometries (polarization gives q everywhere).  A degenerate pairing does
    not force independence, so every step tests it.  The points pairing to 1
    with v are the XOR, over v's polar bits, of the coordinate-bit bitsets.
    """
    points, coords = S.nonzero_vectors(), S._point_coords
    every, ones = (1 << len(points)) - 1, [0]
    for i in range(S.dim):      # the XOR for each set of polar bits, by doubling
        column = sum(1 << p for p, c in enumerate(coords) if c >> i & 1)
        ones += [x ^ column for x in ones]
    rows = [{1: ones[S._polar[v]], 0: every ^ ones[S._polar[v]]} for v in points]
    allowed = [sum(1 << p for p, v in enumerate(points) if S._q[v] == qb)
               for qb in S.qdiag]
    counts, _ = groups.orbit_search(
        rows, allowed, S.gram2, [S._position[1 << i] for i in range(S.dim)],
        keep=lambda images: _independent(coords[p] for p in images if p >= 0))
    return prod(counts)


# -- structure reports and the radical split ------------------------------------

@dataclass(frozen=True)
class SingularPlaneReport:
    """Outcome of the q=0-vector analysis used for the rank-4 exception."""

    nonzero_singular: tuple
    expected_singular: tuple
    matches_expected: bool
    pairings_all_one: bool
    totally_singular_plane: tuple | None

    @property
    def passed(self):
        return (self.matches_expected and self.pairings_all_one
                and self.totally_singular_plane is None)


def exception_check_n4(S):
    """Confirm the rank-4 space has no 2-dimensional subspace with q = 0.

    The nonzero singular vectors must be exactly k+e0 and e0+e_i (pairwise
    pairing 1), which rules out any totally singular plane; the plane scan is
    exhaustive and independent of that description.
    """
    sing = tuple(v for v in S.vectors() if v and S.q(v) == 0)
    k = S.ambient_k
    expected = tuple(sorted([(k ^ 1) & ((1 << S.width) - 1)]
                            + [1 | (1 << i) for i in range(1, S.width)]))
    pairings_ok = all(S.pair(u, v) == 1
                      for i, u in enumerate(sing) for v in sing[i + 1:])
    plane = None
    for i, u in enumerate(sing):
        for v in sing[i + 1:]:
            w = u ^ v
            if w and S.q(w) == 0:
                plane = (u, v)
                break
        if plane:
            break
    return SingularPlaneReport(sing, expected, sing == expected, pairings_ok, plane)


def split_radical(S):
    """The radical vector k and the hyperplane H of vectors with k's top bit
    clear, so that S = H + F2*k; WrongShape unless the radical is {0, k}.

    Since k has no higher bit, x -> min(x, x ^ k) is the projection of S
    onto H along k.
    """
    rad = radical(S)
    if len(rad) != 2:
        raise errors.WrongShape(f"radical has {len(rad)} elements, need 2")
    k = rad[1]
    j = k.bit_length() - 1
    pivot = next(b for b in S.basis if b >> j & 1)
    hbasis = tuple((b if not (b >> j & 1) else b ^ pivot)
                   for b in S.basis if b != pivot)
    gram2 = tuple(tuple(S.pair(a, b) for b in hbasis) for a in hbasis)
    return k, F2QuadraticSpace(S.width, hbasis, tuple(S.q(h) for h in hbasis),
                               gram2)


def induced(S, k, H, u):
    """The basis images on H of x -> min(u(x), u(x) ^ k), for an isometry u
    of S and (k, H) = split_radical(S); a homomorphism in u.

    If q(k) = 0, q descends to S/k, which H represents: the result is checked
    as an isometry of (H, q), and the kernel is the 2^(dim-1) maps
    x -> x + l(x)k with l(k) = 0.  If q(k) = 1, q does not descend: the
    result is checked as a symplectic map of H, and u -> induced(u) is an
    isomorphism onto Sp(H) that takes the reflection at whichever of v and
    v + k has q = 1 to the transvection at v.
    """
    check = check_symplectic if S.q(k) else check_isometry
    return check(H, (min(m, m ^ k) for m in (apply(S, u, h) for h in H.basis)))
