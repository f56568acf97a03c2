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
(space_from_gram) uses the basis coordinates as masks, so coords() takes a
mask of either model to the intrinsic mask of the same vector.

A linear self-map of a space is the tuple of its basis images.
check_symplectic/check_isometry validate one and return it, _apply and
_compose evaluate it, and permutation gives the map it induces on coordinate
bits, 0 fixed: the form the stabilizer chains take.
"""

from functools import lru_cache
from math import prod

from . import errors, groups


def _parity(x):
    return x.bit_count() & 1


class F2QuadraticSpace:
    """A subspace of F2^width given by its basis masks, q on the basis and
    the pairing on the basis (gram2, entries taken mod 2)."""

    __slots__ = ("width", "basis", "qdiag", "ambient_k", "gram2",
                 "_coords", "_q", "_polar")

    def __init__(self, width, basis, qdiag, gram2, ambient_k=None):
        try:
            basis, qdiag, gram2 = tuple(basis), tuple(qdiag), tuple(map(tuple, gram2))
        except TypeError:
            raise errors.BadInput("basis, qdiag and each gram2 row must be "
                                  "sequences") from None
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
            raise errors.BadInput(f"mask {v!r} is not in the space") from None

    def pair(self, u, v):
        """The bilinear form of two space vectors."""
        return _parity(self._lookup(self._polar, u) & self._lookup(self._coords, v))

    def contains(self, v):
        return self._int(v, "mask") in self._q

    def q(self, v):
        """q(v); raises BadInput for masks outside the space."""
        return self._lookup(self._q, v)

    def coords(self, v):
        """Basis coordinate bits of a space vector."""
        return self._lookup(self._coords, v)

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
    try:
        gram = tuple(map(tuple, gram))
    except TypeError:
        raise errors.BadInput("the Gram matrix must be a sequence of rows") from None
    n = len(gram)
    if any(len(row) != n or any(type(x) is not int for x in row) for row in gram):
        raise errors.BadInput("the Gram matrix must be a square matrix of ints")
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
        raise errors.BadInput("the Gram matrix must be symmetric")
    if any(gram[i][i] % 2 for i in range(n)):
        raise errors.BadInput("the lattice must be even")
    basis = tuple(1 << i for i in range(n))
    return F2QuadraticSpace(n, basis, tuple(gram[i][i] // 2 for i in range(n)), gram)


def radical(S):
    """All vectors pairing to zero with the whole space (includes 0), sorted,
    in a fresh list."""
    return list(_radical(S))


@lru_cache(maxsize=None)
def _radical(S):
    """radical(S) as a tuple, computed once per space."""
    return tuple(sorted(v for v, p in S._polar.items() if not p))


def value_census(S):
    """(count of q=0 vectors, count of q=1 vectors), exhaustively."""
    ones = sum(S._q.values())
    return (len(S._q) - ones, ones)


def symplectic_basis(S):
    """A symplectic basis by greedy hyperbolic-pair extraction (deterministic).

    Returns the tuple of hyperbolic pairs (x_i, y_i): (x_i|y_j) = [i==j], all
    other pairings 0.
    """
    if _radical(S) != (0,):
        raise errors.WrongShape("the pairing has a nontrivial radical")
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


@lru_cache(maxsize=None)
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
    try:
        images = tuple(images)
    except TypeError:
        raise errors.NotIsometry(f"{images!r} is not a sequence of images") from None
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
    polar, coords = S._polar, S._coords
    if any(_parity(polar[images[i]] & coords[images[j]]) != S.gram2[i][j]
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


def _span(bits):
    """Entry c is the XOR of bits[i] over the set bits i of c, by doubling:
    for the basis images' bits, the image of every coordinate bits."""
    span = [0]
    for b in bits:
        span += [x ^ b for x in span]
    return span


def _xor(items, bits):
    """The XOR of items[i] over the set bits i of an int."""
    x = 0
    for i in groups._bit_indices(bits):
        x ^= items[i]
    return x


def _apply(S, images, v):
    """The image of a space vector under the map with these basis images."""
    return _xor(images, S.coords(v))


def _compose(S, a, b):
    """The basis images of a after b."""
    return tuple(_apply(S, a, m) for m in b)


def permutation(S, images):
    """The map on coordinate bits, a tuple of 2^dim ints with 0 fixed: entry
    c is the coordinate bits of the image of the vector with coordinate bits
    c.  NotIsometry unless there is one int image in S per basis vector and
    the images are linearly independent."""
    return _permutation([S._coords[m] for m in _basis_images(S, images)])


def _permutation(bits):
    """permutation from the images' coordinate bits, which its caller has
    read from S; NotIsometry unless they are linearly independent."""
    if not _independent(bits):
        raise errors.NotIsometry("images are linearly dependent")
    return tuple(_span(bits))


def transvection(S, v):
    """The basis images of the symplectic transvection x -> x + (x|v)v (no
    q constraint)."""
    if not S.contains(v) or v == 0:
        raise errors.BadInput("transvection vector must be a nonzero space vector")
    return _transvection(S, v)


def _transvection(S, v):
    """transvection(S, v) for a nonzero vector v of S, unchecked."""
    pv = S._polar[v]
    return tuple(b ^ (v if pv >> i & 1 else 0) for i, b in enumerate(S.basis))


def f2_reflection(S, v):
    """The reflection x -> x + (x|v)v for a vector with q(v) = 1.

    An involutive isometry of (S, q); it is the identity exactly when v lies
    in the radical.
    """
    if S.q(v) != 1:
        raise errors.BadInput(f"q(v) must be 1, got {S.q(v)}")
    return _transvection(S, v)      # q(v) = 1: v is a nonzero vector of S


def orthogonal_generators(S):
    """All reflections r_v with q(v) = 1; they generate the isometry group.
    Each v is read from q's table, so f2_reflection's check is not repeated."""
    q = S._q
    return tuple(_transvection(S, v) for v in S.vectors() if q[v])


@lru_cache(maxsize=None)
def isometry_order(S):
    """|O(S, q)| by groups.orbit_search over the basis images, independent
    of the reflections and the chains.  A point is a vector's coordinate
    bits c in [1, 2^dim), and a solution acts by the images of every c.
    Point c's row, built on first read, holds the c' with (c|c') = 1 and
    those with (c|c') = 0.

    Basis vector i goes to a vector with q = qdiag[i] and gram2's pairings
    with the other images; independent such images are exactly the
    isometries (polarization gives q everywhere).  A degenerate pairing does
    not force independence, so every step tests it.  Column j is the bitset
    of the c with bit j set; it and the q = 1 bitset are built by doubling
    over the basis, by q(c + b_k) = q(c) + q(b_k) + (c|b_k) for c < 2^k.
    """
    polar = [sum(x << j for j, x in enumerate(row)) for row in S.gram2]
    columns, q1 = [], 0             # over the c < 2^k, then over all c
    for k, qb in enumerate(S.qdiag):
        half, low = 1 << k, (1 << (1 << k)) - 1     # 2^k, and every c < 2^k
        q1 |= (q1 ^ _xor(columns, polar[k] % half) ^ (low if qb else 0)) << half
        columns = [c | c << half for c in columns] + [low << half]
    ids = tuple(range(1 << S.dim))
    every = (1 << len(ids)) - 1
    zeros = (every - 1) ^ q1       # q = 0, c != 0

    def row(_, c):          # the columns' XOR over the polar bits of c
        ones = _xor(columns, _xor(polar, c))
        return {1: ones, 0: every ^ ones}

    def act(sol):           # the image of every c, as permutation builds it
        return groups.gather(ids, _span(sol))

    counts, _ = groups.orbit_search(
        groups.LazyRows(row), [q1 if qb else zeros for qb in S.qdiag],
        S.gram2, [1 << i for i in range(S.dim)], act,
        keep=lambda images: _independent(c for c in images if c >= 0))
    return prod(counts)


# -- the radical split ----------------------------------------------------------

@lru_cache(maxsize=None)
def split_radical(S):
    """The radical vector k and the hyperplane H of vectors with k's top bit
    clear, so that S = H + F2*k; WrongShape unless the radical is {0, k}.
    Computed once per space, so orthogonal_order and prop2 share one H.

    Since k has no higher bit, x -> min(x, x ^ k) is the projection of S
    onto H along k.
    """
    rad = _radical(S)
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
    return check(H, (min(m, m ^ k) for m in (_apply(S, u, h) for h in H.basis)))


def orthogonal_order(S):
    """|O(S, q)| by closed forms sharing no code with isometry_order (Taylor,
    The Geometry of the Classical Groups, 1992, ch. 11).  With H = S or (k, H)
    = split_radical(S), dim H = 2m: |Sp(H)| = 2^(m^2) prod_{i<=m} (4^i - 1),
    O(H, q) has index 2^(m-1) (2^m + (-1)^arf) in it, and a radical {0, k}
    gives |Sp(H)| if q(k) = 1, 2^(dim-1) |O(H, q)| if q(k) = 0.  A larger
    radical raises WrongShape."""
    k, H = (0, S) if len(_radical(S)) == 1 else split_radical(S)
    m = H.dim // 2
    sp = 2 ** (m * m) * prod(4 ** i - 1 for i in range(1, m + 1))
    if k and S.q(k):
        return sp
    order = 2 * sp // (2 ** m * (2 ** m + (-1) ** arf(H)))
    return order * 2 ** (S.dim - 1) if k else order
