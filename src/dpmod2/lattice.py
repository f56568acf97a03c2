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
the ambient lattice fixing K.  Its images of the simple roots fix it, and
its root map adds their heights root by root for the search and the check.
"""

from collections import namedtuple
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
    Equality and hash are the tuples'.  The values derived from it are kept
    in its __dict__ on first use (groups._memo); a copy or a pickle takes
    the fields alone.
    """

    def __reduce__(self):
        return Lattice, tuple(self)

    @property
    def width(self):
        return len(self.K)

    def dot(self, v, w):
        """Ambient bilinear form of this lattice's model."""
        try:
            fits = len(v) == len(self.K) == len(w)
        except TypeError:
            fits = False
        if not fits:
            raise errors.BadInput("ambient vectors must be sequences of width n+1")
        return sum(map(mul, map(mul, self.signs, v), w))

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
    basis = tuple(intlinalg._kernel_basis(coeffs))
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
    if intlinalg._abs_det(gram) != expected_disc:
        raise errors.CrossCheckFailed(f"{root_type}: discriminant is not {expected_disc}")
    # Sylvester's law of inertia: if K.K != 0, the ambient space is R K plus
    # K^perp, orthogonally, so K^perp has the negative signs K.K leaves over;
    # K.K = 0 needs a negative sign, so it fails here too
    if signs.count(-1) != (lat.dot(K, K) < 0):
        raise errors.CrossCheckFailed(f"{root_type}: the form is not positive definite")
    return lat


def build_del_pezzo(n):
    """A new rank-n del Pezzo lattice, with its canonical basis of K^perp."""
    if type(n) is not int:
        raise errors.BadInput(f"n must be an int, got {n!r}")
    if not 3 <= n <= 8:
        raise errors.BadInput(f"n must be in [3, 8], got {n}")
    signs = (-1,) + (1,) * n
    K = (3,) + (-1,) * n
    return _build("delpezzo", n, signs, K, 9 - n, DEL_PEZZO_TYPES[n])


def build_plain_root_lattice(rank):
    """A new A_rank lattice: sum-zero vectors of Euclidean Z^(rank+1)."""
    if type(rank) is not int:
        raise errors.BadInput(f"rank must be an int, got {rank!r}")
    if not 2 <= rank <= 10:
        raise errors.BadInput(f"rank must be in [2, 10], got {rank}")
    signs = (1,) * (rank + 1)
    K = (1,) * (rank + 1)
    return _build("plain", rank, signs, K, rank + 1, f"A{rank}")


# -- roots -------------------------------------------------------------------

def _bounded_vectors(count, sum_target, sq_target):
    """Integer tuples of given length, coordinate sum, and sum of squares."""
    out = []
    _extend_bounded(out, [], count, sum_target, sq_target)
    return out


def _extend_bounded(out, vec, r, s, q):
    """Append to out each vec + tail, in ascending order, whose r-entry tail
    has sum s and sum of squares q."""
    if not r:
        if s == 0 and q == 0:
            out.append(tuple(vec))
        return
    # Cauchy-Schwarz and parity pruning; x^2 == x mod 2 coordinatewise.
    if (q - s) % 2 or s * s > q * r:
        return
    b = isqrt(q)
    for x in range(-b, b + 1):
        vec.append(x)
        _extend_bounded(out, vec, r - 1, s - x, q - x * x)
        vec.pop()


@groups._memo
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
    # both pairings as L.dot takes them, without its width checks
    signs, sK = L.signs, tuple(map(mul, L.signs, L.K))
    if not all(sum(map(mul, map(mul, signs, v), v)) == 2 and sum(map(mul, sK, v)) == 0
               for v in roots):
        raise errors.CrossCheckFailed(f"{L.root_type}: an enumerated vector is not a root")
    return roots


def is_root(L, v):
    """Whether v, read once as a tuple, is a root of L (False if not iterable)."""
    v = tuple(v) if hasattr(v, "__iter__") else ()
    return (len(v) == L.width and all(type(c) is int for c in v)
            and L.dot(v, v) == 2 and L.dot(v, L.K) == 0)


# -- roots as points: heights, pairings and the simple roots --------------------

_WEIGHT_BASE = 101  # exceeds twice any root coordinate, so heights are injective
# its powers, one per ambient coordinate of the widest lattice, A10
_WEIGHTS = tuple(_WEIGHT_BASE ** i for i in range(11))


def _height(v):
    return sum(map(mul, v, _WEIGHTS))


@groups._memo
def _heights(L):
    """The height of each root, in the order of enumerate_roots(L), and the
    index of the root of each height."""
    heights = tuple(_height(r) for r in enumerate_roots(L))
    return heights, dict(zip(heights, range(len(heights))))


@groups._memo
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

@groups._memo
def _root_steps(L):
    """Steps (r, a, b) with root r = a + b, as root indices: b is a simple
    root or its negative, and a is one too or an earlier r.  Breadth first
    from the +-simple roots, they reach every root once, as a positive root
    that is not simple is a positive root plus a simple one."""
    heights, index = _heights(L)
    ends = [i for s in _simple_indices(L) for i in (s, index[-heights[s]])]
    reached, seen, steps = list(ends), set(ends), []
    for a in reached:
        for b in ends:
            r = index.get(heights[a] + heights[b])
            if r is not None and r not in seen:
                seen.add(r)
                reached.append(r)
                steps.append((r, a, b))
    if len(reached) != len(heights):
        raise errors.CrossCheckFailed(f"{L.root_type}: the simple roots miss a root")
    return tuple(steps)


def _root_map(L, sol):
    """The root permutation of the linear map sending simple root t to root
    sol[t]: each step of _root_steps adds two image heights and looks the
    sum up, and NotIsometry is raised where it is no root's.  Exact for a
    map that keeps the simple roots' pairings."""
    heights, index = _heights(L)
    image = [0] * len(heights)
    for s, t in zip(_simple_indices(L), sol):
        image[s] = heights[t]
        image[index[-heights[s]]] = -heights[t]
    for r, a, b in _root_steps(L):
        image[r] = image[a] + image[b]
    try:
        return tuple(map(index.__getitem__, image))
    except KeyError:
        raise errors.NotIsometry("a root maps outside the root set") from None


def minus_one(L):
    """The root permutation of -1."""
    heights, index = _heights(L)
    return tuple(index[-h] for h in heights)


def root_reflection(L, alpha):
    """The root permutation of the reflection x -> x - <x, alpha> alpha in a
    root alpha: the root map of the simple roots' images."""
    alpha = groups._tuple(alpha, "a root must be iterable")
    if not is_root(L, alpha):
        raise errors.BadInput(f"{alpha} is not a root")
    (heights, index), ha, roots = _heights(L), _height(alpha), enumerate_roots(L)
    return _root_map(L, [index[heights[t] - L.dot(roots[t], alpha) * ha]
                         for t in _simple_indices(L)])


def check_isometry(L, p):
    """p as a tuple; NotIsometry unless it is the root permutation of an
    isometry of L.

    It is one iff it is a permutation, the simple roots' images keep their
    Gram matrix, and p is the root map of those images: such images define
    an isometry, which they determine as the simple roots span L, and the
    height is injective on the roots.
    """
    rows, simple, gram = _root_pairings(L)
    count = len(_heights(L)[0])
    try:
        p = tuple(p)
    except TypeError:
        raise errors.NotIsometry(f"{p!r} is not a root permutation") from None
    if (len(p) != count or set(map(type, p)) != {int}
            or set(p) != set(range(count))
            or any(not rows[p[s]][v] >> p[t] & 1
                   for s, row in zip(simple, gram) for t, v in zip(simple, row))
            or p != _root_map(L, [p[s] for s in simple])):
        raise errors.NotIsometry(
            f"not the root permutation of an isometry of {L.root_type}")
    return p


@groups._memo
def weyl_generators(L):
    """Reflections in the simple roots; they generate the full Weyl group."""
    return tuple(root_reflection(L, s) for s in simple_roots(L))


def exponents(L):
    """The exponents m_i of W, so |W| = prod(m_i + 1): h is one k_h - k_(h+1)
    times, k_h roots having height h (Kostant 1959; Humphreys 1990, 3.20),
    where ht(+-s) = +-1 and ht(a + b) = ht(a) + ht(b) along _root_steps."""
    heights, index = _heights(L)
    ht = {i: e for s in _simple_indices(L) for i, e in ((s, 1), (index[-heights[s]], -1))}
    for r, a, b in _root_steps(L):
        ht[r] = ht[a] + ht[b]
    k = [list(ht.values()).count(h) for h in range(max(ht.values()) + 2)]
    return tuple(h for h in range(1, len(k) - 1) for _ in range(k[h] - k[h + 1]))


# -- full isometry group --------------------------------------------------------

def _pairing_ones(heights, index, a):
    """The bitset of the roots b with <a, b> = 1, for which h(a) - h(b) is
    a root's height (see _root_pairings); heights, index = _heights(L)."""
    return sum(1 << index[h] for h in index.keys() & map(heights[a].__sub__, heights))


@groups._memo
def _root_pairings(L):
    """The search data of the roots: rows[a][v], the bitset of the roots
    pairing to v with root a, the simple roots' indices in
    enumerate_roots(L), and the simple roots' Gram matrix.

    rows is a groups.LazyRows: a row is built on first read, from the rows
    its root step adds, so a search builds the rows it reads and those they
    are added from (100 of E8's 240).  The rows of the +-simple roots are
    scanned: for roots a != +-t, <a, t> = 1 iff a - t is a root and -1 iff
    a + t is one, as every root has square 2.  The height is linear and
    injective on these vectors, so <a, t> = 1 iff h(a) - h(t) is a root's
    height, and the roots pairing to -1 with a pair to 1 with -a.  The
    pairing is linear, so along _root_steps the row of r = a + b at v is the
    union over u + u' = v of rows[a][u] & rows[b][u'], 25 products; every
    row built is checked to be empty outside -2..2 and to hold r alone at 2
    (CrossCheckFailed).  The rows are kept on L, so their builders refer to
    what they read of L, not to L itself, which would make L a cycle.
    """
    (heights, index), root_type = _heights(L), L.root_type
    every = (1 << len(heights)) - 1
    steps = {r: (a, b) for r, a, b in _root_steps(L)}
    ones = groups.LazyRows(lambda _, a: _pairing_ones(heights, index, a))

    def row(rows, r):       # keyed 2, 1, 0, -1, -2, the order .values() unpacks
        if r not in steps:          # a +-simple root
            neg = index[-heights[r]]
            p2, m2, p1, m1 = 1 << r, 1 << neg, ones[r], ones[neg]
            return {2: p2, 1: p1, 0: every ^ (p2 | m2 | p1 | m1), -1: m1, -2: m2}
        a, b = steps[r]
        x2, x1, x0, xm1, xm2 = rows[a].values()
        y2, y1, y0, ym1, ym2 = rows[b].values()
        # no root pairs to 4, 3, -3 or -4 with r, and r alone pairs to 2
        if (x2 & y2 | x2 & y1 | x1 & y2 | xm1 & ym2 | xm2 & ym1 | xm2 & ym2
                or x2 & y0 | x1 & y1 | x0 & y2 != 1 << r):
            raise errors.CrossCheckFailed(
                f"{root_type}: the pairings added along the root steps are not a root's")
        return {2: 1 << r,
                1: x2 & ym1 | x1 & y0 | x0 & y1 | xm1 & y2,
                0: x2 & ym2 | x1 & ym1 | x0 & y0 | xm1 & y1 | xm2 & y2,
                -1: x1 & ym2 | x0 & ym1 | xm1 & y0 | xm2 & y1,
                -2: x0 & ym2 | xm1 & ym1 | xm2 & y0}

    rows = groups.LazyRows(row)
    roots, simple = enumerate_roots(L), list(_simple_indices(L))
    return rows, simple, [[L.dot(roots[a], roots[b]) for b in simple] for a in simple]


def _root_search(L, mask):
    """groups.orbit_search over root images of the simple roots in a bitset
    mask of roots, each a root of the mask, the other simple roots fixed; a
    solution acts by its root map.  Returns (order, solutions, gram): the
    product of the orbit lengths, the solutions by level, each the simple
    roots' images, and the Gram matrix of the simple roots in the mask.

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
    lengths, solutions = groups.orbit_search(
        rows, [mask if mask >> s & 1 else 1 << s for s in simple], gram, simple,
        act=lambda sol: _root_map(L, sol))
    pos = [i for i, s in enumerate(simple) if mask >> s & 1]
    return prod(lengths), solutions, [[gram[i][j] for j in pos] for i in pos]


@groups._memo
def _aut_search(L):
    """_root_search over every root: (|O(L)|, solutions)."""
    return _root_search(L, (1 << len(enumerate_roots(L))) - 1)[:2]


@groups._memo
def _basis_on_simple(L):
    """Integer coordinates of the canonical basis on the simple roots.

    Each row of the HNF of the rows (s_t | e_t), simple root s_t then unit
    vector e_t, is a vector of the roots' span and its coordinates on them.
    The heads are the HNF of the span, and L.basis is that of L, so the
    simple roots span L exactly when the heads are the basis.
    """
    n, w = L.n, L.width
    eye = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    hnf = intlinalg._hermite_normal_form([s + e for s, e in zip(simple_roots(L), eye)])
    coords = {row[:w]: row[w:] for row in hnf}
    if set(coords) != set(L.basis):
        raise errors.CrossCheckFailed(
            f"{L.root_type}: the simple roots do not span the lattice")
    return tuple(coords[b] for b in L.basis)


def automorphism_order(L):
    """|O(L)| by exhaustive backtracking, independent of the chain engine."""
    return _aut_search(L)[0]


def automorphism_chain(L):
    """A new stabilizer chain of O(L) on the roots.

    The pruned search yields a few isometries, which generate O(L); the
    chain starts from -1, takes them first level first, and records, as its
    generators, only those that grow it, each checked to be an isometry.
    A solution is the images of the simple roots, the chain's known base,
    so it is sifted on them first, unchecked, as the search built it; only
    one the chain does not contain is turned into a root permutation, and
    extends the chain unchecked once check_isometry has passed it.  The
    chain's order is checked against the backtracking count.
    """
    order, solutions = _aut_search(L)
    chain = groups.PermGroup([], len(enumerate_roots(L)), known_base=_simple_indices(L))
    chain._extend(check_isometry(L, minus_one(L)))
    for sol in (sol for level in solutions for sol in level):
        if not chain._sifts(sol):
            chain._extend(check_isometry(L, _root_map(L, sol)))
    if chain.order() != order:
        raise errors.CrossCheckFailed(
            f"{L.root_type}: stabilizer chain order {chain.order()} differs "
            f"from the backtracking count {order}")
    return chain


@groups._memo
def _automorphisms(L):
    """|O(L)| and the generators, read from one automorphism_chain(L), which
    is then let go: L keeps the numbers, not the chain."""
    chain = automorphism_chain(L)
    return chain.order(), tuple(chain.generators)


def automorphism_group(L):
    """Root permutations generating the full isometry group O(L); the first
    one is -1."""
    return _automorphisms(L)[1]


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
            for b in groups._bit_indices(comp):
                grown |= every ^ rows[b][0]     # reflexive: <b, b> = 2
        comps.add(tuple(roots[i] for i in groups._bit_indices(comp)))
    return tuple(sorted(comps, key=lambda c: (len(c), c)))


def component_isometries(L, component):
    """(|O(M)|, Gram matrix of M on its simple roots) for the span M of a
    component of root_components(L): _root_search over its roots."""
    component = groups._tuple(component, "not a root component")
    if component not in root_components(L):
        raise errors.BadInput("not a root component")
    index = _heights(L)[1]
    order, _, gram = _root_search(L, sum(1 << index[_height(r)] for r in component))
    return order, gram
