"""Exact finite-group computation for permutation groups.

Groups are given by generators acting on {0..degree-1}: a lattice
isometry's permutation of the root indices, or a mod-2 map's permutation
in f2._chain, which acts on the vectors' coordinate bits and fixes 0.  A
deterministic Schreier-Sims stabilizer chain provides exact order
(arbitrary-precision, never floating point) and membership tests.  Base
points are taken from a known base (below) in its given order, so the
chain -- and hence every reported number -- is reproducible across runs.

Inside a chain of at most 256 points a permutation is a 256-byte string
fixing the points from degree on: p after q is q.translate(p) and the
inverse of p is bytes.maketrans(p, bytes(range(256))), both in C.  Above 256
points (translate needs a 256-entry table) it is a tuple of ints, and p after
q is the gather itemgetter(*q)(p), which reuses p's int objects.  generators
are tuples of ints either way.  Sifting uses only inverse coset
representatives, so each level's orbit table stores u_p^-1 in place of u_p
(one permutation per orbit point, no second copy): a sift step is one
product, and the identity test is one comparison.

Schreier generators are tested on a known base (Seress, Permutation Group
Algorithms, 2003, ch. 4): points on which every element of the group is
determined, such as the basis vectors or the simple roots of the linear
maps the chains hold; without one, every point serves, in ascending order.
The base points lie in the known base, so each orbit point keeps u_p on the
known base alone: a Schreier generator u_{g(p)}^-1 g u_p is sifted on as
many entries as the known base has, and it lies in the stabilizer chain iff
that sift ends fixing the known base.  Only one that does not is formed in
full and sifted by the full sift, so residues, levels and chains are those
of a full sift of every Schreier generator.  Each level keeps the images of
those it has tested, each in the next stabilizer once handled; as the chain
only grows, one whose images repeat is not sifted again (W(E8) forms 3,064
Schreier generators, 36 of them distinct).  That is the only Schreier
generator a level skips.

orbit_search is the one isometry search: it backtracks over the images of a
base among points given by their pairing rows (any mapping), as bitsets, and
counts the group as the product of the basic orbit lengths, each grown with
the automorphisms found; they prune it, and only the lengths are returned.
Both of its callers pass a LazyRows, which builds a point's row on first
read: a search reads the rows of its candidates only (35 of E8's 240 roots).
"""

import math
from functools import partial, wraps
from operator import itemgetter

from . import errors

_BYTES = bytes(range(256))


def gather(a, idx):
    """The tuple of a[i] for i in idx: for permutations, a after idx."""
    return itemgetter(*idx)(a) if len(idx) > 1 else tuple(a[i] for i in idx)


def _tuple(items, what):
    """tuple(items); BadInput with the message what unless items is iterable."""
    try:
        return tuple(items)
    except TypeError:
        raise errors.BadInput(f"{what}, got {items!r}") from None


def _then(q, p):
    """p after q on tuples, in the argument order of bytes.translate."""
    return itemgetter(*q)(p) if len(q) > 1 else tuple(p[i] for i in q)


def _tuple_inverse(identity, p):
    """The inverse of the tuple p, of identity's own ints."""
    inv = [0] * len(identity)
    for i, x in zip(identity, p):
        inv[x] = i
    return tuple(inv)


class _Level:
    __slots__ = ("beta", "slot", "gens", "inverses", "orbit", "orbit_order",
                 "known", "gen_done", "members")

    def __init__(self, known, slot, identity):
        self.beta = known[slot]
        self.slot = slot                    # index of beta in the known base
        self.gens = []
        self.inverses = []                  # per gen: g^-1
        self.orbit = {self.beta: identity}  # point -> u^-1 with u[beta] == point
        self.orbit_order = [self.beta]
        self.known = [known]                # entry i: u on the known base, for
                                            # u[beta] == orbit_order[i]
        self.gen_done = []                  # per-gen count of processed orbit points
        self.members = set()                # known-base images tested here

    def add_gen(self, g, group):
        self.gens.append(g)
        self.inverses.append(group._inverse(g))
        self.gen_done.append(0)


class PermGroup:
    """Permutation group with a deterministic stabilizer chain on at most
    1024 points, as many as A10's mod-2 space, the largest chain built.

    known_base lists points on which every element of the group is
    determined (an element fixing each of them is 1); by default every
    point, ascending.  Each base point is the first of them, in that order,
    that its level's first generator moves.  extend raises BadInput for a
    generator whose residue is not 1 but fixes the known base, which proves
    the known base wrong; passing that check does not prove it valid.
    """

    def __init__(self, generators, degree, known_base=None):
        if type(degree) is not int or not 1 <= degree <= 1024:
            raise errors.BadInput("degree must be an int in [1, 1024]")
        self.degree = degree
        self._identity = tuple(range(self.degree))
        known = _tuple(self._identity if known_base is None else known_base,
                       "the known base must be iterable")
        if any(isinstance(b, bool) or not isinstance(b, int) for b in known):
            raise errors.BadInput("known base points must be integers")
        if any(not 0 <= b < self.degree for b in known):
            raise errors.BadInput("known base point out of range")
        if len(set(known)) != len(known):
            raise errors.BadInput("repeated known base point")
        # in the chain: _rep(points) (+ _pad for a permutation); _then(q, p) = p q
        if degree <= 256:
            self._rep, self._pad, self._then = bytes, _BYTES[degree:], bytes.translate
            self._inverse = lambda p: bytes.maketrans(p, _BYTES)
        else:
            self._rep, self._pad, self._then = tuple, (), _then
            self._inverse = partial(_tuple_inverse, self._identity)
        self._one = self._rep(self._identity) + self._pad
        self._known = self._rep(known)
        self.generators = []
        self._levels = []
        self.schreier_tested = 0    # Schreier generators formed on the known base
        self.full_sifts = 0         # permutations sifted in full while building
        for g in _tuple(generators, "the generators must be iterable"):
            self.extend(g)

    def _check_perm(self, g):
        """g as a tuple of the identity's own ints, read as indices (so an
        int-like entry such as True passes as its int)."""
        g = _tuple(g, "a permutation must be iterable")
        if len(g) != self.degree:
            raise errors.BadInput(
                f"permutation of degree {len(g)} in group of degree {self.degree}")
        try:
            perm = gather(self._identity, g)
        except (TypeError, IndexError):
            raise errors.BadInput("permutation entries must be ints below "
                                  f"{self.degree}") from None
        # perm is g with negative entries wrapped around, so g is a
        # permutation iff perm is one and the two sums agree
        if len(set(perm)) != self.degree or sum(g) != sum(perm):
            raise errors.BadInput("permutation entry out of range" if min(g) < 0
                                  else "not a permutation")
        return perm

    def extend(self, g):
        """Add a generator; returns True iff the group grew.

        Only generators that grow the group are recorded in `generators`.
        """
        return self._extend(self._check_perm(g))

    def _extend(self, g):
        """extend for a tuple of ints its caller has just built and checked
        to be a permutation of the points, unchecked."""
        perm = self._rep(g) + self._pad
        self.full_sifts += 1
        residue = self._sift(perm, 0)
        if residue is None:
            return False
        if self._then(self._known, residue) == self._known:
            raise errors.BadInput("the known base does not determine the group")
        self.generators.append(g)
        if not self._levels:
            self._add_level(perm)
        self._levels[0].add_gen(perm, self)
        self._complete_level(0)
        return True

    def basic_orbit_lengths(self):
        """Length of the orbit of each base point under its stabilizer."""
        return tuple(len(lv.orbit) for lv in self._levels)

    def order(self):
        """Exact group order (product of the basic orbit lengths)."""
        return math.prod(self.basic_orbit_lengths())

    def contains(self, g):
        """Exact membership by sifting through the chain."""
        return self._sift(self._rep(self._check_perm(g)) + self._pad, 0) is None

    def _sifts(self, images):
        """Whether the element with these images of the known base sifts to
        the identity: the full sift's steps on a few entries, exact for an
        element of any group the known base determines (a product of such
        elements fixing it is 1).  Unchecked: the caller passes one point in
        range per known-base point."""
        return self._sifts_on_known_base(self._rep(images), 0)

    def _sifts_on_known_base(self, cur, start):
        """_sifts through the levels from start on."""
        for lv in self._levels[start:]:
            img = cur[lv.slot]
            if img != lv.beta:
                u_inv = lv.orbit.get(img)
                if u_inv is None:
                    return False
                cur = self._then(cur, u_inv)
        return cur == self._known

    def base(self):
        return tuple(lv.beta for lv in self._levels)

    # -- chain construction -------------------------------------------------

    def _add_level(self, residue):
        """Append a level whose base point is the first known-base point
        that residue moves."""
        slot = next(i for i, b in enumerate(self._known) if residue[b] != b)
        self._levels.append(_Level(self._known, slot, self._one))

    def _sift(self, g, start):
        """Strip g through levels >= start: None if g reduces to the
        identity, otherwise the nontrivial residue."""
        cur = g
        for lv in self._levels[start:]:
            img = cur[lv.beta]
            if img != lv.beta:
                u_inv = lv.orbit.get(img)
                if u_inv is None:
                    return cur
                cur = self._then(cur, u_inv)
        return None if cur == self._one else cur

    def _complete_level(self, idx):
        """Close the orbit at level idx and verify all its Schreier generators.

        Invariant: when this is called, every level below idx is complete, so
        sifting through them is an exact membership test; a Schreier generator
        that does not sift to the identity is genuinely new and its residue is
        added to level idx+1, which is then re-completed before continuing.
        """
        lv = self._levels[idx]
        then = self._then
        every = list(enumerate(lv.gens))
        for i, p in enumerate(lv.orbit_order):      # visits the points it appends
            for gi, gen in every:
                q = gen[p]
                if q not in lv.orbit:
                    # u_q^-1 = u_p^-1 g^-1, and u_q = g u_p on the known base
                    lv.orbit[q] = then(lv.inverses[gi], lv.orbit[p])
                    lv.known.append(then(lv.known[i], gen))
                    lv.orbit_order.append(q)
        end = len(lv.orbit_order)
        # Deeper levels never change this one, so one pass over the Schreier
        # generators of the closed orbit completes it; generator gi has been
        # tested on the first gen_done[gi] orbit points.
        for gi, gen in every:
            start, lv.gen_done[gi] = lv.gen_done[gi], end
            for pi in range(start, end):
                p = lv.orbit_order[pi]
                q = gen[p]
                self.schreier_tested += 1
                # s = u_q^-1 g u_p, sifted on the known base unless an equal
                # one was, and formed in full only when it is not in the group
                u_q_inv = lv.orbit[q]
                images = then(then(lv.known[pi], gen), u_q_inv)
                if images in lv.members:
                    continue
                lv.members.add(images)
                if self._sifts_on_known_base(images, idx + 1):
                    continue
                s = then(self._inverse(lv.orbit[p]), then(gen, u_q_inv))
                self.full_sifts += 1
                residue = self._sift(s, idx + 1)
                if idx + 1 == len(self._levels):
                    self._add_level(residue)
                self._levels[idx + 1].add_gen(residue, self)
                self._complete_level(idx + 1)


# -- isometry search -----------------------------------------------------------

class LazyRows(dict):
    """Pairing rows for orbit_search and completions, each built on first
    read: rows[p] is build(rows, p), kept.  A row built from other rows
    reads them through the first argument, so build need not refer to the
    mapping: no reference cycle keeps the rows alive once their last holder
    lets them go."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, p):
        row = self[p] = self.build(self, p)
        return row


def _memo(fn):
    """fn(x), built on first read and kept in x.__dict__ under fn's
    module-qualified name: a value derived from a lattice or a space lives
    exactly as long as it does.  A value must not refer back to x, or x
    becomes a reference cycle.  x.__dict__, not vars(x), so that an x
    without one (None, say) raises AttributeError."""
    key = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def memo(x):
        values = x.__dict__
        if key not in values:
            values[key] = fn(x)
        return values[key]

    return memo


def _bit_indices(mask):
    """Indices of the set bits of an int, ascending."""
    if mask < 0:
        raise errors.BadInput(f"negative mask {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def completions(rows, masks, target, images, keep=None):
    """Every full assignment extending `images`, depth first.

    rows[p][v] is the bitset (an int) of the points pairing to v with p.
    images[t] is the point at position t, or -1 while t is open; masks[t]
    holds the candidates of an open t, whose pairing with the point at each
    fixed s is target[t][s].  The open t with the fewest candidates (the
    first, on a tie) is filled next, lowest bit first; each choice narrows
    the masks by one AND, and is dropped if keep(images) is false.
    """
    open_pos = [t for t, p in enumerate(images) if p < 0]
    if not open_pos:
        yield tuple(images)
        return
    t = min(open_pos, key=lambda s: masks[s].bit_count())
    todo = masks[t]
    while todo:
        low = todo & -todo
        todo ^= low
        r = low.bit_length() - 1
        row = rows[r]
        narrowed = [m & row.get(target[t][s], 0) for s, m in enumerate(masks)]
        images[t] = r
        if all(narrowed[s] for s in open_pos) and (keep is None or keep(images)):
            yield from completions(rows, narrowed, target, images, keep)
        images[t] = -1


def orbit_search(rows, allowed, target, base, act, keep=None):
    """Stabilizer-orbit backtracking over the images of a base, pruned by the
    automorphisms found (Plesken and Souvignier, J. Symbolic Comput. 24,
    1997; Seress, Permutation Group Algorithms, 2003, ch. 9).

    Position t takes a point of allowed[t]; the base is a solution.  When
    the solutions are a group, those with base[0..l-1] in place put the
    orbit of base[l] under its stabilizer at l, and the product of the
    orbit lengths is its order.  act(solution) is the permutation of the
    points a solution induces, and rows any mapping from a point to its
    row.  The levels are searched from the last to the first, so the
    elements found fix base[0..l-1]: only a candidate outside the orbit of
    base[l] under them is searched, lowest first, and the orbit is closed
    again under all of them whenever one is found.  Returns the orbit
    lengths, first level first.
    """
    levels, masks = [], list(allowed)     # the masks with base[0..l-1] fixed
    for level, b in enumerate(base):
        if not masks[level] >> b & 1:
            raise errors.BadInput(f"base point {b} is not a candidate at {level}")
        levels.append(masks)
        masks = [m & rows[b].get(target[level][s], 0) for s, m in enumerate(masks)]
    found, lengths = [], []
    for level in reversed(range(len(base))):
        masks, b = levels[level], base[level]
        orbit, seen, todo = [b], {b}, masks[level] & ~(1 << b)
        k = 0                       # orbit is closed under found[:k]
        images = [*base[:level]] + [-1] * (len(base) - level)
        while True:
            if k < len(found):
                for p in orbit:
                    for g in found:
                        q = g[p]
                        if q not in seen:
                            seen.add(q)
                            orbit.append(q)
                            todo &= ~(1 << q)
                k = len(found)
            if not todo:
                break
            low = todo & -todo
            todo ^= low
            trial = masks[:level] + [low] + masks[level + 1:]
            sol = next(completions(rows, trial, target, list(images), keep), None)
            if sol is not None:
                found.append(act(sol))
        lengths.append(len(orbit))
    return tuple(reversed(lengths))
