"""Exact finite-group computation for permutation groups.

Groups are given by generators acting on {0..degree-1}: each element is the
index map it induces on a fixed, sorted point set (a lattice isometry's
permutation of the roots, or f2.permutation of a mod-2 map).  A deterministic
Schreier-Sims stabilizer chain provides exact order (arbitrary-precision,
never floating point) and membership tests.  Base points are taken from a
known base (below) in its given order, so the chain -- and hence every
reported number -- is reproducible across runs.

Permutations are tuples of ints.  The product of p after q is the gather
of p at q, itemgetter(*q)(p), which reuses p's int objects rather than
making new ones.  Sifting uses only inverse coset representatives, so each
level's orbit table stores u_p^-1 in place of u_p (one tuple per orbit
point, no second copy): a sift step is one gather, and the identity test
is a tuple comparison.

Schreier generators are tested on a known base (Seress, Permutation Group
Algorithms, 2003, ch. 4): points on which every element of the group is
determined, such as the basis vectors or the simple roots of the linear
maps the chains hold; without one, every point serves, in ascending order.
The base points lie in the known base, so each orbit point keeps u_p on the
known base alone: a Schreier generator u_{g(p)}^-1 g u_p is sifted on as
many entries as the known base has, and it lies in the stabilizer chain iff
that sift ends fixing the known base.  Only one that does not is formed in
full and sifted by the full sift, so residues, levels and chains are those
of a full sift of every Schreier generator.  Two kinds are not tested at
all: those on the orbit's spanning-tree edges, the pairs (p, g)
that defined u_{g(p)} = g u_p, are the identity (sec. 4.2); and for an
involution g the generators at (p, g) and (g(p), g) are inverse, so the
one at the later orbit position is in the group once the earlier one is
handled.  Every level-0 generator of the reflection chains is an
involution.

orbit_search is the one isometry search: it backtracks over the images of a
base among points given by their pairing table, as bitsets, and counts the
group as the product of the basic orbit lengths it finds.
"""

from __future__ import annotations

import math
from operator import itemgetter

from . import errors


def gather(a, idx):
    """The tuple of a[i] for i in idx: for permutations, a after idx."""
    return itemgetter(*idx)(a) if len(idx) > 1 else tuple(a[i] for i in idx)


class _Level:
    __slots__ = ("beta", "slot", "gens", "involution", "orbit", "orbit_order",
                 "known", "gen_done")

    def __init__(self, known, slot, identity):
        self.beta = known[slot]
        self.slot = slot                    # index of beta in the known base
        self.gens = []
        self.involution = []                # per gen: whether g g == 1
        self.orbit = {self.beta: identity}  # point -> u^-1 with u[beta] == point
        self.orbit_order = [self.beta]
        self.known = [known]                # entry i: u on the known base, for
                                            # u[beta] == orbit_order[i]
        self.gen_done = []                  # per-gen count of processed orbit points

    def add_gen(self, g, identity):
        self.gens.append(g)
        self.involution.append(itemgetter(*g)(g) == identity)
        self.gen_done.append(0)


class PermGroup:
    """Permutation group with a deterministic stabilizer chain.

    known_base lists points on which every element of the group is
    determined (an element fixing each of them is 1); by default every
    point, ascending.  Each base point is the first of them, in that order,
    that its level's first generator moves.  extend raises BadInput for a
    generator whose residue is not 1 but fixes the known base, which proves
    the known base wrong; passing that check does not prove it valid.
    """

    def __init__(self, generators, degree, known_base=None):
        if type(degree) is not int or degree < 1:
            raise errors.BadInput("degree must be a positive int")
        self.degree = degree
        self._identity = tuple(range(self.degree))
        known = tuple(self._identity if known_base is None else known_base)
        if any(isinstance(b, bool) or not isinstance(b, int) for b in known):
            raise errors.BadInput("known base points must be integers")
        if any(not 0 <= b < self.degree for b in known):
            raise errors.BadInput("known base point out of range")
        if len(set(known)) != len(known):
            raise errors.BadInput("repeated known base point")
        self._known = known
        self.generators = []
        self._levels = []
        self.schreier_tested = 0    # Schreier generators sifted on the known base
        self.full_sifts = 0         # permutations sifted in full
        for g in generators:
            self.extend(g)

    def _check_perm(self, g):
        """g as a tuple of the identity's own ints, read as indices (so an
        int-like entry such as True passes as its int)."""
        g = tuple(g)
        if len(g) != self.degree:
            raise errors.DegreeMismatch(
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

    def _inverse(self, p):
        inv = [0] * self.degree
        for i, x in zip(self._identity, p):
            inv[x] = i
        return tuple(inv)

    def extend(self, g):
        """Add a generator; returns True iff the group grew.

        Only generators that grow the group are recorded in `generators`.
        """
        g = self._check_perm(g)
        residue = self._sift(g, 0)
        if residue is None:
            return False
        if gather(residue, self._known) == self._known:
            raise errors.BadInput("the known base does not determine the group")
        self.generators.append(g)
        if not self._levels:
            self._add_level(g)
        self._levels[0].add_gen(g, self._identity)
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
        return self._sift(self._check_perm(g), 0) is None

    def sifts_on_known_base(self, images):
        """Whether the element with these images of the known base sifts to
        the identity: the full sift's steps on a few entries, exact for an
        element of any group the known base determines (a product of such
        elements fixing it is 1).  Raises BadInput unless there is one point
        per known-base point."""
        images = tuple(images)
        if (len(images) != len(self._known)
                or any(type(b) is not int or not 0 <= b < self.degree for b in images)):
            raise errors.BadInput("need one point in range per known-base point")
        return self._sifts_on_known_base(images, 0)

    def _sifts_on_known_base(self, cur, start):
        """sifts_on_known_base through the levels from start on, unchecked."""
        for lv in self._levels[start:]:
            img = cur[lv.slot]
            if img != lv.beta:
                u_inv = lv.orbit.get(img)
                if u_inv is None:
                    return False
                cur = gather(u_inv, cur)
        return cur == self._known

    def base(self):
        return tuple(lv.beta for lv in self._levels)

    # -- chain construction -------------------------------------------------

    def _add_level(self, residue):
        """Append a level whose base point is the first known-base point
        that residue moves."""
        slot = next(i for i, b in enumerate(self._known) if residue[b] != b)
        self._levels.append(_Level(self._known, slot, self._identity))

    def _sift(self, g, start):
        """Strip g through levels >= start: None if g reduces to the
        identity, otherwise the nontrivial residue."""
        self.full_sifts += 1
        cur = g
        for lv in self._levels[start:]:
            img = cur[lv.beta]
            if img != lv.beta:
                u_inv = lv.orbit.get(img)
                if u_inv is None:
                    return cur
                cur = itemgetter(*cur)(u_inv)   # a level exists: degree >= 2
        return None if cur == self._identity else cur

    def _complete_level(self, idx):
        """Close the orbit at level idx and verify all its Schreier generators.

        Invariant: when this is called, every level below idx is complete, so
        sifting through them is an exact membership test; a Schreier generator
        that does not sift to the identity is genuinely new and its residue is
        added to level idx+1, which is then re-completed before continuing.
        Schreier generators on spanning-tree edges are the identity, and of
        an involution's inverse pair the later one is in the group once the
        earlier one is; both are skipped.
        """
        lv = self._levels[idx]
        n = self.degree
        # Generator gi has visited the first gen_done[gi] orbit points: all of
        # them, or none if it was added since the last call.  The orbit is
        # closed under the visitors, so only the fresh generators on old
        # points and every generator on new points can add points, in the
        # same point-major order as a full rescan.
        old = len(lv.orbit_order)
        every = list(enumerate(lv.gens))
        fresh = [(gi, gen) for gi, gen in every if lv.gen_done[gi] < old]
        tree = set()        # gi * n + p for each u_{g(p)} = g u_p defined here
        after_inv = {}      # gi -> the gather x -> x g^-1
        i = 0
        while i < len(lv.orbit_order):
            p = lv.orbit_order[i]
            for gi, gen in (fresh if i < old else every):
                q = gen[p]
                if q not in lv.orbit:
                    if gi not in after_inv:
                        after_inv[gi] = itemgetter(*(gen if lv.involution[gi]
                                                     else self._inverse(gen)))
                    # u_q^-1 = u_p^-1 g^-1, and u_q = g u_p on the known base
                    lv.orbit[q] = after_inv[gi](lv.orbit[p])
                    lv.known.append(gather(gen, lv.known[i]))
                    lv.orbit_order.append(q)
                    tree.add(gi * n + p)
            i += 1
        end = len(lv.orbit_order)
        # Deeper levels never change this one, so one pass over the Schreier
        # generators of the closed orbit completes it.  For an involution g
        # the Schreier generators at (p, g) and (g(p), g) are inverse, and
        # both lie in the same pass: the orbit visited so far is closed
        # under g.
        for gi, gen in every:
            involution = lv.involution[gi]
            visited = bytearray(n)
            start, lv.gen_done[gi] = lv.gen_done[gi], end
            for pi in range(start, end):
                p = lv.orbit_order[pi]
                q = gen[p]
                if involution:
                    if visited[q]:
                        continue
                    visited[p] = 1
                if gi * n + p in tree:
                    continue
                self.schreier_tested += 1
                # s = u_q^-1 g u_p, formed in full only when it is not in
                # the group
                u_q_inv = lv.orbit[q]
                if self._sifts_on_known_base(
                        gather(u_q_inv, gather(gen, lv.known[pi])), idx + 1):
                    continue
                u_p = self._inverse(lv.orbit[p])
                s = itemgetter(*u_p)(itemgetter(*gen)(u_q_inv))
                residue = self._sift(s, idx + 1)
                if idx + 1 == len(self._levels):
                    self._add_level(residue)
                self._levels[idx + 1].add_gen(residue, self._identity)
                self._complete_level(idx + 1)


# -- isometry search -----------------------------------------------------------

def bit_indices(mask):
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
    first, on a tie) is filled next, in ascending order; each choice narrows
    the masks by one AND, and is dropped if keep(images) is false.
    """
    open_pos = [t for t, p in enumerate(images) if p < 0]
    if not open_pos:
        yield tuple(images)
        return
    t = min(open_pos, key=lambda s: masks[s].bit_count())
    for r in bit_indices(masks[t]):
        row = rows[r]
        narrowed = [m & row.get(target[t][s], 0) for s, m in enumerate(masks)]
        images[t] = r
        if all(narrowed[s] for s in open_pos) and (keep is None or keep(images)):
            yield from completions(rows, narrowed, target, images, keep)
        images[t] = -1


def orbit_search(rows, allowed, target, base, keep=None):
    """Stabilizer-orbit backtracking over the images of a base (Plesken and
    Souvignier, J. Symbolic Comput. 24, 1997).

    Position t takes a point of allowed[t]; the identity puts base[t] there.
    With the positions before l at their base points, the candidates at l
    that complete form the orbit of base[l] under the stabilizer of the
    earlier ones, so when the full assignments are a group, the product of
    the level counts is its order.  Returns (level_counts, solutions), the
    first completion found for each such candidate, level by level.
    """
    images, masks = [-1] * len(base), list(allowed)
    counts, solutions = [], []
    for level, b in enumerate(base):
        before = len(solutions)
        for r in bit_indices(masks[level]):
            trial = list(masks)
            trial[level] = 1 << r
            sol = next(completions(rows, trial, target, list(images), keep), None)
            if sol is not None:
                solutions.append(sol)
        counts.append(len(solutions) - before)
        images[level] = b
        masks = [m & rows[b].get(target[level][s], 0) for s, m in enumerate(masks)]
    return tuple(counts), tuple(solutions)
