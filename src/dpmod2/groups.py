"""Exact finite-group computation for permutation groups.

Groups are given by generators acting on {0..degree-1}: each element is the
index map it induces on a fixed, sorted point set (a lattice isometry's
permutation of the roots, or f2.permutation of a mod-2 map).  A deterministic
Schreier-Sims stabilizer chain provides exact order (arbitrary-precision,
never floating point) and membership tests.  Base points are always the
smallest moved point available, so the chain -- and hence every reported
number -- is reproducible across runs.

Permutations are int32 arrays, and p[q] applies q first, then p.  Sifting
uses only inverse coset representatives, so each level's orbit table stores
u_p^-1 in place of u_p (one array per orbit point, no second copy): a sift
step is one gather, and a Schreier generator u_{g(p)}^-1 g u_p is one gather
and one scatter.  The gathers are `take` calls, which use the int32 index
as it is where fancy indexing would convert it to intp on every call;
entries are read with `item`, and a sift's identity test compares bytes
with the identity's, cached once.  The Schreier generators on the orbit's
spanning-tree edges, the pairs (p, g) that defined u_{g(p)} = g u_p, are
the identity and are not sifted (Seress, Permutation Group Algorithms,
2003, sec. 4.2).  When g is an involution, the reverse edge (g(p), g) is
skipped too: its Schreier generator is u_p^-1 g g u_p = 1.  Every level-0
generator of the reflection chains is an involution.

orbit_search is the one isometry search: it backtracks over the images of a
base among points given by their pairing table, as bitsets, and counts the
group as the product of the basic orbit lengths it finds.
"""

from __future__ import annotations

import math

import numpy as np

from . import errors


class _Level:
    __slots__ = ("beta", "gens", "orbit", "orbit_order", "gen_done")

    def __init__(self, beta, identity):
        self.beta = beta
        self.gens = []
        self.orbit = {beta: identity}       # point -> u^-1 with u[beta] == point
        self.orbit_order = [beta]
        self.gen_done = []                  # per-gen count of processed orbit points


class PermGroup:
    """Permutation group with a deterministic stabilizer chain."""

    def __init__(self, generators, degree):
        self.degree = int(degree)
        if self.degree < 1:
            raise errors.BadInput("degree must be positive")
        self._identity = np.arange(self.degree, dtype=np.int32)
        self._identity_bytes = self._identity.tobytes()
        self.generators = []
        self._levels = []
        for g in generators:
            self.extend(g)

    def _check_perm(self, g):
        g = np.asarray(g)
        if g.shape != (self.degree,):
            raise errors.DegreeMismatch(
                f"permutation of degree {g.shape} in group of degree {self.degree}")
        # checked before the int32 cast, which would truncate floats and
        # wrap or overflow on entries out of range
        if g.dtype.kind not in "iu":
            raise errors.BadInput(f"permutation entries of type {g.dtype}")
        if g.min() < 0 or g.max() >= self.degree:
            raise errors.BadInput("permutation entry out of range")
        g = g.astype(np.int32, copy=False)
        if not np.array_equal(np.sort(g), self._identity):
            raise errors.BadInput("not a permutation")
        return g

    def _inverse(self, p):
        inv = np.empty_like(p)
        inv[p] = self._identity
        return inv

    def extend(self, g):
        """Add a generator; returns True iff the group grew.

        Only generators that grow the group are recorded in `generators`.
        """
        g = self._check_perm(g)
        if self._sift(g, 0)[0] is None:
            return False
        self.generators.append(g)
        if not self._levels:
            beta = int(np.nonzero(g != self._identity)[0][0])
            self._levels.append(_Level(beta, self._identity))
        lv = self._levels[0]
        lv.gens.append(g)
        lv.gen_done.append(0)
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
        g = self._check_perm(g)
        residue, _ = self._sift(g, 0)
        return residue is None

    def base(self):
        return tuple(lv.beta for lv in self._levels)

    # -- chain construction -------------------------------------------------

    def _sift(self, g, start):
        """Strip g through levels >= start.

        Returns (None, len) if g reduces to the identity, otherwise the
        nontrivial residue and the level index where it belongs.
        """
        cur = g
        for idx in range(start, len(self._levels)):
            lv = self._levels[idx]
            img = cur.item(lv.beta)
            if img == lv.beta:
                continue
            u_inv = lv.orbit.get(img)
            if u_inv is None:
                return cur, idx
            cur = u_inv.take(cur)
        if cur.tobytes() != self._identity_bytes:
            return cur, len(self._levels)
        return None, len(self._levels)

    def _complete_level(self, idx):
        """Close the orbit at level idx and verify all its Schreier generators.

        Invariant: when this is called, every level below idx is complete, so
        sifting through them is an exact membership test; a Schreier generator
        that does not sift to the identity is genuinely new and its residue is
        added to level idx+1, which is then re-completed before continuing.
        Schreier generators on spanning-tree edges, and on their reverse
        edges for involutions, are the identity and are skipped.
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
        # gi * n + p for each u_{g(p)} = g u_p defined in this call, and
        # gi * n + g(p) when g is an involution
        tree = set()
        gen_inv = {}
        involution = {}
        i = 0
        while i < len(lv.orbit_order):
            p = lv.orbit_order[i]
            for gi, gen in (fresh if i < old else every):
                q = gen.item(p)
                if q not in lv.orbit:
                    if gi not in gen_inv:
                        gen_inv[gi] = self._inverse(gen)
                        involution[gi] = (gen.take(gen).tobytes()
                                          == self._identity_bytes)
                    # u_q^-1 = u_p^-1 g^-1
                    lv.orbit[q] = lv.orbit[p][gen_inv[gi]]
                    lv.orbit_order.append(q)
                    tree.add(gi * n + p)
                    if involution[gi]:
                        tree.add(gi * n + q)
            i += 1
        # Deeper levels never change this one, so one pass over the Schreier
        # generators of the closed orbit completes it.
        end = len(lv.orbit_order)
        for gi, gen in every:
            start, lv.gen_done[gi] = lv.gen_done[gi], end
            for pi in range(start, end):
                p = lv.orbit_order[pi]
                if gi * n + p in tree:
                    continue
                # s = u_{g(p)}^-1 g u_p, i.e. s[u_p^-1] = u_{g(p)}^-1 g
                s = np.empty_like(gen)
                s[lv.orbit[p]] = lv.orbit[gen.item(p)].take(gen)
                residue, _ = self._sift(s, idx + 1)
                if residue is None:
                    continue
                if idx + 1 == len(self._levels):
                    beta = int(np.nonzero(residue != self._identity)[0][0])
                    self._levels.append(_Level(beta, self._identity))
                nxt = self._levels[idx + 1]
                nxt.gens.append(residue)
                nxt.gen_done.append(0)
                self._complete_level(idx + 1)


# -- isometry search -----------------------------------------------------------

def bit_indices(mask):
    """Indices of the set bits of an int, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def pairing_rows(table):
    """rows[p][value]: the bitset (a Python int) of the points q with
    table[p, q] == value, for a square table of pairing values."""
    table = np.asarray(table)
    flat = np.sort(table, axis=None)    # np.unique would import numpy.ma
    rows = [{} for _ in table]
    for value in flat[np.append(True, flat[1:] != flat[:-1])].tolist():
        packed = np.packbits(table == value, axis=1, bitorder="little")
        for row, bits in zip(rows, packed):
            row[value] = int.from_bytes(bits.tobytes(), "little")
    return rows


def completions(rows, masks, target, images, keep=None):
    """Every full assignment extending `images`, depth first.

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
