"""Reduction maps between a lattice and its mod-2 space, and the verifiers.

reduce_root sends a root to its mod-2 class; root_preimage inverts it by an
explicit case table on the support; reduce_isometry sends the root
permutation of a lattice isometry to the basis images of the induced map
of the mod-2 space.  The verify_* functions check, by exhaustive finite
computation, the statements that the root classes biject with the q=1
vectors and that lattice isometries match the isometries of the mod-2
space, and return serializable reports.
"""

from functools import reduce
from math import prod
from operator import xor

from . import errors, f2, groups, lattice as lat

NUMBER_KEYS = ("roots", "q1_count", "q0_count", "arf", "weyl_order",
               "autL_order", "oL2_order", "rho_image_order", "kernel_order")


def reduce_root(L, alpha):
    """Mod-2 class of a root, as an ambient mask (q of the image is 1)."""
    alpha = groups._tuple(alpha, "a root must be iterable")
    if not lat.is_root(L, alpha):
        raise errors.BadInput(f"{alpha} is not a root")
    return f2._mask(alpha)


def root_preimage(L, v):
    """A root mapping to the given q=1 vector, by the support case table.

    The cases, on the support I: size 2, without e0 in a del Pezzo lattice
    (the only case in a plain one) -> E_i - E_j; without e0, size 6 -> 2E0 -
    E_I; with e0, size 4 -> 2E0 - E_I, which is E0 minus the other three
    E_i, and size 8 (n=8) -> 4E0 - E_I - 2E_l with l the one index missed.
    For n=7 the all-ones vector k has no preimage: a preimage would have all
    coordinates odd, so its square would be 6 mod 8, not 2.
    """
    S = f2.reduce(L)
    if S.q(v) != 1:
        raise errors.BadInput("root preimages exist only for q(v) = 1")
    support = groups._bit_indices(v)
    m, e0 = len(support), 0 in support
    root = [0] * L.width
    if m == 2 and (L.kind == "plain" or not e0):
        i, j = support
        root[i], root[j] = 1, -1
    elif L.kind == "plain":
        raise errors.NoPreimage(
            f"support of size {m} has no root preimage in a plain lattice")
    elif m == (4 if e0 else 6) or (e0 and m == 8 and L.n == 8):
        # an index outside I is 0, or the one index l that I misses if m = 8
        root[0] = 4 if m == 8 else 2
        for i in range(L.width):
            root[i] -= 1 if i in support else 2 if m == 8 else 0
    elif e0 and m == 8 and L.n == 7:
        raise errors.NoPreimage(
            "the all-ones vector has no root preimage (square 6 mod 8)")
    else:
        raise errors.CrossCheckFailed(f"q=1 vector with unhandled support size {m}")
    root = tuple(root)
    if not (lat.is_root(L, root) and f2._mask(root) == v):
        raise errors.CrossCheckFailed(f"case table gives {root}, not a root over {v:#x}")
    return root


def reduce_isometry(L, p):
    """The basis images of the induced isometry of the mod-2 space, for the
    root permutation p of an isometry of L (raises NotIsometry for anything
    else).

    Basis vector i is the sum over t of lat._basis_on_simple(L)[i][t] times
    simple root s_t, so its image is the same sum of the roots p[s_t], and
    its class mod 2 the sum of their classes with odd coefficients.
    """
    return f2.check_isometry(f2.reduce(L), _reduce_checked(L, lat.check_isometry(L, p)))


def _reduce_checked(L, p):
    """reduce_isometry's basis images, unchecked: p must already be the
    root permutation of an isometry of L."""
    masks = _root_masks(L)
    moved = [masks[p[s]] for s in lat._simple_indices(L)]
    return tuple(reduce(xor, (m for c, m in zip(row, moved) if c & 1), 0)
                 for row in lat._basis_on_simple(L))


@groups._memo
def _root_masks(L):
    """The mod-2 class of each root of enumerate_roots(L), which has checked
    each one to be a root."""
    return tuple(map(f2._mask, lat.enumerate_roots(L)))


# -- reports ----------------------------------------------------------------------

class VerificationReport:
    """Outcome of one verified statement for one lattice.

    A verifier creates its report first and records each sub-check with
    check(); a failed one lists "FAIL: <description>" among the witnesses,
    where the check ran."""

    def __init__(self, statement, n, passed, numbers, witnesses):
        self.statement = statement
        self.n = n
        self.passed = passed
        self.numbers = numbers
        self.witnesses = witnesses

    def to_json_dict(self):
        return {
            "statement": self.statement,
            "n": self.n,
            "pass": self.passed,
            "numbers": {k: self.numbers.get(k) for k in NUMBER_KEYS},
            "witnesses": list(self.witnesses),
        }

    def check(self, ok, description):
        if not ok:
            self.passed = False
            self.witnesses.append(f"FAIL: {description}")


# -- heavy computations, kept on the lattice ----------------------------------------

def _agreed(L, what, order, closed_form):
    if order != closed_form:
        raise errors.CrossCheckFailed(
            f"{L.root_type}: {what} {order} != its closed form {closed_form}")
    return order


def weyl_group(L):
    """A new stabilizer chain for the Weyl group acting on the roots; its
    order must be prod(m_i + 1) over lat.exponents(L) (CrossCheckFailed)."""
    G = groups.PermGroup(lat.weyl_generators(L), len(lat.enumerate_roots(L)),
                         known_base=lat._simple_indices(L))
    _agreed(L, "|W|", G.order(), prod(m + 1 for m in lat.exponents(L)))
    return G


@groups._memo
def _weyl_numbers(L):
    """|W|, which weyl_group checks, and whether -1 is in W, read from one
    weyl_group(L), which is then let go: L keeps the numbers."""
    G = weyl_group(L)
    return G.order(), G.contains(lat.minus_one(L))


def aut_group(L):
    """A new stabilizer chain for the full isometry group acting on the
    roots; the statements read lat._automorphisms."""
    return lat.automorphism_chain(L)


def oL2_group(L):
    """A new stabilizer chain for the reflection group of the mod-2 space;
    its order must be f2.orthogonal_order (CrossCheckFailed).  No statement
    builds it: they read _oL2_order."""
    S = f2.reduce(L)
    G = f2._chain(S, f2.orthogonal_generators(S))
    _agreed(L, "|O(L2)|", G.order(), f2.orthogonal_order(S))
    return G


def _oL2_order(L):
    """|O(L2)| by f2.isometry_order, which builds no chain; CrossCheckFailed
    unless f2.orthogonal_order agrees."""
    S = f2.reduce(L)
    return _agreed(L, "|O(L2)|", f2.isometry_order(S), f2.orthogonal_order(S))


@groups._memo
def _reduced_aut_generators(L):
    """reduce_isometry of each element of lat.automorphism_group(L), computed
    once; automorphism_chain has checked each element."""
    S = f2.reduce(L)
    return tuple(f2.check_isometry(S, _reduce_checked(L, u))
                 for u in lat.automorphism_group(L))


@groups._memo
def _rho_orders(L):
    """|rho(W)| and |rho(O(L))| from one chain: the reduced simple
    reflections, then the reduced O(L) generators, which extend it only
    where rho(O(L)) is larger.  Each reduced simple reflection must be the
    mod-2 reflection in its root's class (CrossCheckFailed), so rho(W) lies
    in the group the q = 1 reflections generate, and |rho(W)| = |O(L2)|
    shows that they generate O(L2)."""
    S = f2.reduce(L)
    weyl = [reduce_isometry(L, u) for u in lat.weyl_generators(L)]
    if weyl != [f2._transvection(S, _root_masks(L)[s]) for s in lat._simple_indices(L)]:
        raise errors.CrossCheckFailed(
            f"{L.root_type}: a reduced simple reflection is not its root's mod-2 reflection")
    chain = f2._chain(S, weyl)
    return chain.order(), f2._chain(S, _reduced_aut_generators(L), chain).order()


def rho_image_order_aut(L):
    """Order of the image of the full isometry group in the mod-2 space."""
    return _rho_orders(L)[1]


def rho_image_order_weyl(L):
    return _rho_orders(L)[0]


@groups._memo
def _census(L):
    """The root count, the census (q = 1, then q = 0), the radical's
    dimension, and arf, None if the pairing is degenerate."""
    S = f2.reduce(L)
    q0, q1 = f2.value_census(S)
    radical_dim = len(f2.radical(S)) - 1
    return (len(lat.enumerate_roots(L)), q1, q0, radical_dim,
            None if radical_dim else f2.arf(S))


def _census_numbers(L, **orders):
    """A fresh dict of the root count and census, then the given orders, then
    arf if the pairing is nondegenerate (the plain report lists them in this
    order)."""
    roots, q1, q0, _, arf = _census(L)
    numbers = {"roots": roots, "q1_count": q1, "q0_count": q0, **orders}
    if arf is not None:
        numbers["arf"] = arf
    return numbers


# -- statement verifiers -----------------------------------------------------------

def verify_lemma(L):
    """Both injectivity statements; returns the (lemma1a, lemma1b) reports."""
    return verify_lemma_roots(L), verify_lemma_isometries(L)


def verify_lemma_roots(L):
    """lemma1a: roots inject into the mod-2 space up to sign."""
    rep = VerificationReport("lemma1a", L.n, True, _census_numbers(L), [])
    roots = lat.enumerate_roots(L)
    S = f2.reduce(L)
    fibers = {}
    for r, m in zip(roots, _root_masks(L)):
        fibers.setdefault(m, []).append(r)
    rep.check(all(len(f) == 2 for f in fibers.values()),
              "every mod-2 class contains exactly one +-root pair")
    rep.check(all(tuple(-x for x in f[0]) == f[1]
                  for f in fibers.values() if len(f) == 2),
              "each fiber is {alpha, -alpha}")
    rep.check(all(S._q.get(v) == 1 for v in fibers),
              "the image lies in q^-1(1)")
    rep.check(len(fibers) == len(roots) // 2, "image size is half the root count")
    rep.numbers["root_image_size"] = len(fibers)
    return rep


def verify_lemma_isometries(L):
    """lemma1b: the kernel of reduction on the isometry group is {+-1}.

    Verified by order counting: |image| = |O(L)| / |kernel|.  For n = 3 the
    root system is reducible and the kernel is {+-1}x{+-1} of order 4 (see
    remark1).  The kernel is also enumerated element by element, by
    backtracking and independently of the chains, for every n; its size is
    listed as a witness for n <= 4.
    """
    rep = VerificationReport("lemma1b", L.n, True, _census_numbers(L), [])
    aut_order, gens = lat._automorphisms(L)
    image = rho_image_order_aut(L)
    expected_kernel = 4 if (L.kind == "delpezzo" and L.n == 3) else 2
    rep.check(aut_order == expected_kernel * image,
              f"|O(L)| = {expected_kernel} * |rho(O(L))|")
    # rho is a homomorphism on all generator pairs; u v is an isometry, and
    # its image equals one of O(L2), so neither is checked again
    S = f2.reduce(L)
    reduced = _reduced_aut_generators(L)
    hom = all(_reduce_checked(L, groups.gather(u, v)) == f2._compose(S, ru, rv)
              for u, ru in zip(gens, reduced) for v, rv in zip(gens, reduced))
    rep.check(hom, "reduction is multiplicative on generator pairs")
    rep.numbers.update(autL_order=aut_order, rho_image_order=image,
                       kernel_order=aut_order // image)
    kernel = _kernel_elements(L)
    rep.check(len(kernel) == expected_kernel,
              "explicit kernel enumeration matches the order count")
    if L.n <= 4:
        rep.witnesses.append(f"kernel enumerated: {len(kernel)} elements")
    if expected_kernel == 4:
        rep.witnesses.append("n=3 kernel is {+-1}x{+-1}; decomposition checked in remark1")
    return rep


def _kernel_elements(L):
    """Root permutations of all isometries reducing to the identity mod 2.

    An isometry is fixed by its images of the simple roots, which span L, and
    reduces to the identity exactly when each image has its simple root's
    mod-2 class: the root itself or its negative.  Every choice among these
    that keeps the simple roots' pairings is listed by groups.completions.
    """
    rows, simple, gram = lat._root_pairings(L)
    masks = _root_masks(L)
    allowed = [sum(1 << i for i, m in enumerate(masks) if m == masks[s])
               for s in simple]
    sols = groups.completions(rows, allowed, gram, [-1] * len(simple))
    return [lat._root_map(L, sol) for sol in sols]


def verify_prop1(L):
    """prop1: roots/{+-1} biject with q^-1(1) (minus k for n=7)."""
    if L.kind != "delpezzo":
        raise errors.BadInput("prop1 applies to del Pezzo lattices")
    rep = VerificationReport("prop1", L.n, True, _census_numbers(L), [])
    S = f2.reduce(L)
    image = set(_root_masks(L))
    q1 = {v for v, q in S._q.items() if q}
    rep.numbers["root_image_size"] = len(image)
    if L.n == 7:
        k = f2._mask(L.K)
        rep.check(S.q(k) == 1, "q(k) = 1")
        rep.check(k not in image, "k is not a root image")
        targets = q1 - {k}
        rep.check(image == targets, "image equals q^-1(1) minus {k}")
        try:
            root_preimage(L, k)
            rep.check(False, "root_preimage(k) raises NoPreimage")
        except errors.NoPreimage:
            pass
    else:
        rep.check(image == q1, "image equals q^-1(1)")
        targets = q1
    rep.check(2 * len(image) == len(_root_masks(L)), "classes count half the roots")
    # root_preimage raises CrossCheckFailed unless its result is a root over v
    rep.check(all(root_preimage(L, v) for v in sorted(targets)),
              "constructive preimages land on every target vector")
    return rep


def verify_prop2(L):
    """prop2: reduction maps O(L)/{+-1} isomorphically onto O(L2), n >= 4."""
    if L.kind != "delpezzo" or L.n < 4:
        raise errors.BadInput("prop2 applies to del Pezzo lattices of rank >= 4")
    rep = VerificationReport("prop2", L.n, True, _census_numbers(L), [])
    S = f2.reduce(L)
    aut_order = lat._automorphisms(L)[0]
    oL2 = _oL2_order(L)
    image = rho_image_order_aut(L)
    rep.check(image * 2 == aut_order, "|rho(O(L))| = |O(L)| / 2")
    rep.check(image == oL2, "|rho(O(L))| = |O(L2)|")
    rep.check(rho_image_order_weyl(L) == oL2,
              "the reflections generate O(L2): |rho(W)| agrees")
    rep.numbers.update(autL_order=aut_order, oL2_order=oL2,
                       rho_image_order=image, kernel_order=2)
    if L.n == 4:
        # no totally singular plane, by an exhaustive scan of singular pairs
        sing = [v for v in S.nonzero_vectors() if S.q(v) == 0]
        pairs = [(u, v) for i, u in enumerate(sing) for v in sing[i + 1:]]
        expected = {f2._mask(L.K) ^ 1} | {1 | 1 << i for i in range(1, S.width)}
        rep.check(set(sing) == expected,
                  "nonzero singular vectors are k+e0 and the e0+e_i")
        rep.check(all(S.pair(u, v) for u, v in pairs), "singular vectors pair to 1")
        rep.check(all(S.q(u ^ v) for u, v in pairs), "no totally singular 2-plane")
        rep.witnesses.append(f"nonzero singular vectors: {len(sing)}")
    if L.n == 7:
        k, H = f2.split_radical(S)
        rep.check(S.q(k) == 1, "q(k) = 1")
        tgens = [f2._transvection(H, v) for v in H.nonzero_vectors()]
        sp_order = f2._chain(H, tgens).order()
        rep.check(sp_order == oL2, "|Sp(H)| = |O(L2)|")
        corr = all(f2._induced(S, k, H, f2.f2_reflection(S, v if S.q(v) else v ^ k)) == t
                   for v, t in zip(H.nonzero_vectors(), tgens))
        rep.check(corr, "transvections correspond to reflections at v+(1+q(v))k")
        rep.witnesses.append(f"|Sp(H)| = {sp_order}")
    if L.n == 5:
        k, H = f2.split_radical(S)
        rep.check(S.q(k) == 0, "q(k) = 0")
        qgens = [f2._induced(S, k, H, g) for g in f2.orthogonal_generators(S)]
        image_q = f2._chain(H, qgens).order()
        # the maps x -> x + l(x)k with l(k) = 0, l given by its basis bits
        kc = S.coords(k)
        kernel = [f2.check_isometry(S, [b ^ (k if lam >> i & 1 else 0)
                                        for i, b in enumerate(S.basis)])
                  for lam in range(1 << S.dim) if not (lam & kc).bit_count() & 1]
        rep.check(len(kernel) == 16, "kernel of the quotient map has order 16")
        rep.check(all(f2._induced(S, k, H, u) == H.basis for u in kernel),
                  "kernel maps project to the identity")
        rep.check(oL2 == 16 * image_q, "|O(L2)| = 16 * |O(quotient)|")
        L4 = lat.build_del_pezzo(4)
        rep.check(f2.value_census(H) == f2.value_census(f2.reduce(L4)),
                  "quotient census equals the rank-4 census")
        rep.numbers["kernel_order"] = 16
        rep.witnesses.append(f"quotient image order: {image_q}")
    return rep


def verify_corollary(L):
    """corollary: W = O(L2) for n = 4,5,6 and W/{+-1} = O(L2) for n = 7,8."""
    if L.kind != "delpezzo" or not 4 <= L.n <= 8:
        raise errors.BadInput("the corollary applies to del Pezzo n in [4, 8]")
    rep = VerificationReport("corollary", L.n, True, _census_numbers(L), [])
    weyl, minus1 = _weyl_numbers(L)
    # |O(L)| = |W| |Gamma|, Gamma the isometries keeping the simple roots
    gamma = lat._root_search(L, sum(1 << s for s in lat._simple_indices(L)))[0]
    if weyl * gamma != lat.automorphism_order(L):
        raise errors.CrossCheckFailed(
            f"{L.root_type}: |W| times {gamma} diagram automorphisms != |O(L)|")
    oL2 = _oL2_order(L)
    image = rho_image_order_weyl(L)
    if L.n in (7, 8):
        rep.check(minus1, "-1 is in the Weyl group")
        rep.check(weyl == 2 * oL2, "|W| = 2 |O(L2)|")
    else:
        rep.check(not minus1, "-1 is outside the Weyl group")
        rep.check(weyl == oL2, "|W| = |O(L2)|")
    rep.check(image == oL2, "the Weyl group surjects onto O(L2)")
    rep.numbers.update(weyl_order=weyl, oL2_order=oL2, rho_image_order=image)
    rep.witnesses.append(f"-1 in W: {minus1}")
    return rep


def verify_remarks(n):
    """remark1 for n = 3; remark2 for a plain A_rank lattice, rank in [5, 10]."""
    if type(n) is not int:
        raise errors.BadInput(f"n must be an int, got {n!r}")
    if n == 3:
        return _verify_remark1(lat.build_del_pezzo(3))
    if n in range(5, 11):
        return _verify_remark2(n)
    raise errors.BadInput(
        "remarks cover n = 3 and plain ranks 5..10 (ranks <= 4 coincide "
        "with del Pezzo cases)")


def _verify_remark1(L):
    """n=3: reduction is onto with kernel {+-1}x{+-1}, via the A1 x A2 split
    of the del Pezzo lattice L of rank 3."""
    rep = VerificationReport("remark1", 3, True, _census_numbers(L), [])
    aut_order = lat._automorphisms(L)[0]
    oL2 = _oL2_order(L)
    image = rho_image_order_aut(L)
    rep.check(aut_order == 24, "|O(L)| = 24")
    rep.check(oL2 == 6 and image == 6, "reduction is onto O(L2) of order 6")
    kernel = _kernel_elements(L)
    rep.check(len(kernel) == 4, "kernel has order 4")
    # kernel elements act as +-1 on each root component
    comps = lat.root_components(L)
    rep.check(tuple(len(comp) for comp in comps) == (2, 6),
              "root components have sizes 2 and 6")
    points = [[lat.enumerate_roots(L).index(r) for r in comp] for comp in comps]
    neg = lat.minus_one(L)
    # 1 or -1 per component, 0 where an element is neither
    signs = {tuple(1 if all(perm[i] == i for i in p)
                   else -1 if all(perm[i] == neg[i] for i in p)
                   else 0 for p in points) for perm in kernel}
    rep.check(signs == {(1, 1), (1, -1), (-1, 1), (-1, -1)},
              "kernel is {+-1} x {+-1} on the two components")
    # component lattices: A1 and A2, with isometry groups of orders 2 and 12
    isos = [lat.component_isometries(L, comp) for comp in comps]
    comp_orders = [order for order, _ in isos]
    comp_f2_orders = [f2.isometry_order(f2.space_from_gram(gram)) for _, gram in isos]
    rep.check(comp_orders == [2, 12], "component isometry groups have orders 2, 12")
    rep.check(prod(comp_orders) == aut_order, "O(L) = O(A1) x O(A2)")
    rep.check(comp_f2_orders == [1, 6], "mod-2 component groups have orders 1, 6")
    rep.check(prod(comp_f2_orders) == oL2, "O(L2) = O(L2') x O(L2'')")
    rep.numbers.update(autL_order=aut_order, oL2_order=oL2,
                       rho_image_order=image, kernel_order=len(kernel))
    rep.witnesses.append(f"component isometry orders: {comp_orders}")
    return rep


def _verify_remark2(rank):
    """Plain A_rank: the root/quadric and group correspondences both fail.

    The remark says nothing of reflections, so it builds no mod-2 chain."""
    L = lat.build_plain_root_lattice(rank)
    aut_order = lat._automorphisms(L)[0]
    oL2 = _oL2_order(L)
    rep = VerificationReport("remark2", rank, True,
                             _census_numbers(L, autL_order=aut_order, oL2_order=oL2), [])
    rep.check(rep.numbers["roots"] == rank * (rank + 1), "A_n has n(n+1) roots")
    root_classes, q1 = rep.numbers["roots"] // 2, rep.numbers["q1_count"]
    rep.check(root_classes != q1 or aut_order != oL2,
              "at least one correspondence fails strictly")
    rep.witnesses.append(f"root classes {root_classes} vs q1 vectors {q1}")
    rep.witnesses.append(f"|O(L)| {aut_order} vs |O(L2)| {oL2}")
    return rep


def reports_for(n):
    """All statement reports for del Pezzo rank n, in statement order."""
    L = lat.build_del_pezzo(n)
    return [*verify_lemma(L), verify_prop1(L),
            *([_verify_remark1(L)] if n == 3 else [verify_prop2(L), verify_corollary(L)])]
