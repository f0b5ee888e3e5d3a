"""Reflection group machinery on top of a ball cover.

The cover's balls generate a discrete group of Moebius transformations: one
inversion per ball, with Coxeter relations (R_i R_j)^m = 1 coming from the
realized dihedral angles (m = 2 at pi/2 pairs, m = 3 at pi/3 pairs, none for
disjoint pairs).  This module assembles that group, verifies its relation
suite, enumerates group elements exactly in the integer Tits representation
of the Coxeter group, runs faithfulness and fundamental-domain evidence
scans, and computes sphere orbits named by their Tits roots, with their
nesting parents, plus the doubled-polyhedron stage sequence.

Every 6x6 matrix here is built in a unit frame (`lorentz.frame`): each
relation in its pair's, translated to the pair's midpoint and divided by
its mean radius.  Word enumeration on the full cover is hopeless (tens of
thousands of generators); the word-level tooling therefore operates on a
*sub-assembly*: a chosen subset of generators whose matrices are built in
the subset's own unit frame (centroid at the origin, mean radius 1), an
exact conjugation that keeps them well-conditioned at any position and
scale; orbit spheres are listed back in the cover's units.  Orbit nesting
and radius-decay statements use sub-assemblies whose generators are
pairwise disjoint, where every reflected sphere is strictly nested in the
mirror.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import math

import numpy as np

from . import lorentz as lz
from .complexes import _fold, boxes, meet
from .cover import ROLE_VERTEX, _finite_balls, _first_rows, _grid_join, pair_orders

# Tits matrix entries at most triple per letter, and a word class's key adds
# k of them: a front of k generators whose entries are at most TITS_MAX // k
# keeps every product's entries and their column sums below 2**62.
TITS_MAX = 2**62 // 3
# Cap on listed group elements, and on listed orbit spheres.
MAX_ELEMENTS = 2_000_000
# Cap on the Tits entries (k^2 per candidate) of one enumeration pass.
MAX_TITS_ENTRIES = 2**28
# Checks per slice of fundamental_domain_check (~135 bytes each): the
# default budget, 100,000, is one slice.
DOMAIN_SLICE = 2**17
# Rows per batch in relation_suite: relations per frame-key slice, whose
# (11, batch) key temporaries it bounds, and distinct frames per
# relation_residuals call, whose (batch, 6, 6) temporaries it bounds.
RELATION_BATCH = 2**14
# A relation of order m passes when no power below m is within this
# max-norm distance of I; a nonempty word passes faithfulness_scan when its
# matrix is farther than FAITHFUL_GAP from I.
RELATION_SEPARATION = 0.5
FAITHFUL_GAP = 0.1
# Vertices in the first chunk pairwise_disjoint_subassembly searches for a tetrahedron.
QUAD_CHUNK = 256


class GroupError(ValueError):
    """A group check failed; `report` is the failing check's report dict,
    when it has one."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclasses.dataclass(frozen=True)
class Amalgam:
    """The four vertex-ball generators at a shared square between two cubes."""

    index: int
    cube_pair: tuple  # (i, i+1) positions in complex.all_cubes order
    square: tuple  # box of the shared square
    ball_ids: tuple  # 4 generator indices, sorted
    straight: bool  # both cubes are axis-aligned translates of each other


@dataclasses.dataclass
class ReflectionGroup:
    """The cover's reflections, its adjacency as relations, and the amalgams.
    `crossings` is built from them on first use and kept, so a group made by
    dataclasses.replace gets the crossing table of its own fields."""

    cover: object
    relations: np.ndarray  # cover.adjacency itself: (n, 3) int64 rows (i, j, order m)
    amalgams: list

    def amalgam(self, j):
        """Amalgam j; raises unless 0 <= j < len(self.amalgams)."""
        if not 0 <= j < len(self.amalgams):
            raise GroupError(f"amalgam {j} out of range: the group has "
                             f"{len(self.amalgams)} amalgams")
        return self.amalgams[j]

    @functools.cached_property
    def crossings(self):
        """(rows, shift, offsets): every amalgam's crossing relations in one
        pass.  Amalgam j's are rows[offsets[j]:offsets[j + 1]], in relation
        order, and shift is each row's sup over all t of |P_t - P_0| under
        j's bending, hypot(beta, gamma) + |beta| from bending_terms: 0
        exactly when a member is centred on the square's plane.

        Side B of amalgam j is the balls hosted past its first cube p, so a
        relation whose hosts are lo <= hi crosses j iff lo <= p < hi: as p
        ascends with j, the amalgams it crosses are one run of indices."""
        h0, h1 = self.cover.host[self.relations[:, 0]], self.cover.host[self.relations[:, 1]]
        cross = np.flatnonzero(h0 != h1)
        lo, hi = np.minimum(h0[cross], h1[cross]), np.maximum(h0[cross], h1[cross])
        first = np.array([am.cube_pair[0] for am in self.amalgams], dtype=np.int64)
        start = np.searchsorted(first, lo)
        count = np.searchsorted(first, hi) - start
        rel = np.repeat(cross, count)
        # relation r's run: amalgams start[r] .. start[r] + count[r] - 1
        j = np.arange(len(rel)) + np.repeat(start - np.cumsum(count) + count, count)
        order = np.argsort(j, kind="stable")  # by amalgam, relation order within one
        rows, j = self.relations[rel[order]], j[order]
        center, spanned = _square_frames(self.amalgams)
        rotated = np.nonzero(~spanned)[1].reshape(-1, 2)[j]  # each row's two axes off the square
        _alpha, beta, gamma = bending_terms(self.cover, center[j], rotated, rows[:, 0], rows[:, 1])
        return (rows, np.hypot(beta, gamma) + np.abs(beta),
                np.searchsorted(j, np.arange(len(self.amalgams) + 1)))


def bending_terms(cover, center, rotated, a, b):
    """(alpha, beta, gamma) with P(t) = alpha + beta cos t + gamma sin t the
    inversive product of balls a with balls b turned by E_t: the rotation
    by t about `center` (..., 4) that turns axis p toward axis q, for
    `rotated` (..., 2) = (p, q).  With u a centre's (p, q) coordinates about
    `center`, |c_a - E_t c_b|^2 - |c_a - c_b|^2 = 2 (u_a . u_b)(1 - cos t)
    + 2 (u_a,p u_b,q - u_a,q u_b,p) sin t, so beta and gamma are exactly 0
    when u_a or u_b is: a ball centred on E_t's fixed plane."""
    ca, cb = cover.centers[a], cover.centers[b]
    ra, rb = cover.radii[a], cover.radii[b]
    d = ca - cb
    d *= d
    axes = np.broadcast_to(rotated, ca.shape[:-1] + (2,))
    ua, ub = (np.take_along_axis(c - center, axes, -1) for c in (ca, cb))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero radius: terms no tolerance passes
        p0 = (_fold(np.add, d) - ra * ra - rb * rb) / (2.0 * ra * rb)  # as cover._products
        beta = -(ua[..., 0] * ub[..., 0] + ua[..., 1] * ub[..., 1]) / (ra * rb)
        gamma = (ua[..., 0] * ub[..., 1] - ua[..., 1] * ub[..., 0]) / (ra * rb)
    return p0 - beta, beta, gamma


def _square_frames(amalgams):
    """(center, spanned) of the amalgams' squares, a row each: the (4,)
    midpoint of the square's extent on every axis, and (4,) bool, True on
    the two axes the square spans."""
    square = np.array([am.square for am in amalgams], dtype=float).reshape(-1, 4, 2)
    return (square[..., 0] + square[..., 1]) / 2.0, square[..., 1] != square[..., 0]


def reflection_matrices(polars):
    """(N,6,6) inversion matrices: M = I - 2 v (Jv)^T for unit polars v, in
    the polars' float precision (float64 for any narrower input)."""
    v = np.asarray(polars)
    v = v.astype(np.result_type(v, float))
    jv = v.copy()
    jv[:, 5] *= -1.0
    return np.eye(6, dtype=v.dtype)[None, :, :] - 2.0 * v[:, :, None] * jv[:, None, :]


def assemble_group(c, cover):
    """Group data: the cover's adjacency as relations, and the amalgams: the
    shared squares of consecutive cubes whose four corners hold vertex balls."""
    chain = boxes(c.all_cubes)
    box, dim = meet(chain[:-1], chain[1:])
    pos = np.flatnonzero(dim == 2)
    lo, span = box[pos, :, 0], box[pos, :, 1] - box[pos, :, 0]
    # corner q takes bit 0 of q along the first spanned axis, bit 1 along the second
    bit = np.maximum(np.cumsum(span > 0, axis=1) - 1, 0)
    corners = lo[:, None] + (np.arange(4)[:, None] >> bit[:, None] & 1) * span[:, None]
    ids = np.sort(cover.vertex_balls(corners), axis=1)
    # straight: the same omitted axis (the one without extent), corners one axis apart
    extent = chain[..., 1] > chain[..., 0]
    straight = ((extent[:-1] == extent[1:]).all(axis=1)
                & ((chain[:-1, :, 0] != chain[1:, :, 0]).sum(axis=1) == 1))
    held = ids[:, 0] >= 0  # all four corners hold vertex balls
    amalgams = [
        Amalgam(index=k, cube_pair=(p, p + 1), square=list(map(tuple, box[p].tolist())),
                ball_ids=tuple(balls), straight=bool(straight[p]))
        for k, (p, balls) in enumerate(zip(pos[held].tolist(), ids[held].tolist()))
    ]
    group = ReflectionGroup(cover=cover, relations=cover.adjacency, amalgams=amalgams)
    _check_amalgams(group)
    return group


def _check_amalgams(group):
    """Each amalgam: 4 vertex balls, 4 adjacent pairs at exterior cosine +1/2
    (order 3) and 2 disjoint diagonals, in one classification of all pairs."""
    cover = group.cover
    for am in group.amalgams:
        if len(am.ball_ids) != 4:
            raise GroupError(f"amalgam {am.index} does not have 4 generators")
        if any(cover.roles[b] != ROLE_VERTEX for b in am.ball_ids):
            raise GroupError(f"amalgam {am.index} uses non-vertex balls")
    ids = np.array([am.ball_ids for am in group.amalgams], dtype=np.int64).reshape(-1, 4)
    a, b = np.triu_indices(4, 1)
    prod, order = pair_orders(cover.centers, cover.radii, ids[:, a].ravel(), ids[:, b].ravel())
    prod, order = prod.reshape(-1, 6), order.reshape(-1, 6)
    adjacent = (order == 3) & (prod > 0)
    legal = adjacent | (order == 0)
    bad = np.flatnonzero(~legal.all(axis=1) | (adjacent.sum(axis=1) != 4))
    if len(bad):
        x = bad[0]
        y, name = np.argmin(legal[x]), group.amalgams[x].index
        if not legal[x, y]:
            i, j = int(ids[x, a[y]]), int(ids[x, b[y]])
            raise GroupError(f"amalgam {name}: pair ({i},{j}) at product {prod[x, y]}")
        raise GroupError(f"amalgam {name}: {adjacent[x].sum()} of its 6 pairs at pi/3, not 4")


def relation_residuals(centers, radii, orders):
    """Per-pair residuals of (R_i R_k)^m = I, in each pair's unit frame.

    `centers` (n, 2, 4) and `radii` (n, 2) give the two spheres of each pair,
    `orders` (n,) its m.  The pair is moved to its `lz.frame`, midpoint at
    the origin and mean radius 1, before multiplying -- an exact group
    conjugation, so the residual is the same at any position and scale.
    Returns (residual, gap): the max-norm distance of (R_i R_k)^m from I, and
    the least such distance over the powers 1..m-1 (inf for m = 1).
    """
    shift, scale = lz.frame(centers, radii)
    pi, pk = (reflection_matrices(lz.spheres((centers[:, a] - shift) / scale[:, None],
                                             radii[:, a] / scale)) for a in (0, 1))
    prod = pi @ pk
    residual = np.zeros(len(orders))
    gap = np.full(len(orders), math.inf)
    power = prod
    top = int(orders.max(initial=0))
    for p in range(1, top + 1):
        dist = np.abs(power - np.eye(6)).max(axis=(1, 2))
        residual = np.where(orders == p, dist, residual)
        gap = np.where(orders > p, np.minimum(gap, dist), gap)
        if p < top:
            power = power @ prod
    return residual, gap


def _frame_keys(cols, radii, rels):
    """(n, 11) uint64 bits of what relation_residuals reads of each relation:
    both centres less the pair's frame shift (their midpoint), both radii,
    and m, from the centres' coordinate columns cols (4, N), as the .T of an
    (11, n) array.  The unit frame is a function of these bits: its scale
    is the radii's mean."""
    i, j = rels[:, 0], rels[:, 1]
    keys = np.empty((11, len(rels)))
    for a, x in enumerate(cols):
        ci, cj = x[i], x[j]
        shift = (ci + cj + 0.0) / 2  # lz.frame's einsum sums from +0.0: -0.0 + -0.0 is +0.0
        keys[a], keys[4 + a] = ci - shift, cj - shift
    keys[8], keys[9] = radii[i], radii[j]
    keys = keys.view(np.uint64)
    keys[10] = rels[:, 2]
    return keys.T


def relation_suite(group, tol=1e-8):
    """Verify (R_i R_j)^m = I for every finite-order pair, once per frame.

    Also checks no smaller positive power is within RELATION_SEPARATION of I
    (so the order is exactly m, not a divisor).  A relation's residual and
    gap depend only on its `_frame_keys` row, and the lattice cover repeats
    those rows (the preset's 177,358 relations have 768).  The rows are
    grouped exactly by _first_rows in two levels: within each slice of
    RELATION_BATCH relations, then over the slices' first rows.  Only each
    distinct row's first relation goes through `relation_residuals`, and
    every relation's residual and gap are those of a computed row, so the max
    and min are exact.  Returns a report dict; raises GroupError on a
    violation, with that dict as its `report`, and CoverError on a ball
    without a finite centre and a finite positive radius.
    """
    cover, rels = group.cover, group.relations
    _finite_balls(cover.centers, cover.radii)
    cols = np.ascontiguousarray(cover.centers.T)
    rows, keys = [np.zeros(0, dtype=np.intp)], [_frame_keys(cols, cover.radii, rels[:0])]
    for lo in range(0, len(rels), RELATION_BATCH):
        k = _frame_keys(cols, cover.radii, rels[lo : lo + RELATION_BATCH])
        first, _ = _first_rows(k)
        rows.append(lo + first)
        keys.append(k[first])
    first, _ = _first_rows(np.concatenate(keys))
    rows = np.concatenate(rows)[first]
    max_residual = 0.0
    min_premature = math.inf
    for lo in range(0, len(rows), RELATION_BATCH):
        chunk = rels[rows[lo : lo + RELATION_BATCH]]
        residual, gap = relation_residuals(cover.centers[chunk[:, :2]],
                                           cover.radii[chunk[:, :2]], chunk[:, 2])
        max_residual = max(max_residual, float(residual.max()))
        min_premature = min(min_premature, float(gap.min()))
    report = {
        "n_relations": len(rels),
        "max_residual": max_residual,
        "min_premature_gap": min_premature,
        "tolerance": tol,
        "ok": max_residual <= tol and min_premature > RELATION_SEPARATION,
    }
    if not report["ok"]:
        raise GroupError(f"relation suite failed: {report}", report=report)
    return report


# ---------------------------------------------------------------------------
# Sub-assemblies and word enumeration


@dataclasses.dataclass
class SubAssembly:
    """A generator subset in its `lz.frame`.  Centres and radii are in the
    cover's units about the frame shift `offset`; the polars and matrices
    are in the unit frame, these divided by `scale`."""

    ball_ids: tuple  # indices into the parent cover
    centers: np.ndarray  # (k, 4), recentered: original = centers + offset
    radii: np.ndarray
    polars: np.ndarray  # (k, 6) of centers / scale, radii / scale
    matrices: np.ndarray  # (k, 6, 6)
    cartan: np.ndarray  # (k, k) int 2B: 2 on the diagonal, 2 - m at order m, -2 if disjoint
    offset: np.ndarray  # the frame shift, the generators' mean centre
    scale: float  # the frame scale, the generators' mean radius


def subassembly(cover, ball_ids):
    """The generators `ball_ids` of the cover, with the integer Cartan matrix
    2B of their Coxeter group: B(a_a, a_b) = -cos(pi / m_ab) gives 0 and -1
    at orders 2 and 3, and -2 at disjoint pairs (order infinity)."""
    ids = tuple(int(b) for b in ball_ids)
    if len(set(ids)) != len(ids):
        raise GroupError("duplicate generator in sub-assembly")
    centers = cover.centers[list(ids)]
    radii = cover.radii[list(ids)]
    offset, scale = lz.frame(centers, radii)
    centers = centers - offset
    a, b = np.triu_indices(len(ids), 1)
    prod, order = pair_orders(centers, radii, a, b)
    if (order < 0).any():
        x = np.argmax(order < 0)
        raise GroupError(f"sub-assembly pair ({ids[a[x]]},{ids[b[x]]}) at product "
                         f"{prod[x]}: not disjoint, not at pi/2 or pi/3")
    cartan = np.full((len(ids), len(ids)), 2, dtype=np.int64)
    cartan[a, b] = cartan[b, a] = np.where(order > 0, 2 - order, -2)
    polars = lz.spheres(centers / scale, radii / scale)
    return SubAssembly(
        ball_ids=ids,
        centers=centers,
        radii=radii,
        polars=polars,
        matrices=reflection_matrices(polars),
        cartan=cartan,
        offset=offset,
        scale=float(scale),
    )


def pairwise_disjoint_subassembly(cover, n=4):
    """n mutually disjoint vertex balls, as tightly packed as possible.

    Used for nesting/decay studies, where strict parent containment needs
    Schottky-type generators.  Tightness matters numerically: orbit-sphere
    radii decay like the product of the pair dilations along a word, and a
    far pair (dilation ~1e4) drives generation-8 radii below what float64
    center arithmetic can resolve.  For n=4 a regular tetrahedron of face
    diagonals (all pairs at sqrt(2) * unit, dilation ~13.9) is sought first;
    otherwise fall back to a greedy sweep.  The tetrahedra are sought in
    vertex order, in chunks that double in size from QUAD_CHUNK vertices, up
    to the first chunk that holds one.
    """
    if n < 1:
        raise GroupError(f"a Schottky sub-assembly needs n >= 1 generators, not {n}")
    ell = cover.unit
    verts = cover.vertices  # row v is vertex ball v, in sorted lattice order
    if n == 4:
        offsets = np.array(((0, 0, 0, 0), (ell, ell, 0, 0), (ell, 0, ell, 0), (0, ell, ell, 0)))
        lo, size = 0, QUAD_CHUNK
        while lo < len(verts):
            quads = cover.vertex_balls(verts[lo : lo + size, None] + offsets)
            found = np.flatnonzero((quads >= 0).all(axis=1))
            if len(found):
                return subassembly(cover, quads[found[0]])
            lo, size = lo + size, 2 * size
    chosen = []
    for v in range(len(verts)):
        if all(((verts[v] - verts[w]) ** 2).sum() >= 2 * ell**2 for w in chosen):
            chosen.append(v)
        if len(chosen) == n:
            break
    if len(chosen) < n:
        raise GroupError(f"could not find {n} pairwise disjoint vertex balls")
    return subassembly(cover, chosen)


class Words(collections.abc.Sequence):
    """The words of a table's rows as a read-only sequence of tuples: row i's
    word is row prefix[i]'s followed by the letter last[i], and row 0 (prefix
    -1) is the identity ().  `rows`, if given, picks the rows listed, in that
    order.  len() builds no tuple; the first indexed read or iteration builds
    every word once."""

    def __init__(self, prefix, last, rows=None):
        self.prefix, self.last, self.rows = prefix, last, rows

    def __len__(self):
        return len(self.prefix if self.rows is None else self.rows)

    @functools.cached_property
    def _tuples(self):
        words = [()]
        for p, g in zip(self.prefix[1:].tolist(), self.last[1:].tolist()):
            words.append(words[p] + (g,))
        return words if self.rows is None else [words[r] for r in self.rows.tolist()]

    def __getitem__(self, i):
        return self._tuples[i]

    def __iter__(self):
        return iter(self._tuples)

    def __eq__(self, other):
        if not isinstance(other, collections.abc.Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


@dataclasses.dataclass
class WordTable:
    """Group elements with their shortlex-least words, sorted by (length, word).

    Row i is the product words[prefix[i]] . last[i]: its word minus the last
    letter is row prefix[i], and both are -1 at the identity (row 0)."""

    matrices: np.ndarray  # (n, 6, 6) Moebius matrices of the words
    tits: np.ndarray  # (n, k, k) integer Tits-representation matrices
    n_raw: int  # length-increasing products w.g visited, plus the identity
    n_merged: int  # products that reached an element already listed
    truncated: bool
    lengths: np.ndarray  # word lengths
    prefix: np.ndarray  # (n,) int64 row of words[i][:-1], -1 at the identity
    last: np.ndarray  # (n,) int64 last letter words[i][-1], -1 at the identity

    @functools.cached_property
    def words(self):
        """Tuples of local generator indices, read from prefix and last;
        words[0] == ()."""
        return Words(self.prefix, self.last)


def enumerate_words(sub, max_length, dtype=float):
    """Every group element of length <= max_length, once, by its shortlex word.

    Elements are the integer matrices of the Tits representation of the
    sub-assembly's Coxeter group, which is faithful, so equal matrices are
    equal elements.  Column g of W is the root w(a_g); in Tits coordinates
    s_g(a_b) = a_b + c a_g with c = 0, 1, 2 at orders 2, 3, infinity.  Each
    length is one pass over the products w.g, w of the previous length and
    g not a descent of w (column g has no negative entry).  Such a w.g is
    exactly one longer than w (Bjorner-Brenti, Combinatorics of Coxeter
    Groups, 1.6 and 4.2), so it can only equal a product of the same pass;
    keeping each product's first occurrence in (w, g) order keeps every
    element's shortlex-least word, and the table comes out sorted.  At most
    MAX_ELEMENTS elements are listed; a pass of more candidate Tits entries
    than MAX_TITS_ENTRIES raises GroupError before it builds them.

    The products are grouped by their k column sums 1^T W alone, not by
    their k^2 entries, and that is exact.  Let rho be the linear form with
    rho(a_s) = 1 for every simple root a_s, and let W act on forms by
    (w.phi)(x) = phi(w^-1 x).  Entry g of 1^T W is the coordinate sum of
    w(a_g), which is rho(w(a_g)) = (w^-1.rho)(a_g): the sums are the
    coordinates of w^-1.rho.  rho is positive on every simple root, so it
    lies in the open fundamental chamber, and by Tits' theorem (Bourbaki,
    Groupes et algebres de Lie V, 4.4-4.6) an element u with u C meeting C
    is 1, C being that chamber: a point of it has a trivial stabiliser.
    If v and w have equal sums, v^-1.rho = w^-1.rho, so w v^-1 fixes rho
    and v = w.  An entry grows at most threefold per letter and a sum adds
    k entries, so the pass raises GroupError before a front's entries could
    exceed TITS_MAX // k (checked once 3^length k can pass TITS_MAX): the
    entries and the sums of its products then stay below 2^62.

    `dtype` sets the accumulation precision of the geometric matrices.
    float64 rounding alone puts a floor of ~1e-16 * ||M||^2 on the Lorentz-
    form drift of a word matrix, so certifying drift below 1e-7 for words
    with ||M|| above ~3e4 (length-8 words through a disjoint pair) needs
    np.longdouble accumulation.  Each new word is its prefix times one
    reflection R_g = I - v_g (2 J v_g)^T.  float64 keeps the stacked BLAS
    product with sub.matrices: the report's bundle records its bits, and the
    rank-1 update's rounding in float64 would raise the drift of the single
    cube's Schottky table to length 6 from 4.1e-8 to 1.1e-7.  Long double
    has no BLAS path, and there the product is the rank-1 update
    M R_g = M - (M v_g)(2 J v_g)^T, 72 multiply-adds per word instead of
    216, with M v_g summed left to right over its six terms (the per-word
    reference in the tests pins these bits).
    """
    k = len(sub.ball_ids)
    eye = np.eye(k, dtype=np.int64)
    if np.dtype(dtype) == np.dtype(float):
        def step(m, g):
            return m @ sub.matrices[g]
    else:
        # renormalise the polars at the target precision: a float64 polar has
        # Q(v, v) = 1 only to ~1e-16, and that defect is amplified by the
        # word norm squared just like accumulation rounding
        v = sub.polars.astype(dtype)
        v /= np.sqrt((v[:, :5] ** 2).sum(axis=1) - v[:, 5] ** 2)[:, None]
        jv2 = 2.0 * v * np.diag(lz.J)

        def step(m, g):  # m is a fresh gathered stack, updated in place
            mv, w = np.einsum("nij,nj->ni", m, v[g]), jv2[g]
            for j in range(6):  # column by column: no (n, 6, 6) temporary
                m[:, :, j] -= mv * w[:, None, j]
            return m
    n_words = 1
    tits = [eye[None]]  # one block per length
    mats = [np.eye(6, dtype=dtype)[None]]
    prefix, last = [np.full(1, -1)], [np.full(1, -1)]
    n_raw, n_merged, truncated = 1, 0, False
    for length in range(max_length):
        front = tits[-1]
        f, g = np.nonzero((front >= 0).all(axis=1))  # g is not a descent of word f
        if truncated or not len(f):
            break
        if 3**length * k > TITS_MAX and int(np.abs(front).max()) * k > TITS_MAX:
            raise GroupError(f"Tits matrix entries overflow int64 beyond length {length}")
        if len(f) * k * k > MAX_TITS_ENTRIES:
            raise GroupError(f"words of length {length + 1} need {len(f) * k * k} Tits entries "
                             f"({len(f)} candidates of {k} x {k}), past the cap {MAX_TITS_ENTRIES}")
        # W s_g = W - (W e_g)(2B)_g, as s_g = I - e_g (2B)_g: updated in place
        # on the gathered fronts, column by column, with no second (n, k, k)
        # stack and one (n, k) product buffer for all k columns
        cand, wg = front[f], front[f, :, g]
        buf = np.empty_like(wg)
        for j in range(k):
            cand[:, :, j] -= np.multiply(wg, sub.cartan[g, j][:, None], out=buf)
        first, _ = _first_rows(_fold(np.add, cand.transpose(0, 2, 1)))  # the column sums
        room = max(0, MAX_ELEMENTS - n_words)
        truncated = len(first) > room  # then visited up to the first new product past the cap
        seen = int(first[room]) + 1 if truncated else len(cand)
        first = first[:room]
        n_raw += seen
        n_merged += seen - len(first) - truncated
        f, g = f[first], g[first]
        prefix.append(n_words - len(front) + f)
        n_words += len(first)
        last.append(g)
        tits.append(cand[first])
        mats.append(step(mats[-1][f], g))
    return WordTable(
        matrices=np.concatenate(mats),
        tits=np.concatenate(tits),
        n_raw=n_raw,
        n_merged=n_merged,
        truncated=truncated,
        lengths=np.repeat(np.arange(len(tits)), [len(t) for t in tits]),
        prefix=np.concatenate(prefix),
        last=np.concatenate(last),
    )


def lorentz_drift(table):
    """Max |M^T J M - J| entrywise over all words in the table, NaN if any
    entry is NaN.

    The form is evaluated in long double whatever the table's dtype, so the
    value is the matrices' own defect, not the rounding of a float64
    evaluation (~1e-8 for entries near 1e4).  J is diagonal, so
    M^T J M = A^T A - b b^T with A the rows 0-4 of M and b its row 5; the
    form is symmetric, so row i is taken from column i on only.
    """
    mt = np.swapaxes(table.matrices, 1, 2).astype(np.longdouble, order="C")  # row i: M's column i
    worst = []
    for i in range(6):
        g = np.einsum("njk,nk->nj", mt[:, i:, :5], mt[:, i, :5])  # (A^T A)[i, i:]
        g -= mt[:, i:, 5] * mt[:, i, 5, None]
        g[:, 0] -= lz.J[i, i]
        worst.append(np.abs(g, out=g).max())
    return float(np.max(worst))


def faithfulness_scan(sub, max_length):
    """No nonempty word class evaluates to the identity.

    Every class is a distinct element of the abstract Coxeter group (the
    Tits representation is faithful), so a non-identity class whose Moebius
    matrix is within FAITHFUL_GAP of I is a relation the geometry adds that the
    Coxeter orders do not: a failure of faithfulness.  A class whose gap is
    not a number is counted as a violation too.  Reports the minimum gap and
    every violating word.
    """
    table = enumerate_words(sub, max_length)
    gaps = np.abs(table.matrices - np.eye(6)[None]).max(axis=(1, 2))
    nontrivial = table.lengths > 0
    min_gap = float(gaps[nontrivial].min()) if nontrivial.any() else math.inf
    violations = [
        table.words[i] for i in np.nonzero(nontrivial & ~(gaps > FAITHFUL_GAP))[0]  # NaN too
    ]
    return {
        "max_length": max_length,
        "n_classes": len(table.lengths),
        "min_gap": min_gap,
        "violations": violations,
        "ok": not violations,
    }


# ---------------------------------------------------------------------------
# Sphere orbits, nesting, polyhedron stages


@dataclasses.dataclass
class OrbitTable:
    words: Words  # acting word per sphere, () for the seeds; words.rows: its word table rows
    seed: np.ndarray  # which generator sphere the word acts on
    roots: np.ndarray  # (n, k) positive Tits root naming each sphere
    centers: np.ndarray  # (n, 4), in the cover's units about the sub-assembly's offset
    radii: np.ndarray  # in the cover's units
    generation: np.ndarray  # word length
    parent: np.ndarray  # row of the smallest strictly containing prefix sphere, or -1
    truncated: bool


def orbit_spheres(sub, max_length):
    """Orbit of the generator spheres under words of length <= max_length.

    The sphere w.B_s is named by its root w(a_s) and listed at the first
    word, in (length, word) order, where that root is positive and new: a
    negative root is the sphere of the shorter w.s, and equal roots are the
    same sphere.  Its parent is the smallest strictly containing sphere among
    the prefix spheres w[:j].B_{w[j]}: a ball that contains w.B_s has its
    wall between P and wP, and those walls are exactly the prefix walls.
    Rows are in (generation, word, seed) order, so parents come first; at
    most MAX_ELEMENTS spheres are listed.  The spheres and their parents are
    found in the sub-assembly's unit frame, and listed in the cover's units
    about `sub.offset`.
    """
    k = len(sub.ball_ids)
    table = enumerate_words(sub, max_length)
    n = len(table.lengths)
    roots = table.tits.transpose(0, 2, 1).reshape(n * k, k)  # row w.k + s is w(a_s)
    positive = np.flatnonzero((roots >= 0).all(axis=1))
    first, rank = _first_rows(roots[positive])
    rows = positive[first]  # the table row naming each sphere, in seq order
    seq_of = np.full(n * k, -1)
    seq_of[positive] = rank
    truncated = len(rows) > MAX_ELEMENTS
    n = rows[MAX_ELEMENTS] // k + 1 if truncated else n  # words up to the cut
    rows = rows[:MAX_ELEMENTS]
    pol = (table.matrices[:n] @ sub.polars.T).transpose(0, 2, 1).reshape(n * k, 6)
    try:
        centers, radii = lz.centers_radii(pol)
    except ValueError as exc:  # a sphere through infinity has no center
        flat = np.abs(pol[:, 4] - pol[:, 5]) <= lz.HYPERPLANE_TOL  # centers_radii's test
        word = table.words[int(np.argmax(flat)) // k]
        raise GroupError(f"word {word} sends a generator sphere through infinity") from exc
    # walls[w, :len(w)]: seqs of w's prefix spheres; the last one is the sphere
    # at row prefix.k + last, and the others are the prefix word's walls
    prefix = table.prefix[:n]
    step = prefix * k + table.last[:n]
    walls = np.full((n, max(1, max_length)), -1)
    for length in range(1, max_length + 1):
        at = table.lengths[:n] == length
        walls[at, : length - 1] = walls[prefix[at], : length - 1]
        walls[at, length - 1] = seq_of[step[at]]
    word_of = rows // k
    return OrbitTable(
        words=Words(table.prefix, table.last, word_of),
        seed=rows % k,
        roots=roots[rows],
        centers=centers[rows] * sub.scale,
        radii=radii[rows] * sub.scale,
        generation=table.lengths[word_of],
        parent=_smallest_container(centers[rows], radii[rows], np.sort(walls[word_of], axis=1)),
        truncated=truncated,
    )


def _smallest_container(centers, radii, cand):
    """Per row i, the candidate p in cand[i] (-1 = none) of least radius with
    |c_i - c_p| + r_i < r_p - 1e-12 (lengths in a unit frame), the lowest
    such p on a tie; -1 if none."""
    p = np.maximum(cand, 0)
    diff = np.take(centers, p, axis=0) - centers[:, None, :]  # a row gather: faster than [p]
    diff *= diff
    d = np.sqrt(_fold(np.add, diff))
    rp = np.take(radii, p)
    inside = (cand >= 0) & (d + radii[:, None] < rp - 1e-12)
    best = np.argmin(np.where(inside, rp, np.inf), axis=1)
    return np.where(inside.any(axis=1), cand[np.arange(len(cand)), best], -1)


def max_radius_per_generation(orbit):
    """{generation: largest radius among its spheres}, ascending by generation."""
    order = np.argsort(orbit.generation, kind="stable")
    gen = orbit.generation[order]
    start = np.flatnonzero(np.diff(gen, prepend=gen[:1] - 1))  # each generation's first row
    top = np.maximum.reduceat(orbit.radii[order], start)
    return dict(zip(gen[start].tolist(), top.tolist()))


@dataclasses.dataclass(frozen=True)
class PolyhedronStage:
    k: int
    reflector_seq: int  # orbit seq of the mirror sphere, -1 for the base stage
    n_sides: int
    sides: tuple  # sorted positive Tits roots of the bounding spheres


def polyhedron_stages(sub, orbit, n_stages):
    """Doubling sequence: P_k = P_{k-1} union (reflection of P_{k-1}).

    P_0 is the common exterior of the generator balls; stage k doubles
    across the lowest-seq orbit sphere that carries a current side.  Sides
    are positive Tits roots: side b reflected in mirror g is b - (g^T 2B b) g,
    sign normalised.  Side counts come from the explicit side set: 2s - 2 on
    Schottky sub-assemblies (4, 6, 10, 18, 34), fewer where two sides are
    mirror images (4, 6, 10, 16, 30, 52, 98 on a tube's amalgams).  At most
    MAX_ELEMENTS sides are listed: a stage whose bound 2s - 2 passes the cap
    raises GroupError before it is built.
    """
    sides = {tuple(r) for r in np.eye(len(sub.ball_ids), dtype=np.int64).tolist()}
    stages = [PolyhedronStage(0, -1, len(sides), tuple(sorted(sides)))]
    roots = orbit.roots
    used = set()
    for k in range(1, n_stages + 1):
        if 2 * len(sides) - 2 > MAX_ELEMENTS:
            raise GroupError(f"stage {k} can have up to {2 * len(sides) - 2} sides, past the "
                             f"cap {MAX_ELEMENTS}")
        mirror_seq = next(  # rows become tuples lazily, in seq order
            (i for i in range(len(roots)) if i not in used and tuple(roots[i].tolist()) in sides),
            None,
        )
        if mirror_seq is None:
            break  # orbit exhausted before the requested stage count
        used.add(mirror_seq)
        gamma = roots[mirror_seq]
        mirror = tuple(gamma.tolist())
        new_sides = set()
        for side in sides - {mirror}:  # the mirror stops being a side of the doubled body
            beta = np.array(side)
            img = beta - (gamma @ sub.cartan @ beta) * gamma
            new_sides |= {side, tuple((-img if (img < 0).any() else img).tolist())}
        sides = new_sides
        stages.append(PolyhedronStage(k, mirror_seq, len(sides), tuple(sorted(sides))))
    return stages


# ---------------------------------------------------------------------------
# Fundamental-domain evidence


def _image_dist2(c, r, p):
    """Squared distances from the centres c of the images of the points p
    under inversion in the balls (c, r), c and p as coordinate columns
    (4, ...), each sum over the coordinates left to right."""
    diff = p - c
    img = c + r * r / _fold(np.add, np.moveaxis(diff * diff, 0, -1)) * diff
    img -= c
    return _fold(np.add, np.moveaxis(img * img, 0, -1))


def fundamental_domain_check(cover, budget=100_000, seed=0):
    """Monte-Carlo check that generators push the common exterior inside.

    Samples points outside every ball, in the centres' bounding box padded
    by two tube units, and counts, for the first min(n, budget) generators
    of a random order with per_gen = max(1, budget // n) of the points each,
    the points whose inversion image does not lie strictly inside the
    generator's ball.  A point outside a ball, at distance d > r from its
    centre, has its image at distance r^2 / d < r, inside the ball by
    construction, so the count is 0 whenever the sampler finds exterior
    points, whatever the cover; with none, nothing is checked and the
    report is not ok.  The checks run DOMAIN_SLICE at a time, so memory
    does not grow with the budget; slicing moves no draw or result bit.
    Returns a report with the violation count.  A ball without a finite
    centre and a finite positive radius raises CoverError.
    """
    _finite_balls(cover.centers, cover.radii)
    rng = np.random.default_rng(seed)
    n = len(cover)
    per_gen = max(1, budget // n)
    gen_order = rng.permutation(n)
    cols = np.ascontiguousarray(cover.centers.T)
    lo = cols.min(axis=1) - 2.0 * cover.unit
    hi = cols.max(axis=1) + 2.0 * cover.unit

    # sample domain points by rejection; a point inside a ball lies within
    # r_max of its centre, so the grid join lists every ball that holds it
    n_points = max(per_gen * 4, 64)
    side = float(cover.radii.max()) * (1.0 + 1e-9)
    pts = []
    attempts = 0
    while len(pts) < n_points and attempts < 100:
        cand = rng.random((n_points, 4)) * (hi - lo) + lo
        inside = np.zeros(len(cand), dtype=bool)
        for i, j in _grid_join(cand, cover.centers, side):
            dd = ((cand[i] - cover.centers[j]) ** 2).sum(-1) - cover.radii[j] ** 2
            inside[i[dd < 0]] = True
        pts.extend(cand[~inside])
        attempts += 1
    pts = np.array(pts[:n_points]).reshape(-1, 4)

    gens = gen_order[: max(0, budget) if len(pts) else 0]  # no exterior point: nothing to check
    checks = len(gens) * per_gen
    violations = 0
    for s in range(0, checks, DOMAIN_SLICE):  # check q is generator q // per_gen's
        q = np.arange(s, min(s + DOMAIN_SLICE, checks))
        g = gens[q // per_gen]
        take = np.take(pts.T, rng.integers(0, len(pts), len(q)), axis=1)
        r = cover.radii[g]
        violations += int((_image_dist2(np.take(cols, g, axis=1), r, take) >= r * r).sum())
    return {
        "budget": budget,
        "checks": checks,
        "n_sample_points": len(pts),
        "violations": violations,
        "ok": violations == 0 and len(pts) > 0 and checks > 0,
    }
