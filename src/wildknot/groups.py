"""Reflection group machinery on top of a ball cover.

The cover's balls generate a discrete group of Moebius transformations: one
inversion per ball, with Coxeter relations (R_i R_j)^m = 1 coming from the
realized dihedral angles (m = 2 at pi/2 pairs, m = 3 at pi/3 pairs, none for
disjoint pairs).  This module assembles that group, verifies its relation
suite, enumerates group elements exactly in the integer Tits representation
of the Coxeter group, runs faithfulness and fundamental-domain evidence
scans, and computes sphere orbits named by their Tits roots, with their
nesting parents, plus the doubled-polyhedron stage sequence.

Word enumeration on the full cover is hopeless (tens of thousands of
generators); the word-level tooling therefore operates on a *sub-assembly*: a
chosen subset of generators recentered at its own centroid, which is an exact
conjugation and keeps the 6x6 matrices well-conditioned.  Orbit nesting and
radius-decay statements use sub-assemblies whose generators are pairwise
disjoint, where every reflected sphere is strictly nested in the mirror.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import lorentz as lz
from .complexes import boxes, meet
from .cover import ROLE_VERTEX, _finite_balls, _first_rows, _grid_join, pair_orders

# Tits matrix entries at most triple per letter; 3**38 < TITS_MAX.
TITS_MAX = 2**62 // 3
# Cap on listed group elements, and on listed orbit spheres.
MAX_ELEMENTS = 2_000_000
# Rows per batch in relation_suite: relations per frame-key slice, whose
# (batch, 11) key temporaries it bounds, and distinct frames per
# relation_residuals call, whose (batch, 6, 6) temporaries it bounds.
RELATION_BATCH = 4096
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
    cover: object
    relations: np.ndarray  # cover.adjacency itself: (n, 3) int64 rows (i, j, order m)
    amalgams: list

    @property
    def n_generators(self):
        return len(self.cover)


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
    """Per-pair residuals of (R_i R_k)^m = I, in each pair's midpoint frame.

    `centers` (n, 2, 4) and `radii` (n, 2) give the two spheres of each pair,
    `orders` (n,) its m.  The pair is translated so its midpoint is the origin
    before multiplying -- an exact group conjugation that avoids the precision
    loss of lattice-scale coordinates.  Returns (residual, gap): the max-norm
    distance of (R_i R_k)^m from I, and the least such distance over the
    powers 1..m-1 (inf for m = 1).
    """
    mid = 0.5 * (centers[:, 0] + centers[:, 1])
    pi = lz.spheres(centers[:, 0] - mid, radii[:, 0])
    pk = lz.spheres(centers[:, 1] - mid, radii[:, 1])
    prod = reflection_matrices(pi) @ reflection_matrices(pk)
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


def _frame_keys(cover, rels):
    """(n, 11) uint64 bits of what relation_residuals reads of each relation:
    both centres less their midpoint, both radii, and m."""
    ci, cj = cover.centers[rels[:, 0]], cover.centers[rels[:, 1]]
    mid = 0.5 * (ci + cj)
    frame = np.column_stack([ci - mid, cj - mid, cover.radii[rels[:, 0]], cover.radii[rels[:, 1]]])
    return np.column_stack([frame.view(np.uint64), rels[:, 2].astype(np.uint64)])


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
    rows, keys = [np.zeros(0, dtype=np.intp)], [_frame_keys(cover, rels[:0])]
    for lo in range(0, len(rels), RELATION_BATCH):
        k = _frame_keys(cover, rels[lo : lo + RELATION_BATCH])
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
    """A generator subset, recentered for numerical conditioning."""

    ball_ids: tuple  # indices into the parent cover
    centers: np.ndarray  # (k, 4), recentered
    radii: np.ndarray
    polars: np.ndarray
    matrices: np.ndarray  # (k, 6, 6)
    cartan: np.ndarray  # (k, k) int 2B: 2 on the diagonal, 2 - m at order m, -2 if disjoint
    offset: np.ndarray  # subtracted centroid (original = centers + offset)


def subassembly(cover, ball_ids):
    """The generators `ball_ids` of the cover, with the integer Cartan matrix
    2B of their Coxeter group: B(a_a, a_b) = -cos(pi / m_ab) gives 0 and -1
    at orders 2 and 3, and -2 at disjoint pairs (order infinity)."""
    ids = tuple(int(b) for b in ball_ids)
    if len(set(ids)) != len(ids):
        raise GroupError("duplicate generator in sub-assembly")
    centers = cover.centers[list(ids)].copy()
    radii = cover.radii[list(ids)].copy()
    offset = centers.mean(axis=0)
    centers -= offset
    a, b = np.triu_indices(len(ids), 1)
    prod, order = pair_orders(centers, radii, a, b)
    if (order < 0).any():
        x = np.argmax(order < 0)
        raise GroupError(f"sub-assembly pair ({ids[a[x]]},{ids[b[x]]}) at product "
                         f"{prod[x]}: not disjoint, not at pi/2 or pi/3")
    cartan = np.full((len(ids), len(ids)), 2, dtype=np.int64)
    cartan[a, b] = cartan[b, a] = np.where(order > 0, 2 - order, -2)
    polars = lz.spheres(centers, radii)
    return SubAssembly(
        ball_ids=ids,
        centers=centers,
        radii=radii,
        polars=polars,
        matrices=reflection_matrices(polars),
        cartan=cartan,
        offset=offset,
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


@dataclasses.dataclass
class WordTable:
    """Group elements with their shortlex-least words, sorted by (length, word).

    Row i is the product words[prefix[i]] . last[i]: its word minus the last
    letter is row prefix[i], and both are -1 at the identity (row 0)."""

    words: list  # tuples of local generator indices; words[0] == ()
    matrices: np.ndarray  # (n, 6, 6) Moebius matrices of the words
    tits: np.ndarray  # (n, k, k) integer Tits-representation matrices
    n_raw: int  # length-increasing products w.g visited, plus the identity
    n_merged: int  # products that reached an element already listed
    truncated: bool
    lengths: np.ndarray  # word lengths
    prefix: np.ndarray  # (n,) int64 row of words[i][:-1], -1 at the identity
    last: np.ndarray  # (n,) int64 last letter words[i][-1], -1 at the identity


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
    MAX_ELEMENTS elements are listed.

    `dtype` sets the accumulation precision of the geometric matrices.
    float64 rounding alone puts a floor of ~1e-16 * ||M||^2 on the Lorentz-
    form drift of a word matrix, so certifying drift below 1e-7 for words
    with ||M|| above ~3e4 (length-8 words through a disjoint pair) needs
    np.longdouble accumulation.
    """
    k = len(sub.ball_ids)
    eye = np.eye(k, dtype=np.int64)
    tits_gens = eye[None] - eye[:, :, None] * sub.cartan[:, None, :]  # s_g = I - e_g (2B)_g
    if np.dtype(dtype) == np.dtype(float):
        gen_mats = sub.matrices
    else:
        # rebuild the generators at the target precision: a float64 polar has
        # Q(v, v) = 1 only to ~1e-16, and that defect is amplified by the
        # word norm squared just like accumulation rounding
        v = sub.polars.astype(dtype)
        qv = (v[:, :5] ** 2).sum(axis=1) - v[:, 5] ** 2
        gen_mats = reflection_matrices(v / np.sqrt(qv)[:, None])
    words = [()]
    tits = [eye[None]]  # one block per length
    mats = [np.eye(6, dtype=dtype)[None]]
    prefix, last = [np.full(1, -1)], [np.full(1, -1)]
    n_raw, n_merged, truncated = 1, 0, False
    for length in range(max_length):
        front = tits[-1]
        f, g = np.nonzero((front >= 0).all(axis=1))  # g is not a descent of word f
        if truncated or not len(f):
            break
        if length >= 38 and np.abs(front).max() > TITS_MAX:
            raise GroupError(f"Tits matrix entries overflow int64 beyond length {length}")
        cand = front[f] @ tits_gens[g]
        first, _ = _first_rows(cand.reshape(len(cand), -1))
        room = max(0, MAX_ELEMENTS - len(words))
        truncated = len(first) > room  # then visited up to the first new product past the cap
        seen = int(first[room]) + 1 if truncated else len(cand)
        first = first[:room]
        n_raw += seen
        n_merged += seen - len(first) - truncated
        f, g = f[first], g[first]
        base = len(words) - len(front)
        words += [words[base + i] + (j,) for i, j in zip(f.tolist(), g.tolist())]
        prefix.append(base + f)
        last.append(g)
        tits.append(cand[first])
        mats.append(mats[-1][f] @ gen_mats[g])
    return WordTable(
        words=words,
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
    """Max || M^T J M - J ||_inf over all words in the table."""
    m = table.matrices
    g = np.swapaxes(m, 1, 2) @ (m * np.diag(lz.J)[:, None])  # M^T J M, J diagonal
    return float(np.abs(g - lz.J[None]).max())


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
        "n_classes": len(table.words),
        "min_gap": min_gap,
        "violations": violations,
        "ok": not violations,
    }


# ---------------------------------------------------------------------------
# Sphere orbits, nesting, polyhedron stages


@dataclasses.dataclass
class OrbitTable:
    seq: np.ndarray  # enumeration index = row number
    words: list  # acting word per sphere (identity for the seeds)
    seed: np.ndarray  # which generator sphere the word acts on
    roots: np.ndarray  # (n, k) positive Tits root naming each sphere
    centers: np.ndarray  # (n, 4)
    radii: np.ndarray
    polars: np.ndarray
    generation: np.ndarray  # word length
    parent: np.ndarray  # seq of the smallest strictly containing prefix sphere, or -1
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
    most MAX_ELEMENTS spheres are listed.
    """
    k = len(sub.ball_ids)
    table = enumerate_words(sub, max_length)
    n = len(table.words)
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
        seq=np.arange(len(rows)),
        words=[table.words[w] for w in word_of.tolist()],
        seed=rows % k,
        roots=roots[rows],
        centers=centers[rows],
        radii=radii[rows],
        polars=pol[rows],
        generation=table.lengths[word_of],
        parent=_smallest_container(centers[rows], radii[rows], np.sort(walls[word_of], axis=1)),
        truncated=truncated,
    )


def _smallest_container(centers, radii, cand):
    """Per row i, the candidate p in cand[i] (-1 = none) of least radius with
    |c_i - c_p| + r_i < r_p - 1e-12, the lowest such p on a tie; -1 if none."""
    p = np.maximum(cand, 0)
    diff = centers[p] - centers[:, None, :]
    d = np.sqrt((diff * diff).sum(axis=-1))
    inside = (cand >= 0) & (d + radii[:, None] < radii[p] - 1e-12)
    best = np.argmin(np.where(inside, radii[p], np.inf), axis=1)
    return np.where(inside.any(axis=1), cand[np.arange(len(cand)), best], -1)


def max_radius_per_generation(orbit):
    gens = sorted(set(int(g) for g in orbit.generation))
    return {g: float(orbit.radii[orbit.generation == g].max()) for g in gens}


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
    mirror images (4, 6, 10, 16, 30, 52, 98 on a tube's amalgams).
    """
    sides = {tuple(r) for r in np.eye(len(sub.ball_ids), dtype=np.int64).tolist()}
    stages = [PolyhedronStage(0, -1, len(sides), tuple(sorted(sides)))]
    roots = orbit.roots
    used = set()
    for k in range(1, n_stages + 1):
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


def fundamental_domain_check(cover, budget=100_000, seed=0):
    """Monte-Carlo check that generators push the common exterior inside.

    Samples points outside every ball and verifies, for the first
    min(n, budget) generators of a random order with per_gen =
    max(1, budget // n) of the points each, that the inversion image of each
    point lies strictly inside the generator's ball (hence outside the
    domain).  Returns a report with the violation count.  A ball without a
    finite centre and a finite positive radius raises CoverError.
    """
    _finite_balls(cover.centers, cover.radii)
    rng = np.random.default_rng(seed)
    n = len(cover)
    per_gen = max(1, budget // n)
    gen_order = rng.permutation(n)
    lo = cover.centers.min(axis=0) - 2.0
    hi = cover.centers.max(axis=0) + 2.0

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
    pts = np.array(pts[:n_points])

    gens = gen_order[: max(0, budget)]
    take = pts[rng.integers(0, len(pts), (len(gens), per_gen))]  # (k, per_gen, 4)
    c = cover.centers[gens][:, None, :]
    r = cover.radii[gens][:, None]
    diff = take - c
    dist2 = (diff * diff).sum(axis=2)
    img = c + (r * r / dist2)[:, :, None] * diff
    img_dist2 = ((img - c) ** 2).sum(axis=2)
    violations = int((img_dist2 >= r * r).sum())
    checks = len(gens) * per_gen
    return {
        "budget": budget,
        "checks": checks,
        "n_sample_points": len(pts),
        "violations": violations,
        "ok": violations == 0 and len(pts) > 0 and checks > 0,
    }
