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
from .cover import ROLE_VERTEX, _grid_join

# Tits matrix entries at most triple per letter; 3**38 < TITS_MAX.
TITS_MAX = 2**62 // 3


class GroupError(ValueError):
    pass


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
    """(N,6,6) inversion matrices: M = I - 2 v (Jv)^T for unit polars v."""
    v = np.asarray(polars, dtype=float)
    jv = v.copy()
    jv[:, 5] *= -1.0
    return np.eye(6)[None, :, :] - 2.0 * v[:, :, None] * jv[:, None, :]


def _square_corners(square):
    axes = [a for a in range(4) if square[a][1] > square[a][0]]
    if len(axes) != 2:
        return None
    u, v = axes
    base = [lo for lo, _ in square]
    corners = []
    for du in (square[u][0], square[u][1]):
        for dv in (square[v][0], square[v][1]):
            p = list(base)
            p[u] = du
            p[v] = dv
            corners.append(tuple(p))
    return corners


def assemble_group(c, cover):
    """Group data: the cover's adjacency as relations, and the amalgams."""
    cubes = c.all_cubes
    amalgams = []
    for pos in range(len(cubes) - 1):
        a, b = cubes[pos], cubes[pos + 1]
        square = a.box_intersection(b)
        corners = _square_corners(square)
        if corners is None:
            continue
        ids = []
        for corner in corners:
            ball = cover.vertex_index.get(corner)
            if ball is None:
                ids = None
                break
            ids.append(ball)
        if ids is None:
            continue
        straight = a.omitted_axis == b.omitted_axis and sum(
            x != y for x, y in zip(a.corner, b.corner)
        ) == 1
        amalgams.append(
            Amalgam(
                index=len(amalgams),
                cube_pair=(pos, pos + 1),
                square=square,
                ball_ids=tuple(sorted(ids)),
                straight=straight,
            )
        )

    group = ReflectionGroup(cover=cover, relations=cover.adjacency, amalgams=amalgams)
    _check_amalgams(group)
    return group


def _check_amalgams(group):
    """Each amalgam: 4 balls, 4 adjacent pi/3 pairs, 2 disjoint diagonals."""
    cover = group.cover
    for am in group.amalgams:
        if len(am.ball_ids) != 4:
            raise GroupError(f"amalgam {am.index} does not have 4 generators")
        if any(cover.roles[b] != ROLE_VERTEX for b in am.ball_ids):
            raise GroupError(f"amalgam {am.index} uses non-vertex balls")
        kinds = {"intersecting": 0, "disjoint": 0}
        for x in range(4):
            for y in range(x + 1, 4):
                i, j = am.ball_ids[x], am.ball_ids[y]
                cos = lz.euclidean_exterior_cos(
                    cover.centers[i], cover.radii[i], cover.centers[j], cover.radii[j]
                )
                if abs(cos - 0.5) <= 1e-9:
                    kinds["intersecting"] += 1
                elif cos > 1.0 + 1e-9:
                    kinds["disjoint"] += 1
                else:
                    raise GroupError(
                        f"amalgam {am.index}: pair ({i},{j}) at product {cos}"
                    )
        if kinds != {"intersecting": 4, "disjoint": 2}:
            raise GroupError(f"amalgam {am.index}: bad pair pattern {kinds}")


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
    prod = np.einsum("nab,nbc->nac", reflection_matrices(pi), reflection_matrices(pk))
    residual = np.zeros(len(orders))
    gap = np.full(len(orders), math.inf)
    power = prod
    top = int(orders.max(initial=0))
    for p in range(1, top + 1):
        dist = np.abs(power - np.eye(6)).max(axis=(1, 2))
        residual = np.where(orders == p, dist, residual)
        gap = np.where(orders > p, np.minimum(gap, dist), gap)
        if p < top:
            power = np.einsum("nab,nbc->nac", power, prod)
    return residual, gap


def relation_suite(group, tol=1e-8, separation=0.5, batch=4096):
    """Verify (R_i R_j)^m = I for every finite-order pair, in batches.

    Also checks no smaller positive power is within `separation` of I (so the
    order is exactly m, not a divisor).  See `relation_residuals`.  Returns a
    report dict; raises GroupError on a violation.
    """
    cover = group.cover
    rels = group.relations
    max_residual = 0.0
    min_premature = math.inf
    for lo in range(0, len(rels), batch):
        chunk = rels[lo : lo + batch]
        residual, gap = relation_residuals(
            cover.centers[chunk[:, :2]], cover.radii[chunk[:, :2]], chunk[:, 2]
        )
        max_residual = max(max_residual, float(residual.max()))
        min_premature = min(min_premature, float(gap.min()))
    report = {
        "n_relations": len(rels),
        "max_residual": max_residual,
        "min_premature_gap": min_premature,
        "tolerance": tol,
        "ok": max_residual <= tol and min_premature > separation,
    }
    if not report["ok"]:
        raise GroupError(f"relation suite failed: {report}")
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
    coxeter: dict  # (a, b) local indices, a < b -> order (finite pairs only)
    offset: np.ndarray  # subtracted centroid (original = centers + offset)


def subassembly(cover, ball_ids, recenter=True):
    ids = tuple(int(b) for b in ball_ids)
    if len(set(ids)) != len(ids):
        raise GroupError("duplicate generator in sub-assembly")
    centers = cover.centers[list(ids)].copy()
    radii = cover.radii[list(ids)].copy()
    offset = centers.mean(axis=0) if recenter else np.zeros(4)
    centers -= offset
    polars = lz.spheres(centers, radii)
    coxeter = {}
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            cfg = lz.pair_configuration(polars[a], polars[b])
            if cfg.kind == "intersecting":
                if cfg.order is None:
                    raise GroupError(
                        f"sub-assembly pair ({ids[a]},{ids[b]}) at illegal angle"
                    )
                coxeter[(a, b)] = cfg.order
            elif cfg.kind != "disjoint":
                raise GroupError(
                    f"sub-assembly pair ({ids[a]},{ids[b]}) is {cfg.kind}"
                )
    return SubAssembly(
        ball_ids=ids,
        centers=centers,
        radii=radii,
        polars=polars,
        matrices=reflection_matrices(polars),
        coxeter=coxeter,
        offset=np.asarray(offset, dtype=float),
    )


def pairwise_disjoint_subassembly(cover, n=4):
    """n mutually disjoint vertex balls, as tightly packed as possible.

    Used for nesting/decay studies, where strict parent containment needs
    Schottky-type generators.  Tightness matters numerically: orbit-sphere
    radii decay like the product of the pair dilations along a word, and a
    far pair (dilation ~1e4) drives generation-8 radii below what float64
    center arithmetic can resolve.  For n=4 a regular tetrahedron of face
    diagonals (all pairs at sqrt(2) * unit, dilation ~13.9) is sought first;
    otherwise fall back to a greedy sweep.
    """
    if n < 1:
        raise GroupError(f"a Schottky sub-assembly needs n >= 1 generators, not {n}")
    ell = cover.unit
    if n == 4:
        offsets = ((ell, ell, 0, 0), (ell, 0, ell, 0), (0, ell, ell, 0))
        for v in sorted(cover.vertex_index):
            quad = [v] + [tuple(a + b for a, b in zip(v, o)) for o in offsets]
            if all(w in cover.vertex_index for w in quad):
                return subassembly(cover, [cover.vertex_index[w] for w in quad])
    verts = sorted(cover.vertex_index)
    chosen = []
    for v in verts:
        if all(
            sum((a - b) ** 2 for a, b in zip(v, w)) >= 2 * cover.unit**2
            for w in chosen
        ):
            chosen.append(v)
        if len(chosen) == n:
            break
    if len(chosen) < n:
        raise GroupError(f"could not find {n} pairwise disjoint vertex balls")
    return subassembly(cover, [cover.vertex_index[v] for v in chosen])


def _cartan(sub):
    """2B, B the Tits form of the sub-assembly's Coxeter group, as integers.

    B(a_a, a_b) = -cos(pi / m_ab): orders 2 and 3 give off-diagonal entries
    0 and -1, and disjoint pairs (order infinity) give -2.
    """
    k = len(sub.ball_ids)
    cartan = np.full((k, k), -2, dtype=np.int64)
    for (a, b), m in sub.coxeter.items():
        if m not in (2, 3):
            raise GroupError(f"sub-assembly pair ({a},{b}) has order {m}, not 2 or 3")
        cartan[a, b] = cartan[b, a] = 2 - m
    np.fill_diagonal(cartan, 2)
    return cartan


@dataclasses.dataclass
class WordTable:
    """Group elements with their shortlex-least words, sorted by (length, word)."""

    words: list  # tuples of local generator indices; words[0] == ()
    matrices: np.ndarray  # (n, 6, 6) Moebius matrices of the words
    tits: np.ndarray  # (n, k, k) integer Tits-representation matrices
    n_raw: int  # length-increasing products w.g visited, plus the identity
    n_merged: int  # products that reached an element already listed
    truncated: bool
    lengths: np.ndarray  # word lengths


def enumerate_words(sub, max_length, max_elements=2_000_000, dtype=float):
    """Every group element of length <= max_length, once, by its shortlex word.

    Elements are the integer matrices of the Tits representation of the
    sub-assembly's Coxeter group, which is faithful, so equal matrices are
    equal elements.  Column g of W is the root w(a_g); in Tits coordinates
    s_g(a_b) = a_b + c a_g with c = 0, 1, 2 at orders 2, 3, infinity.  The
    search is breadth-first in lexicographic order and skips w.g when g is
    a descent of w (column g has a negative entry, so w.g is shorter) or
    when w.g's matrix was already reached; each element thus keeps its
    shortlex-least word, and the table comes out sorted.

    `dtype` sets the accumulation precision of the geometric matrices.
    float64 rounding alone puts a floor of ~1e-16 * ||M||^2 on the Lorentz-
    form drift of a word matrix, so certifying drift below 1e-7 for words
    with ||M|| above ~3e4 (length-8 words through a disjoint pair) needs
    np.longdouble accumulation.
    """
    k = len(sub.ball_ids)
    cartan = _cartan(sub)
    eye = np.eye(k, dtype=np.int64)
    tits_gens = eye[None] - eye[:, :, None] * cartan[:, None, :]  # s_g = I - e_g (2B)_g
    if np.dtype(dtype) == np.dtype(float):
        gen_mats = sub.matrices
    else:
        # rebuild the generators at the target precision: a float64 polar has
        # Q(v, v) = 1 only to ~1e-16, and that defect is amplified by the
        # word norm squared just like accumulation rounding
        v = sub.polars.astype(dtype)
        qv = (v[:, :5] ** 2).sum(axis=1) - v[:, 5] ** 2
        v = v / np.sqrt(qv)[:, None]
        jv = v * np.diag(lz.J).astype(dtype)[None, :]
        gen_mats = np.eye(6, dtype=dtype)[None] - 2.0 * v[:, :, None] * jv[:, None, :]
    words = [()]
    tits = [eye]
    mats = [np.eye(6, dtype=dtype)]
    seen = {eye.tobytes()}
    frontier = [0]
    n_raw = 1
    n_merged = 0
    truncated = False
    for length in range(max_length):
        if length >= 38 and max(np.abs(tits[i]).max() for i in frontier) > TITS_MAX:
            raise GroupError(f"Tits matrix entries overflow int64 beyond length {length}")
        new_frontier = []
        for i in frontier:
            for g in range(k):
                if (tits[i][:, g] < 0).any():
                    continue  # g is a descent of words[i]
                n_raw += 1
                t = tits[i] @ tits_gens[g]
                key = t.tobytes()
                if key in seen:
                    n_merged += 1
                    continue
                if len(words) >= max_elements:
                    truncated = True
                    break
                seen.add(key)
                new_frontier.append(len(words))
                words.append(words[i] + (g,))
                tits.append(t)
                mats.append(mats[i] @ gen_mats[g])
            if truncated:
                break
        frontier = new_frontier
        if truncated:
            break
    return WordTable(
        words=words,
        matrices=np.array(mats),
        tits=np.array(tits),
        n_raw=n_raw,
        n_merged=n_merged,
        truncated=truncated,
        lengths=np.array([len(w) for w in words]),
    )


def lorentz_drift(table):
    """Max || M^T J M - J ||_inf over all words in the table."""
    m = table.matrices
    g = np.einsum("nba,bc,ncd->nad", m, lz.J, m)  # M^T J M
    return float(np.abs(g - lz.J[None]).max())


def faithfulness_scan(sub, max_length):
    """No nonempty word class evaluates to the identity.

    Every class is a distinct element of the abstract Coxeter group (the
    Tits representation is faithful), so a non-identity class whose Moebius
    matrix is within 0.1 of I is a relation the geometry adds that the
    Coxeter orders do not: a failure of faithfulness.  Reports the minimum
    gap and every violating word.
    """
    table = enumerate_words(sub, max_length)
    gaps = np.abs(table.matrices - np.eye(6)[None]).max(axis=(1, 2))
    nontrivial = table.lengths > 0
    min_gap = float(gaps[nontrivial].min()) if nontrivial.any() else math.inf
    violations = [
        table.words[i] for i in np.nonzero(nontrivial & (gaps <= 0.1))[0]
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


def orbit_spheres(sub, max_length, max_elements=2_000_000):
    """Orbit of the generator spheres under words of length <= max_length.

    The sphere w.B_s is named by its root w(a_s) and listed at the first
    word, in (length, word) order, where that root is positive and new: a
    negative root is the sphere of the shorter w.s, and equal roots are the
    same sphere.  Its parent is the smallest strictly containing sphere among
    the prefix spheres w[:j].B_{w[j]}: a ball that contains w.B_s has its
    wall between P and wP, and those walls are exactly the prefix walls.
    Rows are in (generation, word, seed) order, so parents come first.
    """
    k = len(sub.ball_ids)
    table = enumerate_words(sub, max_length)
    seq_of = {}  # root bytes -> seq
    walls = {(): []}  # word -> seqs of its prefix spheres
    rows = []  # (word, seed, root, center, radius, polar)
    truncated = False
    for word, tits, m in zip(table.words, table.tits, table.matrices):
        if word:  # the last prefix sphere has root word[:-1](a_last) = -W a_last
            walls[word] = walls[word[:-1]] + [seq_of[(-tits[:, word[-1]]).tobytes()]]
        pol = (m @ sub.polars.T).T  # images of all seed spheres
        try:
            cen, rad = lz.centers_radii(pol)
        except ValueError as exc:  # a sphere through infinity has no center
            raise GroupError(f"word {word} sends a generator sphere through infinity") from exc
        for s in range(k):
            root = tits[:, s]
            key = root.tobytes()
            if (root < 0).any() or key in seq_of:
                continue
            if len(rows) >= max_elements:
                truncated = True
                break
            seq_of[key] = len(rows)
            rows.append((word, s, root, cen[s], rad[s], pol[s]))
        if truncated:
            break
    n = len(rows)
    centers = np.array([r[3] for r in rows])
    radii = np.array([r[4] for r in rows])
    # candidate parents per sphere, ascending seq, padded with -1
    width = max(1, max_length)
    cand = np.full((n, width), -1, dtype=np.int64)
    for i, r in enumerate(rows):
        cand[i, : len(r[0])] = sorted(walls[r[0]])
    return OrbitTable(
        seq=np.arange(n),
        words=[r[0] for r in rows],
        seed=np.array([r[1] for r in rows]),
        roots=np.array([r[2] for r in rows]),
        centers=centers,
        radii=radii,
        polars=np.array([r[5] for r in rows]),
        generation=np.array([len(r[0]) for r in rows]),
        parent=_smallest_container(centers, radii, cand),
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
    cartan = _cartan(sub)
    sides = {tuple(r) for r in np.eye(len(sub.ball_ids), dtype=np.int64).tolist()}
    stages = [PolyhedronStage(0, -1, len(sides), tuple(sorted(sides)))]
    orbit_roots = [tuple(r) for r in orbit.roots.tolist()]
    used = set()
    for k in range(1, n_stages + 1):
        mirror_seq = next(
            (i for i, r in enumerate(orbit_roots) if r in sides and i not in used),
            None,
        )
        if mirror_seq is None:
            break  # orbit exhausted before the requested stage count
        used.add(mirror_seq)
        mirror = orbit_roots[mirror_seq]
        gamma = np.array(mirror)
        new_sides = set()
        for side in sides - {mirror}:  # the mirror stops being a side of the doubled body
            beta = np.array(side)
            img = beta - (gamma @ cartan @ beta) * gamma
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
    domain).  Returns a report with the violation count.
    """
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
