"""Reflection group machinery on top of a ball cover.

The cover's balls generate a discrete group of Moebius transformations: one
inversion per ball, with Coxeter relations (R_i R_j)^m = 1 coming from the
realized dihedral angles (m = 2 at pi/2 pairs, m = 3 at pi/3 pairs, none for
disjoint pairs).  This module assembles that group, verifies its relation
suite, enumerates reduced words with matrix deduplication, runs faithfulness
and fundamental-domain evidence scans, and computes sphere orbits with their
nesting partial order plus the doubled-polyhedron stage sequence.

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
from .cover import ROLE_VERTEX

IDENTITY_WORD = ()
HASH_GRID = 1e-6
MATCH_TOL = 1e-7


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
    complex: object
    relations: list  # (i, j, order) for every finite-order pair
    blocks: dict  # host cube index -> sorted ball ids
    amalgams: list

    @property
    def n_generators(self):
        return len(self.cover)

    def matrix(self, i):
        return lz.reflection(self.cover.polars[i])


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
    """Group data: relations from realized angles, blocks, amalgams."""
    relations = [(i, j, m) for (i, j, m, _t) in cover.adjacency]

    blocks = {}
    for ball, host in enumerate(cover.host):
        blocks.setdefault(int(host), []).append(ball)

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

    group = ReflectionGroup(
        cover=cover, complex=c, relations=relations, blocks=blocks, amalgams=amalgams
    )
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


def relation_suite(group, tol=1e-8, separation=0.5, batch=4096):
    """Verify (R_i R_j)^m = I for every finite-order pair, in batches.

    Also checks no smaller positive power is within `separation` of I (so the
    order is exactly m, not a divisor).  Relations are conjugated to place
    each pair's midpoint at the origin before multiplying -- an exact group
    isomorphism that avoids the precision loss of lattice-scale coordinates.
    Returns a report dict; raises GroupError on a violation.
    """
    cover = group.cover
    rels = group.relations
    max_residual = 0.0
    min_premature = math.inf
    eye = np.eye(6)
    for lo in range(0, len(rels), batch):
        chunk = rels[lo : lo + batch]
        ii = np.array([r[0] for r in chunk])
        jj = np.array([r[1] for r in chunk])
        mm = np.array([r[2] for r in chunk])
        mid = 0.5 * (cover.centers[ii] + cover.centers[jj])
        pi = lz.spheres(cover.centers[ii] - mid, cover.radii[ii])
        pj = lz.spheres(cover.centers[jj] - mid, cover.radii[jj])
        prod = np.einsum("nab,nbc->nac", reflection_matrices(pi), reflection_matrices(pj))
        power = prod
        for step in range(2, int(mm.max()) + 1):
            at_order = mm == step - 1
            if at_order.any():
                res = np.abs(power[at_order] - eye).max(axis=(1, 2))
                max_residual = max(max_residual, float(res.max()))
            below = mm >= step  # pairs whose order is still ahead
            if below.any():
                gap = np.abs(power[below] - eye).max(axis=(1, 2))
                min_premature = min(min_premature, float(gap.min()))
            power = np.einsum("nab,nbc->nac", power, prod)
        at_order = mm == int(mm.max())
        if at_order.any():
            res = np.abs(power[at_order] - eye).max(axis=(1, 2))
            max_residual = max(max_residual, float(res.max()))
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


def _matrix_key(m):
    # saturate instead of overflowing: entries of deep loxodromic words can
    # exceed the grid's int64 range, where dedup is vacuous anyway
    q = np.round(np.asarray(m, dtype=float).ravel() / HASH_GRID)
    return tuple(np.clip(q, -(2**62), 2**62).astype(np.int64))


@dataclasses.dataclass
class WordTable:
    """Deduplicated reduced words with their matrices, canonically sorted."""

    words: list  # tuples of local generator indices; words[0] == ()
    matrices: np.ndarray  # (n, 6, 6)
    n_raw: int  # reduced words visited before dedup
    n_pruned: int  # words skipped by relation-aware pruning
    n_merged: int  # words merged into an earlier class by dedup
    truncated: bool
    lengths: np.ndarray  # word lengths


def enumerate_words(sub, max_length, prune=True, max_elements=2_000_000, dtype=float):
    """All reduced words of length <= max_length, deduplicated by matrix.

    Reduced means no letter repeats its predecessor (each generator is an
    involution).  With prune=True, commuting pairs (order 2) are additionally
    kept in sorted order, a normal-form rule that only skips duplicates; the
    result is defined by dedup and verified against prune=False in tests.
    Dedup: quantized-entry hash, confirmed by an exact max-norm comparison.

    `dtype` sets the accumulation precision.  float64 rounding alone puts a
    floor of ~1e-16 * ||M||^2 on the Lorentz-form drift of a word matrix, so
    certifying drift below 1e-7 for words with ||M|| above ~3e4 (length-8
    words through a disjoint pair) needs np.longdouble accumulation.
    """
    k = len(sub.ball_ids)
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
    classes = {}  # hash key -> list of element indices (collision buckets)
    words = [IDENTITY_WORD]
    mats = [np.eye(6, dtype=dtype)]
    classes[_matrix_key(mats[0])] = [0]
    frontier = [(IDENTITY_WORD, mats[0])]
    n_raw = 1
    n_pruned = 0
    n_merged = 0
    truncated = False
    for _length in range(1, max_length + 1):
        new_frontier = []
        for word, mat in frontier:
            for g in range(k):
                if word and word[-1] == g:
                    continue  # r^2 = 1
                if prune and word:
                    p = word[-1]
                    a, b = min(p, g), max(p, g)
                    if sub.coxeter.get((a, b)) == 2 and p > g:
                        n_pruned += 1
                        continue  # commuting letters in canonical order only
                n_raw += 1
                m = mat @ gen_mats[g]
                key = _matrix_key(m)
                bucket = classes.setdefault(key, [])
                if any(np.abs(mats[i] - m).max() <= MATCH_TOL for i in bucket):
                    n_merged += 1
                    continue
                if len(words) >= max_elements:
                    truncated = True
                    break
                idx = len(words)
                words.append(word + (g,))
                mats.append(m)
                bucket.append(idx)
                new_frontier.append((words[-1], m))
            if truncated:
                break
        frontier = new_frontier
        if truncated:
            break
    order = sorted(range(len(words)), key=lambda i: (len(words[i]), words[i]))
    return WordTable(
        words=[words[i] for i in order],
        matrices=np.array([mats[i] for i in order]),
        n_raw=n_raw,
        n_pruned=n_pruned,
        n_merged=n_merged,
        truncated=truncated,
        lengths=np.array([len(words[i]) for i in order]),
    )


def lorentz_drift(table):
    """Max || M^T J M - J ||_inf over all words in the table."""
    m = table.matrices
    g = np.einsum("nba,bc,ncd->nad", m, lz.J, m)  # M^T J M
    return float(np.abs(g - lz.J[None]).max())


def faithfulness_scan(sub, max_length):
    """No nonempty reduced word class evaluates to the identity.

    Every deduplicated class is a distinct group element by construction, so
    it suffices that each non-identity class is far from I; relation-derivable
    identities (r^2, (rs)^m) are merged into class 0 by dedup and hence not
    counted.  Reports the minimum gap and any violating word.
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
    centers: np.ndarray  # (n, 4)
    radii: np.ndarray
    polars: np.ndarray
    generation: np.ndarray  # word length
    parent: np.ndarray  # seq of the unique minimal strict container, or -1
    truncated: bool


def orbit_spheres(sub, max_length, max_elements=2_000_000):
    """Orbit of the generator spheres under words of length <= max_length.

    Duplicate spheres are dropped: combinatorially when the seed repeats the
    word's last letter (s B_s = B_s) or crosses it orthogonally (t B_s = B_s
    at order 2), and geometrically by a radius-relative coincidence check
    (a fixed quantization grid would falsely merge distinct spheres once
    radii decay below the grid).  Assigns each sphere the unique minimal
    strictly-containing orbit sphere as parent when one exists.  Enumeration
    (generation-major) lists parents before children.
    """
    k = len(sub.ball_ids)
    table = enumerate_words(sub, max_length)
    buckets = {}
    rows = []  # (generation, word, seed, center, radius, polar)
    truncated = False
    for wi in np.argsort(table.lengths, kind="stable"):
        word = table.words[wi]
        m = table.matrices[wi]
        pol = (m @ sub.polars.T).T  # images of all seed spheres
        cen, rad = lz.centers_radii(pol)
        last = word[-1] if word else None
        for s in range(k):
            if last is not None:
                if s == last:
                    continue
                if sub.coxeter.get((min(s, last), max(s, last))) == 2:
                    continue
            key = tuple(np.round(np.r_[cen[s], rad[s]] / HASH_GRID).astype(np.int64))
            tol = 0.1 * rad[s]
            row = np.r_[cen[s], rad[s]]
            if any(
                np.abs(np.r_[rows[i][3], rows[i][4]] - row).max() <= tol
                for i in buckets.get(key, ())
            ):
                continue
            if len(rows) >= max_elements:
                truncated = True
                break
            buckets.setdefault(key, []).append(len(rows))
            rows.append((len(word), word, s, cen[s], rad[s], pol[s]))
        if truncated:
            break
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    n = len(rows)
    centers = np.array([r[3] for r in rows])
    radii = np.array([r[4] for r in rows])
    generation = np.array([r[0] for r in rows])
    parent = _assign_parents(centers, radii)
    return OrbitTable(
        seq=np.arange(n),
        words=[r[1] for r in rows],
        seed=np.array([r[2] for r in rows]),
        centers=centers,
        radii=radii,
        polars=np.array([r[5] for r in rows]),
        generation=generation,
        parent=parent,
        truncated=truncated,
    )


def _assign_parents(centers, radii, block=2048):
    """Unique minimal strictly containing sphere per sphere, -1 if none.

    Sphere j strictly contains sphere i iff d(c_i, c_j) + r_i < r_j.

    The blocked Gram-matrix distance is only a coarse filter: its absolute
    error (~1e-15 at unit scale) swamps the true separation of deep-orbit
    spheres, so every candidate is recomputed from center differences, which
    is exact at that scale.
    """
    n = len(radii)
    parent = np.full(n, -1, dtype=np.int64)
    n2 = (centers * centers).sum(axis=1)
    slack = 1e-6
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        d2 = n2[lo:hi, None] + n2[None, :] - 2.0 * (centers[lo:hi] @ centers.T)
        d = np.sqrt(np.maximum(d2, 0.0))
        coarse = d + radii[lo:hi, None] < radii[None, :] + slack
        for row in range(hi - lo):
            i = lo + row
            js = np.nonzero(coarse[row])[0]
            js = js[js != i]
            if not len(js):
                continue
            diff = centers[js] - centers[i]
            dx = np.sqrt((diff * diff).sum(axis=1))
            js = js[dx + radii[i] < radii[js] - 1e-12]
            if len(js):
                parent[i] = js[np.argmin(radii[js])]
    return parent


def max_radius_per_generation(orbit):
    gens = sorted(set(int(g) for g in orbit.generation))
    return {g: float(orbit.radii[orbit.generation == g].max()) for g in gens}


@dataclasses.dataclass(frozen=True)
class PolyhedronStage:
    k: int
    reflector_seq: int  # orbit seq of the mirror sphere, -1 for the base stage
    n_sides: int
    side_keys: tuple  # quantized (center, radius) keys of the bounding spheres


def _side_key(center, radius):
    return tuple(np.round(np.r_[center, radius] / HASH_GRID).astype(np.int64))


def polyhedron_stages(sub, orbit, n_stages):
    """Doubling sequence: P_k = P_{k-1} union (reflection of P_{k-1}).

    P_0 is the common exterior of the generator balls; stage k doubles
    across the lowest-seq orbit sphere that carries a current side.  Side
    counts follow 2s - 2 (the mirror side is absorbed); they are recorded
    from an explicit side-sphere set, not from the recurrence.
    """
    side_geo = {}  # key -> (center, radius)
    for cen, rad in zip(sub.centers, sub.radii):
        side_geo[_side_key(cen, rad)] = (cen, rad)
    stages = [
        PolyhedronStage(0, -1, len(side_geo), tuple(sorted(side_geo)))
    ]
    orbit_keys = [
        _side_key(orbit.centers[i], orbit.radii[i]) for i in range(len(orbit.radii))
    ]
    used = set()
    for k in range(1, n_stages + 1):
        mirror_seq = next(
            (
                i
                for i in range(len(orbit_keys))
                if orbit_keys[i] in side_geo and i not in used
            ),
            None,
        )
        if mirror_seq is None:
            break  # orbit exhausted before the requested stage count
        used.add(mirror_seq)
        mirror = lz.reflection(orbit.polars[mirror_seq])
        mirror_key = orbit_keys[mirror_seq]
        new_geo = {}
        for key, (cen, rad) in side_geo.items():
            if key == mirror_key:
                continue  # the mirror stops being a side of the doubled body
            new_geo[key] = (cen, rad)
            img = lz.apply_to_polar(mirror, lz.sphere(cen, rad))
            icen, irad = lz.centers_radii(img[None])
            new_geo[_side_key(icen[0], irad[0])] = (icen[0], float(irad[0]))
        side_geo = new_geo
        stages.append(
            PolyhedronStage(k, mirror_seq, len(side_geo), tuple(sorted(side_geo)))
        )
    return stages


# ---------------------------------------------------------------------------
# Fundamental-domain evidence


def fundamental_domain_check(cover, budget=100_000, seed=0):
    """Monte-Carlo check that generators push the common exterior inside.

    Samples points outside every ball and verifies, round-robin over the
    generators within the total (generator, point) budget, that the
    inversion image of each point lies strictly inside the generator's ball
    (hence outside the domain).  Returns a report with the violation count.
    """
    rng = np.random.default_rng(seed)
    n = len(cover)
    per_gen = max(1, budget // n)
    gen_order = rng.permutation(n)
    lo = cover.centers.min(axis=0) - 2.0
    hi = cover.centers.max(axis=0) + 2.0

    # sample domain points by rejection against the nearest balls
    n_points = max(per_gen * 4, 64)
    pts = []
    attempts = 0
    while len(pts) < n_points and attempts < 100:
        cand = rng.random((n_points, 4)) * (hi - lo) + lo
        inside = np.zeros(len(cand), dtype=bool)
        for blo in range(0, n, 8192):
            bhi = min(blo + 8192, n)
            dd = (
                (cand[:, None, :] - cover.centers[None, blo:bhi, :]) ** 2
            ).sum(-1) - cover.radii[None, blo:bhi] ** 2
            inside |= (dd < 0).any(axis=1)
        pts.extend(cand[~inside])
        attempts += 1
    pts = np.array(pts[:n_points])

    checks = 0
    violations = 0
    for g in gen_order:
        take = pts[rng.integers(0, len(pts), per_gen)]
        c = cover.centers[g]
        r = cover.radii[g]
        diff = take - c[None, :]
        dist2 = (diff * diff).sum(axis=1)
        img = c[None, :] + (r * r / dist2)[:, None] * diff
        img_dist2 = ((img - c[None, :]) ** 2).sum(axis=1)
        violations += int((img_dist2 >= r * r).sum())
        checks += per_gen
        if checks >= budget:
            break
    return {
        "budget": budget,
        "checks": checks,
        "n_sample_points": len(pts),
        "violations": violations,
        "ok": violations == 0 and len(pts) > 0,
    }
