"""Scalar reference implementations that the tests use as oracles.

The library computes spheres, reflections, pair classes, cube boxes and
their meets, the complex's structural checks, the knot surface and each
ball's host cube in batches (`lorentz.spheres`, `groups.reflection_matrices`,
`cover.pair_orders`, `complexes.boxes` and `complexes.meet`,
`complexes.validate_complex`, `complexes.knot_surface`, `cover._host_cubes`);
the one-at-a-time formulas here are the tests' independent check on them.
The near-pair search is checked against its earlier form, one self-join at
the largest radius's cell side over a join that searches one row at a time
(`near_pairs` and `grid_join` against `cover._near_pairs` and
`cover._grid_join`).  The kernels that read the centres as coordinate
columns (`cover._products`, `cover._trace_disks`, `groups._frame_keys` and
`groups._image_dist2`) must give the bits of their row-major forms here
(`products`, `trace_disks`, `frame_keys` and `image_dist2`).  Criterion 2
is checked against its serial form: `coverage_check` here joins all ball
centres at the largest radius's cell side and tests one block of about
2^16 samples at a time, and
`cover.coverage_check`, with one join per radius octave, must give the same
bits.  Criterion 3's batched `groups.relation_residuals` must agree with
`relation_residual` here, which multiplies the scalar reflections of one
pair at a time.  `bending.bend`, which checks each crossing relation by
the shift of its inversive product, must agree with `reference_bend` here,
which builds E_t as a 6x6 matrix (`bending_rotation`) at each angle and
measures the bent relations' matrix residuals and E_t's commutation with
the Gamma_j reflections: in its angles, in the relation it refuses, and in
lambda_max.  bend's lambda_max, in closed form from the crossing pair's
inversive product, must agree with the eigenvalues of the bent word's
matrix (`lambda_max` here, on LAPACK's eigvals) and with the 50-digit
`bent_pair_lambda_mp`, and the bent word's matrix comes from the scalar
reflections in `bent_word_matrix`.  `limitset.loxodromic_points` and
`lorentz.classify_maps`, which classify a stack of words at once, must give
the bits of the loop here that draws, multiplies and classifies one word at
a time (`loxodromic_points`, with the scalar `classify_map` and its power
polish, seeded from the squarings' M^1024 and run in long double).  Their
attracting points must be at least as close to `longdouble_attracting_point`
as `eig_attracting_point`, the path on LAPACK's eig that the classifier took
before.  `cover._first_rows`, the pipeline's one row grouping, which
buckets rows by a hash and compares each with its bucket's first, must give
the arrays of `first_rows` here, a structured-row `np.unique`, also when
every row hashes alike.  `complexes._orientation`, a parity spanning
forest built by hooking and pointer jumping, must give the (orientable,
reached) of `orientation` here, a plain breadth-first search.  The bundle's text
writers (`cli._write_cover`, `cli._write_orbit`, `limitset.cloud_to_csv`,
`limitset.cloud_to_ply` and `limitset.cloud_to_json`), which format each
distinct float of a column once and each row with one %-format, must give
the text of the per-field loops here, and for `cloud_to_json` the text of
`cloud_to_json` here, one `json.dumps` of the whole document.  Alexander
polynomials, now exact integer arithmetic in `alexander`, must equal the
sympy computation here (`alexander_polynomial` and `nontriviality_verdict`,
on `sympy.Poly`), error messages included, and `alexander.alexander_matrix`,
one pass over each relator's exponent sums, must equal the abelianized
group-ring Fox derivatives here (`group_ring_matrix`, from `fox_derivative`
and `abelianize`), which the sympy computation reads too.  The
Lorentz product `q`, the group inverse `inverse`, the
point maps, random Moebius maps, the presentation and group-ring helpers,
the single-cube complex, the cover less one ball, the complex-file loader
and the two-run bundle comparison serve only the tests.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import pathlib
import string
from collections import defaultdict, deque

import numpy as np

from wildknot import bending as bd
from wildknot import cli
from wildknot import complexes as cx
from wildknot import cover as cv
from wildknot import groups as gr
from wildknot import limitset as ls
from wildknot import lorentz as lz
from wildknot.alexander import GroupPresentation, free_reduce


def lift(p):
    """Light-cone lift of a finite point of R^4 (broadcasts over rows)."""
    p = np.asarray(p, dtype=float)
    n2 = (p * p).sum(axis=-1)
    return np.concatenate(
        [p, ((n2 - 1.0) / 2.0)[..., None], ((n2 + 1.0) / 2.0)[..., None]],
        axis=-1,
    )


def lift_infinity():
    return np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])


def project(w, tol=1e-12):
    """Light-cone vector -> point of R^4 it lifts, or None for inf; in w's
    precision, float64 at least."""
    w = np.asarray(w)
    w = w.astype(np.result_type(w, float))
    scale = w[5] - w[4]
    if abs(scale) <= tol * max(1.0, abs(w[5]) + abs(w[4])):
        return None
    return w[:4] / scale


def sphere(center, radius):
    """Polar vector of the round 3-sphere with given Euclidean data."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    c = np.asarray(center, dtype=float)
    a = float(c @ c) - radius * radius
    v = np.concatenate([c / radius, [(a - 1.0) / (2.0 * radius), (a + 1.0) / (2.0 * radius)]])
    return -v  # interior-negative orientation, see the lorentz module docstring


def hyperplane(normal, offset):
    """Polar of the hyperplane n.x = offset; interior is the side n.x < offset."""
    n = np.asarray(normal, dtype=float)
    norm = math.sqrt(float(n @ n))
    if norm == 0.0:
        raise ValueError("normal must be nonzero")
    n = n / norm
    s = offset / norm
    return np.concatenate([n, [s, s]])


def reflection(polar):
    """Lorentz matrix of inversion in the sphere with the given unit polar."""
    v = np.asarray(polar, dtype=float)
    return np.eye(6) - 2.0 * np.outer(v, lz.J @ v)


def q(u, v):
    """Lorentz inner product Q(u, v); broadcasts over leading axes."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return (u[..., :5] * v[..., :5]).sum(axis=-1) - u[..., 5] * v[..., 5]


def inverse(m):
    """Group inverse via the Lorentz adjugate J M^T J (never numeric inv);
    broadcasts over leading axes."""
    return lz.J @ np.swapaxes(m, -1, -2) @ lz.J


@dataclasses.dataclass(frozen=True)
class PairConfiguration:
    """Relative position of two spheres, derived from the inversive product."""

    kind: str  # 'intersecting' | 'tangent' | 'disjoint' | 'nested' | 'equal'
    inversive_product: float
    exterior_cos: float  # -Q; equals (d^2-r1^2-r2^2)/(2 r1 r2) for spheres
    angle: float | None  # exterior dihedral angle in (0, pi), intersecting only
    order: int | None  # m with (R1 R2)^m = I when angle is pi/m or its complement


def pair_configuration(u, v, angle_tol=1e-9, tangency_tol=1e-9):
    """Classify two spheres from the Lorentz product Q(u, v) of their polars."""
    prod = float(q(u, v))
    ext_cos = -prod
    if abs(prod) < 1.0 - tangency_tol:
        angle = math.acos(max(-1.0, min(1.0, ext_cos)))
        order = None
        for m in (2, 3):  # the angle pi/m or its complement
            if abs(abs(ext_cos) - math.cos(math.pi / m)) <= angle_tol:
                order = m
        return PairConfiguration("intersecting", prod, ext_cos, angle, order)
    if abs(abs(prod) - 1.0) <= tangency_tol:
        if abs(prod - 1.0) <= tangency_tol and abs(float(q(u, u) - q(v, v))) <= tangency_tol:
            # same unit polar up to orientation: tangency of a sphere with itself
            if float(np.max(np.abs(np.asarray(u) - np.asarray(v)))) <= tangency_tol:
                return PairConfiguration("equal", prod, ext_cos, None, None)
        return PairConfiguration("tangent", prod, ext_cos, None, None)
    if prod < -1.0:
        return PairConfiguration("disjoint", prod, ext_cos, None, None)
    return PairConfiguration("nested", prod, ext_cos, None, None)


def euclidean_exterior_cos(c1, r1, c2, r2):
    """Exterior dihedral cosine of two balls from their Euclidean data."""
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    d2 = float(((c1 - c2) ** 2).sum())
    return (d2 - r1 * r1 - r2 * r2) / (2.0 * r1 * r2)


def lorentz_defect(m):
    """Max-norm drift of M from O(5,1): || M^T J M - J ||_inf, in M's float
    precision (float64 for any narrower input)."""
    m = np.asarray(m)
    m = m.astype(np.result_type(m, float))
    return float(np.max(np.abs(m.T @ lz.J @ m - lz.J)))


def apply_to_point(m, p):
    """Apply a Lorentz matrix to a point of S^4 (p=None means infinity)."""
    w = lift_infinity() if p is None else lift(np.asarray(p, dtype=float))
    return project(np.asarray(m) @ w)


def point_side(polar, p):
    """Q(lift(p), polar): negative inside, zero on, positive outside."""
    w = lift_infinity() if p is None else lift(np.asarray(p, dtype=float))
    return float(q(w, polar))


def random_moebius(rng, n_reflections=4, scale=2.0):
    """Deterministic pseudo-random Moebius map: product of sphere inversions."""
    m = np.eye(6)
    for _ in range(n_reflections):
        c = rng.uniform(-scale, scale, size=4)
        r = rng.uniform(0.3, scale)
        m = m @ reflection(sphere(c, r))
    return m


def classify_map(m, tol=1e-9):
    """lorentz.classify_maps one matrix at a time, with scalar logs.

    Returns (kind, att): for a loxodromic map att is its attracting fixed
    point as an R^4 vector, None for infinity; for the other kinds att is
    None.  The largest column of M^1024 / max|M^1024| from the ten
    squarings seeds the long-double power polish, which stops once a step
    moves the iterate by at most a quarter of float64's eps.
    """
    m = np.asarray(m, dtype=float)
    if np.max(np.abs(m - np.eye(6))) <= tol:
        return "identity", None
    cur = m.copy()
    log_norm = math.log(np.max(np.abs(cur)))
    cur = cur / np.max(np.abs(cur))
    logs = [log_norm]
    for _ in range(10):
        cur = cur @ cur
        n = np.max(np.abs(cur))
        log_norm = 2.0 * log_norm + math.log(n)
        cur = cur / n
        logs.append(log_norm)
    if logs[-1] < math.log(1e4 * (1.0 + np.max(np.abs(m)))):
        return "elliptic", None
    if logs[-1] / max(logs[-2], 1e-30) > 1.5:
        col = int(np.argmax(np.abs(cur).max(axis=0)))
        v = _power_polish(m.astype(np.longdouble), cur[:, col], np.finfo(float).eps / 4, 8192)
        return "loxodromic", _lightlike_fixed_point(v)
    return "parabolic", None


def eig_attracting_point(m):
    """The attracting fixed point of a loxodromic map by LAPACK: the
    eigenvector of eig's largest eigenvalue modulus, polished in float64
    until a step moves it by at most 1e-16, 64 steps at most (the path
    classify_maps took before its squarings seeded the polish).  None for
    infinity."""
    m = np.asarray(m, dtype=float)
    vals, vecs = np.linalg.eig(m)
    col = np.real(np.real_if_close(vecs[:, int(np.argmax(np.abs(vals)))], tol=1e6))
    return _lightlike_fixed_point(_power_polish(m, col, 1e-16, 64))


def longdouble_attracting_point(m, squarings=20, steps=256):
    """The attracting fixed point of a loxodromic map in long double: the
    largest column of M^(2^squarings) by renormalised squarings, then
    `steps` power steps against M, which remove the squarings' rounding
    (squaring a near rank-1 matrix keeps its column space, errors
    included).  The accuracy reference for classify_maps and
    eig_attracting_point; None for infinity."""
    m = np.asarray(m, dtype=float).astype(np.longdouble)
    cur = m / np.max(np.abs(m))
    for _ in range(squarings):
        cur = cur @ cur
        cur = cur / np.max(np.abs(cur))
    v = cur[:, int(np.argmax(np.abs(cur).max(axis=0)))]
    for _ in range(steps):
        v = m @ v
        v = v / np.max(np.abs(v))
    return _lightlike_fixed_point(v, np.longdouble)


def worst_fixed_point_errors(ms, att, steps=256):
    """Worst error of the attracting points att of the loxodromic maps ms
    (none at infinity) and of `eig_attracting_point` on them, against
    `longdouble_attracting_point` with `steps` power steps, each relative to
    max(1, max|reference|): (att's, eig's)."""
    worst = np.zeros(2)
    for m, p in zip(ms, att):
        ref = longdouble_attracting_point(m, steps=steps)
        assert ref is not None and not np.isnan(p).any()  # no test map attracts to infinity
        eig = eig_attracting_point(m)
        scale = max(1.0, float(np.abs(ref).max()))
        worst = np.maximum(worst, [float(np.abs(x.astype(np.longdouble) - ref).max()) / scale
                                   for x in (p, eig)])
    return worst


def _power_polish(m, v, stop, iterations):
    """v <- M v / max|M v| in m's precision until a step moves v by at most
    `stop` (the step is kept) or M v has a zero or non-finite norm (v is
    kept), at most `iterations` times."""
    v = v.astype(m.dtype)
    for _ in range(iterations):
        w = m @ v
        norm = np.max(np.abs(w))
        if norm == 0 or not np.isfinite(norm):
            return v
        w = w / norm
        if np.max(np.abs(w - v)) <= stop:
            return w
        v = w
    return v


def _lightlike_fixed_point(v, dtype=float):
    """A light-cone vector -> the point of R^4 it lifts, in v's precision
    and then rounded to dtype; None for infinity (a zero vector included)."""
    norm = np.max(np.abs(v))
    if norm == 0:
        return None
    v = v / norm
    if v[5] < 0:  # orient to the positive cone
        v = -v
    p = project(v)
    return None if p is None else p.astype(dtype)


def loxodromic_points(sub, n, seed=0, word_length=6):
    """limitset.loxodromic_points one word at a time: draw a word, multiply
    it out in the sub-assembly's unit frame, classify it with
    `classify_map`, until n finite attracting fixed points or 50 n words;
    each point is put back in the cover's coordinates.  Returns (cloud,
    skipped)."""
    if word_length % 2:
        raise ValueError("word_length must be even (reflections are involutions)")
    if word_length < 2:
        raise ValueError(f"word_length must be at least 2, not {word_length}")
    rng = np.random.default_rng(seed)
    k = len(sub.ball_ids)
    if k < 2:
        raise ValueError("need at least 2 generators: a second letter must differ from the first")
    if k < 3 and word_length > 2:
        raise ValueError("need at least 3 generators for cyclically reduced words")
    pts, provenance = [], []
    skipped = n_infinite = attempts = 0
    while len(pts) < n and attempts < 50 * max(n, 1):
        attempts += 1
        word = [int(rng.integers(k))]
        while len(word) < word_length:
            g = int(rng.integers(k))
            if g == word[-1]:
                continue
            if len(word) == word_length - 1 and g == word[0]:
                continue
            word.append(g)
        m = np.eye(6)
        for g in word:
            m = m @ sub.matrices[g]
        kind, att = classify_map(m)
        if kind != "loxodromic":
            skipped += 1
            continue
        if att is None:
            n_infinite += 1
            continue
        pts.append(att * sub.scale + sub.offset)
        provenance.append("loxodromic_fixed(" + ",".join(map(str, word)) + ")")
    if not pts:
        return ls._empty_cloud(4, notice="no loxodromic words found"), skipped
    cloud = ls.PointCloud(
        points=np.array(pts),
        provenance=provenance,
        generation=np.full(len(pts), word_length, dtype=np.int64),
        n_infinite=n_infinite,
    )
    return cloud, skipped


def first_rows(rows):
    """cover._first_rows by np.unique over structured rows: (first, rank)."""
    _, idx, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(idx)
    return idx[order], np.argsort(order)[inverse.reshape(-1)]


def orientation(neighbour, flip):
    """complexes._orientation as a plain breadth-first search from face 0:
    (orientable, reached) over face 0's component of the (face, neighbour,
    flip) edges, a flip meaning the two faces take opposite signs."""
    sign = {0: 1}
    queue = deque([0])
    orientable = True
    while queue:
        f = queue.popleft()
        for g, opposite in zip(neighbour[f].tolist(), flip[f].tolist()):
            want = -sign[f] if opposite else sign[f]
            if g not in sign:
                sign[g] = want
                queue.append(g)
            elif sign[g] != want:
                orientable = False
    return orientable, len(sign)


def _fmt(x):
    return repr(float(x))


def cover_text(cover):
    """cli._write_cover's file text, one field at a time."""
    lines = ["# ball x1 x2 x3 x4 radius role host"]
    roles = {0: "vertex", 1: "face", 2: "junction"}
    for i in range(len(cover)):
        lines.append(
            " ".join(
                [str(i)]
                + [_fmt(v) for v in cover.centers[i]]
                + [_fmt(cover.radii[i]), roles[int(cover.roles[i])], str(int(cover.host[i]))]
            )
        )
    return "\n".join(lines) + "\n"


def orbit_text(orbit, sub):
    """cli._write_orbit's file text, one field at a time."""
    lines = ["# seq word seed x1 x2 x3 x4 radius parent generation"]
    for i in range(len(orbit.radii)):
        word = ",".join(map(str, orbit.words[i])) or "-"
        center = orbit.centers[i] + sub.offset
        lines.append(
            " ".join(
                [str(i), word, str(int(orbit.seed[i]))]
                + [_fmt(v) for v in center]
                + [_fmt(orbit.radii[i]), str(int(orbit.parent[i])),
                   str(int(orbit.generation[i]))]
            )
        )
    return "\n".join(lines) + "\n"


def cloud_to_csv(cloud):
    """limitset.cloud_to_csv, one field at a time."""
    cols = ["x1", "x2", "x3", "x4"][: cloud.points.shape[1]]
    lines = [",".join(cols + ["generation", "provenance"])]
    for i in range(len(cloud)):
        lines.append(
            ",".join(
                [_fmt(v) for v in cloud.points[i]]
                + [str(int(cloud.generation[i])), cloud.provenance[i]]
            )
        )
    return "\n".join(lines) + "\n"


def cloud_to_ply_rows(cloud):
    """The vertex rows of limitset.cloud_to_ply, one field at a time."""
    return [
        " ".join([_fmt(v) for v in cloud.points[i]] + [str(int(cloud.generation[i]))])
        for i in range(len(cloud))
    ]


def cloud_to_json(cloud):
    """limitset.cloud_to_json, as one json.dumps of the whole document."""
    doc = {
        "dim": int(cloud.points.shape[1]),
        "n_points": len(cloud),
        "n_infinite": cloud.n_infinite,
        "notice": cloud.notice,
        "points": [
            {
                "coords": [float(v) for v in cloud.points[i]],
                "generation": int(cloud.generation[i]),
                "provenance": cloud.provenance[i],
            }
            for i in range(len(cloud))
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def word_to_string(word):
    """Inverse of `alexander.parse_word`: capitals for inverse letters."""
    return "".join(
        string.ascii_lowercase[abs(g) - 1] if g > 0 else string.ascii_uppercase[abs(g) - 1]
        for g in word
    )


def render_presentation(p):
    lines = [string.ascii_lowercase[: p.n_generators]]
    lines += [word_to_string(r) for r in p.relators]
    return "\n".join(lines) + "\n"


def ring_left_multiply(word, elem):
    """Left-multiply a group-ring element {reduced word: coefficient} by a word."""
    out = {}
    for w, c in elem.items():
        key = free_reduce(tuple(word) + w)
        out[key] = out.get(key, 0) + c
        if out[key] == 0:
            del out[key]
    return out


# A group-ring element is a dict {reduced word: nonzero integer coefficient}.


def ring_add(a, b):
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) + c
        if out[w] == 0:
            del out[w]
    return out


def fox_derivative(word, generator):
    """Free Fox derivative d(word)/d(generator) as a group-ring element.

    generator is a 1-based index. Satisfies d(uv) = d(u) + u d(v),
    d(x)/d(x) = 1, d(x^-1)/d(x) = -x^-1.
    """
    if generator < 1:
        raise ValueError("generator indices are 1-based")
    result: dict[tuple[int, ...], int] = {}
    prefix: tuple[int, ...] = ()
    for g in word:
        if g == generator:
            result = ring_add(result, {prefix: 1})
        elif g == -generator:
            result = ring_add(result, {free_reduce(prefix + (g,)): -1})
        prefix = free_reduce(prefix + (g,))
    return result


def abelianize(elem):
    """Map a group-ring element into Z[t, 1/t] sending every generator to t,
    as a dict {exponent: nonzero coefficient}."""
    out: dict[int, int] = {}
    for w, c in elem.items():
        e = sum(1 if g > 0 else -1 for g in w)
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def connected_sum(p1, p2):
    """Presentation of the connected sum: free product with meridians merged.

    Both inputs must use generator 'a' as a meridian; the second factor's
    generators are renamed to follow the first factor's, and the relator
    identifying the two 'a' meridians is appended.
    """
    offset = p1.n_generators
    shifted = tuple(
        tuple((abs(g) + offset) * (1 if g > 0 else -1) for g in r) for r in p2.relators
    )
    merge = (1, -(offset + 1))  # a = a'
    return GroupPresentation(
        p1.n_generators + p2.n_generators, p1.relators + shifted + (merge,)
    )


# The Alexander polynomial in sympy, as `alexander` computed it before its
# integer arithmetic and its one-pass matrix: sympy determinants of the
# matrix of group-ring Fox derivatives, the Poly gcd of the minors and the
# Smith normal form of the exponent-sum matrix.


def abelianization_is_infinite_cyclic(p):
    """Z^n / (relator exponent vectors) == Z via the Smith normal form."""
    import sympy
    from sympy.matrices.normalforms import smith_normal_form

    if p.n_generators == 0:
        return False
    rows = [[sum((g > 0) - (g < 0) for g in r if abs(g) == j + 1)
             for j in range(p.n_generators)] for r in p.relators]
    if not rows:
        return p.n_generators == 1
    snf = smith_normal_form(sympy.Matrix(rows))
    nonzero = [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i] != 0]
    return p.n_generators - len(nonzero) == 1 and all(d == 1 for d in nonzero)


def group_ring_matrix(p):
    """`alexander.alexander_matrix` from the group-ring Fox derivatives: each
    entry abelianized and multiplied by t^len(r), as its coefficient tuple."""
    rows = []
    for r in p.relators:
        row = []
        for j in range(p.n_generators):
            d = {e + len(r): c for e, c in abelianize(fox_derivative(r, j + 1)).items()}
            row.append(tuple(d.get(e, 0) for e in range(max(d, default=-1) + 1)))
        rows.append(row)
    return rows


def normalized(poly):
    """`sympy.Poly` divided by the unit +-t^k that makes its lowest exponent
    0 and its leading coefficient positive."""
    poly = poly.terms_gcd()[1]
    return -poly if poly.LC() < 0 else poly


def alexander_polynomial(p):
    """`alexander.alexander_polynomial` as a `sympy.Poly` in t over ZZ, with
    its ValueError messages."""
    import sympy

    if p.deficiency != 1:
        raise ValueError(f"need a deficiency-1 presentation, got deficiency {p.deficiency}")
    if not abelianization_is_infinite_cyclic(p):
        raise ValueError("abelianization is not infinite cyclic")
    t = sympy.Symbol("t")
    if not p.relators:
        return sympy.Poly(1, t)
    mat = sympy.Matrix([[sum(c * t**e for e, c in enumerate(entry)) for entry in row]
                        for row in group_ring_matrix(p)])
    n = p.n_generators
    minors = [sympy.Poly(det, t) for j in range(n)
              if (det := mat[:, [k for k in range(n) if k != j]].det()) != 0]
    if not minors:
        raise ValueError("all maximal minors vanish; Alexander ideal is zero")
    g = minors[0]
    for m in minors[1:]:
        g = g.gcd(m)
    delta = normalized(g)
    if abs(delta.eval(1)) != 1:
        raise ValueError(f"Delta(1) = {delta.eval(1)} != +-1: not a knot-group presentation")
    return delta


def format_poly(poly):
    """`alexander._format` of a `sympy.Poly`."""
    parts = []
    for (e,), c in poly.terms():
        mono = "t" if e == 1 else f"t^{e}"
        body = str(abs(c)) if e == 0 else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        parts.append(("- " if c < 0 else "+ ") + body)
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


def nontriviality_verdict(delta, depth=6):
    """`alexander.nontriviality_verdict` of a `sympy.Poly`: each stage's
    polynomial is the sympy power delta^(2^i)."""
    from wildknot.alexander import nontriviality_verdict as integer_verdict

    delta = normalized(delta)
    degree = 0 if delta.is_zero else delta.degree()
    unit = delta.is_one
    stages = []
    for i in range(depth + 1):
        d = 2**i * degree
        small = unit or delta.is_zero or 2**i * max(degree, 1) <= 16
        text = format_poly(delta ** 2**i) if small else f"degree-{d} power"
        stages.append({"stage": i, "copies": 2**i, "degree": d, "unit": unit,
                       "polynomial": text})
    return {
        "verdict": "TRIVIAL" if unit or delta.is_zero else "NONTRIVIAL",
        "base_polynomial": format_poly(delta),
        "base_degree": degree,
        "delta_at_1": int(delta.eval(1)),
        "stages": stages,
        "assumed_facts": integer_verdict((1,), depth=0)["assumed_facts"],
    }


def coefficients(poly):
    """A `sympy.Poly` in t as `alexander`'s coefficient tuple, constant term
    first (() for 0)."""
    return () if poly.is_zero else tuple(int(c) for c in reversed(poly.all_coeffs()))


def random_presentation(rng, n_relators=None):
    """1 to 4 generators and, unless given, one relator fewer, each a freely
    reduced word of up to 10 random letters."""
    n = int(rng.integers(1, 5))
    count = n - 1 if n_relators is None else n_relators
    return GroupPresentation(n, tuple(
        free_reduce(tuple(int(g) for g in rng.choice([1, -1], size=length)
                          * rng.integers(1, n + 1, size=length)))
        for length in rng.integers(0, 11, size=count)))


def load_complex(path):
    """Parse and validate a complex file; ComplexError lists its issues."""
    with open(path, encoding="utf-8") as fh:
        c = cx.loads_complex(fh.read())
    issues = cx.validate_complex(c)
    if issues:
        raise cx.ComplexError(issues)
    return c


def degenerate_single_cube(edge=3):
    """Single big cube, no tube: unknotted test mode (boundary is a 2-sphere)."""
    return cx.CubeComplex((cx.Cube3((0, 0, 0, 0), edge, 3),), ())


def straight_tube_complex():
    """Two big cubes joined by a straight tube of six unit cubes."""
    big = (cx.Cube3((0, 0, 0, 0), 3, 3), cx.Cube3((0, 0, 0, 6), 3, 3))
    return cx.CubeComplex(big, tuple(cx.Cube3((1, 1, 0, w), 1, 2) for w in range(6)))


def without_ball(cover, victim):
    """The cover less ball `victim`; its adjacency is the sweep of the balls
    that remain, run on first use like any cover's."""
    keep = np.arange(len(cover)) != victim
    return dataclasses.replace(
        cover,
        centers=cover.centers[keep],
        radii=cover.radii[keep],
        roles=cover.roles[keep],
        face=cover.face[keep],
        host=cover.host[keep],
        vertices=cover.vertices[np.arange(len(cover.vertices)) != victim],
    )


def rerun_bundle(make_cfg):
    """Run the pipeline twice, each time on a fresh `make_cfg()` with the
    same out_dir, and compare the two bundles byte for byte.  Returns
    (checks, files, snapshot, differing): each run's checks and sorted file
    paths, the first run's bytes per path, and the names of the first run's
    files whose bytes the second run changed."""

    def one_run():
        checks, out = cli.run_pipeline(make_cfg())
        return checks, sorted(p for p in pathlib.Path(out).rglob("*") if p.is_file())

    checks1, files1 = one_run()
    snapshot = {p: p.read_bytes() for p in files1}
    checks2, files2 = one_run()
    differing = [p.name for p in files1 if p.read_bytes() != snapshot[p]]
    return (checks1, checks2), (files1, files2), snapshot, differing


# ---------------------------------------------------------------------------
# Cube boxes and the complex's structural checks, one pair at a time


def interval(cube, axis):
    """A cube's closed extent along an axis; degenerate on the omitted axis."""
    lo = cube.corner[axis]
    return (lo, lo if axis == cube.omitted_axis else lo + cube.edge)


def box_intersection(a, b):
    """Closed-box intersection of two cubes as (lo, hi) per axis, or None."""
    out = []
    for axis in range(4):
        lo = max(interval(a, axis)[0], interval(b, axis)[0])
        hi = min(interval(a, axis)[1], interval(b, axis)[1])
        if lo > hi:
            return None
        out.append((lo, hi))
    return out


def intersection_dim(box):
    return sum(1 for lo, hi in box if hi > lo)


def attach_squares(c):
    if len(c.big) != 2 or not c.tube:
        return []
    return [box_intersection(c.big[0], c.tube[0]), box_intersection(c.big[1], c.tube[-1])]


def consecutive_squares(c):
    """(p, square, straight) for each consecutive cube pair p, p + 1 of
    c.all_cubes that meets in a 2-dimensional box."""
    cubes = c.all_cubes
    out = []
    for p in range(len(cubes) - 1):
        a, b = cubes[p], cubes[p + 1]
        box = box_intersection(a, b)
        if box and intersection_dim(box) == 2:
            straight = a.omitted_axis == b.omitted_axis and sum(
                x != y for x, y in zip(a.corner, b.corner)) == 1
            out.append((p, box, straight))
    return out


def structural_issues(c):
    """complexes.validate_complex's issues before the surface is built, from
    one box intersection per cube pair.  A connector must lie within the
    range of the hyperplane levels."""
    issues = []
    if len(c.big) != 2:
        issues.append(f"need exactly 2 big cubes, got {len(c.big)}")
        return issues
    if not c.tube:
        issues.append("empty tube: no fusion between the two big cubes")
        return issues
    unit = c.tube[0].edge
    for i, t in enumerate(c.tube):
        if t.edge != unit:
            issues.append(f"tube cube {i} has edge {t.edge}, expected uniform {unit}")
    if c.big[0].edge != c.big[1].edge:
        issues.append("big cubes differ in edge length")
    if c.big[0].edge % unit != 0:
        issues.append("big edge is not a multiple of the tube unit")

    chain = [c.big[0]] + list(c.tube) + [c.big[1]]
    names = ["Q0"] + [f"tube[{i}]" for i in range(len(c.tube))] + ["Q1"]
    for i in range(len(chain) - 1):
        box = box_intersection(chain[i], chain[i + 1])
        if box is None or intersection_dim(box) != 2:
            issues.append(f"{names[i]} and {names[i + 1]} do not meet in a 2-face")
            continue
        sides = sorted(hi - lo for lo, hi in box if hi > lo)
        if sides != [unit, unit]:
            issues.append(
                f"{names[i]} and {names[i + 1]} meet in a {sides[0]}x{sides[1]} "
                f"rectangle, not a {unit}x{unit} square"
            )

    for b_idx, (big, t) in enumerate([(c.big[0], c.tube[0]), (c.big[1], c.tube[-1])]):
        box = box_intersection(big, t)
        if box is None or intersection_dim(box) != 2:
            continue
        for a in [a for a in range(4) if box[a][1] > box[a][0]]:
            mid = (box[a][0] + box[a][1]) / 2.0
            big_mid = (interval(big, a)[0] + interval(big, a)[1]) / 2.0
            if mid != big_mid:
                issues.append(
                    f"attach square of Q{b_idx} is off-center along axis {a} "
                    f"(square center {mid}, face center {big_mid})"
                )

    if box_intersection(c.big[0], c.big[1]) is not None:
        issues.append("Q0 and Q1 intersect")
    for b_idx, big in enumerate(c.big):
        for i, t in enumerate(c.tube):
            if (b_idx, i) in ((0, 0), (1, len(c.tube) - 1)):
                continue
            if box_intersection(big, t) is not None:
                issues.append(f"tube[{i}] touches Q{b_idx} away from the attach square")

    for i in range(len(c.tube)):
        for j in range(i + 2, len(c.tube)):
            box = box_intersection(c.tube[i], c.tube[j])
            if box is None:
                continue
            dim = intersection_dim(box)
            if j == i + 2 and dim == 1:
                continue
            issues.append(
                f"tube[{i}] and tube[{j}] overlap in a {dim}-dimensional set "
                "(non-consecutive cubes must have disjoint closures)"
            )

    levels = c.hyperplane_levels()
    if len(levels) > 4:
        issues.append(f"hyperplane cubes occupy {len(levels)} levels {levels}, expected <= 4")
    if not levels:
        issues.append("no cube lies in a w-hyperplane")
        return issues
    for i, t in enumerate(c.tube):
        if t.omitted_axis != 3:
            w0, w1 = interval(t, 3)
            if w0 < levels[0] or w1 > levels[-1]:
                issues.append(f"tube[{i}] connector leaves the hyperplane range")
    return issues


def host_cubes(c, centers):
    """Per centre, the lowest c.all_cubes index of a cube whose closure holds
    it, -1 where none does: one interval pass per cube."""
    host = np.full(len(centers), -1, dtype=np.int64)
    for idx, cube in enumerate(c.all_cubes):
        inside = np.ones(len(centers), dtype=bool)
        for a in range(4):
            lo, hi = interval(cube, a)
            inside &= (centers[:, a] >= lo) & (centers[:, a] <= hi)
        host[(host == -1) & inside] = idx
    return host


def grid_join(a, b, side):
    """The grid join one row of a at a time: per row and per offset, two
    binary searches of the row's neighbouring cell key among b's sorted keys.
    Yields the same pair set as cover._grid_join, in another order."""
    both = a if b is a else np.concatenate([a, b])
    cell = np.floor(both / side).astype(np.int64)
    for ax in range(4):
        occupied, at = np.unique(cell[:, ax], return_inverse=True)
        gaps = np.minimum(np.diff(occupied, prepend=occupied[0] - 1), 2)
        cell[:, ax] = np.cumsum(gaps)[at]
    dims = [int(d) for d in cell.max(axis=0) + 2]
    if math.prod(dims) >= 2**63:
        raise cv.CoverError("points too sparse for a 64-bit grid key")
    strides = np.array([dims[1] * dims[2] * dims[3], dims[2] * dims[3], dims[3], 1])
    key = cell @ strides
    order_a = np.argsort(key[: len(a)], kind="stable")
    order_b = np.argsort(key[len(both) - len(b) :], kind="stable")
    query, sorted_key = key[order_a], key[len(both) - len(b) :][order_b]
    offsets = [o for o in itertools.product((-1, 0, 1), repeat=4) if b is not a or o >= (0,) * 4]
    for s in range(0, len(a), 1 << 14):
        q = query[s : s + (1 << 14)]
        for shift in np.array(offsets) @ strides:
            lo = np.searchsorted(sorted_key, q + shift, "left")
            count = np.searchsorted(sorted_key, q + shift, "right") - lo
            i = order_a[s + np.repeat(np.arange(len(q)), count)]
            j = order_b[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())]
            if b is a and shift == 0:
                i, j = i[i < j], j[i < j]
            yield i, j


def products(centers, radii, i, j):
    """cover._products in its row-major form: each pair's centre difference
    as a gathered (n, 4) row, squared and summed along the row."""
    diff = centers[i] - centers[j]
    diff *= diff
    ri, rj = radii[i], radii[j]
    return (cx._fold(np.add, diff) - ri * ri - rj * rj) / (2.0 * ri * rj)


def trace_disks(f, b, centers, radii, corner, plane, off, ell):
    """cover._trace_disks in its row-major form, on (n, 4) centres and (F, 4)
    corners, with off 1 on the normal axes: (face, (n, 2) rows u and v,
    reach2) of the candidates whose disk meets the face's square."""
    d = centers[b]
    d -= corner[f]
    uv = np.take_along_axis(d, plane[f], axis=1)
    d *= d
    d *= off[f]
    reach2 = radii[b] ** 2 - cx._fold(np.add, d)
    gap = np.maximum(-uv, uv - ell)
    np.maximum(gap, 0.0, out=gap)  # per-axis distance to the square
    gap *= gap
    meets = cx._fold(np.add, gap) < reach2
    return f[meets], uv[meets], reach2[meets]


def frame_keys(centers, radii, rels):
    """groups._frame_keys in its row-major form: the (n, 2, 4) centre pairs
    less `lorentz.frame`'s shift, then both radii and m."""
    pairs = rels[:, :2]
    centers = np.take(centers, pairs, axis=0)
    radii = radii[pairs]
    shift, _scale = lz.frame(centers, radii)
    centers -= shift[:, None]
    return np.column_stack([centers.reshape(-1, 8).view(np.uint64), radii.view(np.uint64),
                            rels[:, 2].astype(np.uint64)])


def image_dist2(c, r, take):
    """groups._image_dist2 in its row-major form: c (k, 1, 4) centres, r (k,
    1) radii and take (k, per_gen, 4) points."""
    diff = take - c
    dist2 = (diff * diff).sum(axis=2)
    img = c + (r * r / dist2)[:, :, None] * diff
    return ((img - c) ** 2).sum(axis=2)


def near_pairs(centers, radii):
    """cover._near_pairs as one self-join at cell side sqrt(4.3) r_max: every
    pair i < j with inversive product below 1.15, as sorted (i, j, product)."""
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if len(radii) < 2:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    side = math.sqrt(4.3) * float(radii.max()) * (1.0 + 1e-9)
    parts = []
    for i, j in grid_join(centers, centers, side):
        i, j = np.minimum(i, j), np.maximum(i, j)
        prod = products(centers, radii, i, j)
        near = prod < 1.15
        parts.append((i[near], j[near], prod[near]))
    i, j, prod = (np.concatenate(col) for col in zip(*parts))
    by_pair = np.lexsort((j, i))
    return i[by_pair], j[by_pair], prod[by_pair]


def coverage_check(cover, surf, n_samples=10_000, seed=0):
    """cover.coverage_check's serial form: one grid join of the face middles
    against all ball centres, one block of faces at a time.

    A ball meets a face plane in the open disk of centre (u, v), in face
    coordinates, and squared radius r^2 - h^2, h being the centre's distance
    from the plane.  A face's candidates are the balls whose disk meets its
    closed square, from one grid join of the face middles against the ball
    centres; the cell side r_max + ell/sqrt(2) bounds a centre's distance from
    the middle of any square its ball meets, so the lists are complete.  The
    candidates go into one face-major table of (F, width) rows u, v and
    reach2 = r^2 - h^2, width being the largest candidate count; padding
    slots have reach2 = -inf, so they contain no point.  The float32 samples
    of a block of faces are widened to float64 once and tested rank by rank
    against the table's columns, up to the block's largest candidate count,
    in the face plane, with no recheck.  Returns
    (fraction, misses) with misses as (face index, point) pairs in face then
    sample order, the point being the face's float32 corner plus the sample.
    """
    ell = float(cover.unit)
    n_faces = len(surf.faces)
    corner = surf.faces[:, :4].astype(float)
    plane = surf.faces[:, 4:]  # (F, 2) in-plane axes
    off = np.ones_like(corner)  # 1 on the two axes normal to the face plane
    off[np.arange(n_faces)[:, None], plane] = 0.0
    mids = corner + (1.0 - off) * (ell / 2.0)

    side = (float(cover.radii.max()) + ell / math.sqrt(2.0)) * (1.0 + 1e-9)
    parts = []
    for f, b in cv._grid_join(mids, cover.centers, side):
        d = cover.centers[b] - corner[f]
        uv = np.take_along_axis(d, plane[f], axis=1)
        reach2 = cover.radii[b] ** 2 - (d * d * off[f]).sum(axis=1)
        gap = np.maximum(np.maximum(-uv, uv - ell), 0.0)  # per-axis distance to the square
        meets = (gap * gap).sum(axis=1) < reach2
        parts.append((f[meets], uv[meets], reach2[meets]))
    face, cuv, reach2 = (np.concatenate(col) for col in zip(*parts))
    by_face = np.argsort(face, kind="stable")
    face, cuv, reach2 = face[by_face], cuv[by_face], reach2[by_face]
    count = np.bincount(face, minlength=n_faces)
    rank = np.arange(len(face)) - np.repeat(np.cumsum(count) - count, count)
    width = int(count.max(initial=0))
    table_u, table_v = np.zeros((2, n_faces, width))
    table_r2 = np.full((n_faces, width), -np.inf)  # padding: no point inside
    table_u[face, rank], table_v[face, rank] = cuv.T
    table_r2[face, rank] = reach2

    rng = np.random.default_rng(seed)
    block = max(1, 2**16 // n_samples)  # faces per block: ~2^16 samples
    work = np.empty((4, block, n_samples))  # u, v, du, dv of one block
    flags = np.empty((2, block, n_samples), dtype=bool)  # ok, inside
    misses = []
    for lo in range(0, n_faces, block):
        hi = min(lo + block, n_faces)
        uv = rng.random((hi - lo, n_samples, 2), dtype=np.float32) * ell
        u, v, du, dv = work[:, : hi - lo]
        ok, inside = flags[:, : hi - lo]
        np.copyto(u, uv[:, :, 0])
        np.copyto(v, uv[:, :, 1])
        ok[...] = False
        for r in range(int(count[lo:hi].max())):  # ranks past it are padding
            np.subtract(u, table_u[lo:hi, r, None], out=du)
            np.subtract(v, table_v[lo:hi, r, None], out=dv)
            np.multiply(du, du, out=du)
            np.multiply(dv, dv, out=dv)
            np.add(du, dv, out=du)
            ok |= np.less(du, table_r2[lo:hi, r, None], out=inside)
        fi, si = np.nonzero(~ok)
        pts = corner[lo + fi].astype(np.float32)
        for col in (0, 1):
            pts[np.arange(len(fi)), plane[lo + fi, col]] += uv[fi, si, col]
        misses.extend((lo + int(m), tuple(pt)) for m, pt in zip(fi, pts.astype(float)))
    total = n_faces * n_samples
    return (total - len(misses)) / total, misses


def relation_residual(centers, radii, order):
    """One pair's (residual, gap) of groups.relation_residuals: the scalar
    sphere and reflection of each ball in the pair's unit frame (midpoint at
    the origin, mean radius 1), and the max-norm distance of each power
    1..m of their product from I."""
    mid = 0.5 * (centers[0] + centers[1])
    scale = 0.5 * (radii[0] + radii[1])
    prod = reflection(sphere((centers[0] - mid) / scale, radii[0] / scale)) @ reflection(
        sphere((centers[1] - mid) / scale, radii[1] / scale))
    power = np.eye(6)
    dists = []
    for _ in range(order):
        power = power @ prod
        dists.append(float(np.abs(power - np.eye(6)).max()))
    return dists[-1], min(dists[:-1], default=math.inf)


def bending_rotation(locus, t):
    """E_t in the amalgam frame (the locus centre at the origin): rotation
    by t in the 2-plane of the locus's rotation axes.  Fixes the circle's
    2-plane (and the circle itself) pointwise; E_t E_s = E_{t+s} and E_0 = I
    hold by construction of the rotation block."""
    p, q = locus.rotation_axes
    e = np.eye(6)
    e[p, p] = math.cos(t)
    e[q, q] = math.cos(t)
    e[p, q] = -math.sin(t)
    e[q, p] = math.sin(t)
    return e


def commutation_residual(e, r):
    """max || E R E^-1 - R ||_inf over the reflections r (k, 6, 6)."""
    return float(np.abs(e @ r @ inverse(e) - r).max())


def bent_word_matrix(group, j, t, word):
    """The word's matrix in the representation bent by t at amalgam j, in
    the amalgam frame: each ball's scalar reflection about the locus centre,
    conjugated by E_t when the ball's host cube lies past the amalgam's first
    cube (side B), multiplied left to right."""
    locus = bd.bending_locus(group, j)
    e = bending_rotation(locus, t)
    cover = group.cover
    m = np.eye(6)
    for b in word:
        r = reflection(sphere(cover.centers[b] - locus.center, cover.radii[b]))
        m = m @ (e @ r @ e.T if cover.host[b] > group.amalgams[j].cube_pair[0] else r)
    return m


def reference_bend(group, j, t, word, tol=1e-8):
    """The per-angle matrix reference for `bending.bend` at one angle t,
    everything built again for this t: the crossing relations' residuals
    ||(R_i E_t R_k E_t^-1)^m - I|| from `groups.relation_residuals`, each
    pair in its own unit frame with its side-B sphere rotated by E_t (the
    6x6 `bending_rotation`); the commutation residual of E_t with the
    Gamma_j reflections, from the scalar sphere and reflection in Gamma_j's
    unit frame; and lambda_max from the eigvals of the bent crossing word's
    matrix.  A row {t, max_relation_residual, commutation_residual,
    lambda_max}.  A residual above `tol`, or not a number, raises a
    GroupError that names the relation, as bend's does, or the commutation
    residual."""
    locus = bd.bending_locus(group, j)
    e = bending_rotation(locus, t)
    side_b = bd.split_sides(group, j)
    rows, _shift = bd.crossing_relations(group, j)
    cover = group.cover

    def frame_reflections(balls):
        balls = list(balls)
        return gr.reflection_matrices(lz.spheres(cover.centers[balls] - locus.center,
                                                 cover.radii[balls]))

    pairs = rows[:, :2]
    centers = cover.centers[pairs] - locus.center
    moved = side_b[pairs]
    centers[moved] = centers[moved] @ e[:4, :4].T
    residual, _gap = gr.relation_residuals(centers, cover.radii[pairs], rows[:, 2])
    max_residual = float(residual.max(initial=0.0))
    if not max_residual <= tol:
        w = int(residual.argmax())
        i, k, m = (int(x) for x in rows[w])
        axes = list(locus.rotation_axes)  # a member centred on E_t's fixed plane commutes
        off = np.abs(cover.centers[[i, k]][:, axes] - locus.center[axes])
        raise gr.GroupError(
            f"bending at amalgam {j} breaks relation (R_{i} R_{k})^{m} = 1: "
            f"residual {max_residual:.3e}"
            + ("" if (off <= 1e-9 * cover.unit).all(axis=1).any()
               else " (no member commutes with the bending rotation)")
        )
    ids = list(group.amalgams[j].ball_ids)  # Gamma_j, in its own unit frame
    shift, scale = cover.centers[ids].mean(axis=0), cover.radii[ids].mean()
    r = np.array([reflection(sphere((cover.centers[b] - shift) / scale, cover.radii[b] / scale))
                  for b in ids])
    commutation = commutation_residual(e, r)
    if not commutation <= tol:
        raise gr.GroupError(f"bending at amalgam {j} does not commute with Gamma_j: "
                            f"commutation residual {commutation:.3e}")
    m = np.eye(6)
    for b in word:
        g = frame_reflections([b])[0]
        m = m @ (e @ g @ inverse(e) if side_b[b] else g)
    return {"t": t, "max_relation_residual": max_residual,
            "commutation_residual": commutation, "lambda_max": lambda_max(m)}


def lambda_max(m):
    """Largest eigenvalue modulus by LAPACK's eigvals: the dilation of a
    loxodromic map, about 1 for an elliptic or a parabolic one."""
    return float(np.abs(np.linalg.eigvals(np.asarray(m, dtype=float))).max())


def bent_pair_lambda_mp(group, j, t, pair, dps=50):
    """lambda_max of the crossing word of `pair` bent by t at amalgam j, at
    `dps` decimal digits: the two balls' float data about the locus centre,
    the side-B ball's centre rotated by t in E_t's plane with mpmath's cos
    and sin, their inversive product P, and exp(2 acosh |P|), the dilation
    of two reflections whose hyperplanes lie acosh |P| apart; 1 when the
    balls meet (|P| <= 1)."""
    import mpmath

    with mpmath.workdps(dps):
        locus = bd.bending_locus(group, j)
        p, q = locus.rotation_axes
        cover = group.cover
        side_b = bd.split_sides(group, j)
        cos, sin = mpmath.cos(mpmath.mpf(t)), mpmath.sin(mpmath.mpf(t))
        centers = []
        for b in pair:
            x = [mpmath.mpf(float(v)) - mpmath.mpf(float(o))
                 for v, o in zip(cover.centers[b], locus.center)]
            if side_b[b]:
                x[p], x[q] = cos * x[p] - sin * x[q], sin * x[p] + cos * x[q]
            centers.append(x)
        ra, rb = (mpmath.mpf(float(cover.radii[b])) for b in pair)
        d2 = sum((u - v) ** 2 for u, v in zip(*centers))
        prod = abs((d2 - ra * ra - rb * rb) / (2 * ra * rb))
        return mpmath.exp(2 * mpmath.acosh(prod)) if prod > 1 else mpmath.mpf(1)


# ---------------------------------------------------------------------------
# The knot surface one cell, face and edge at a time, in dicts and sets


def rasterize(c):
    """All cubes as unit 3-cells: list of (corner, spanned_axes)."""
    unit = c.unit
    cells = []
    for cube in c.all_cubes:
        n = cube.edge // unit
        ax = tuple(a for a in range(4) if a != cube.omitted_axis)
        base = cube.corner
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    corner = list(base)
                    corner[ax[0]] += i * unit
                    corner[ax[1]] += j * unit
                    corner[ax[2]] += k * unit
                    cells.append((tuple(corner), ax))
    return cells


def _cell_faces(corner, axes, unit):
    for a in axes:
        rest = tuple(b for b in axes if b != a)
        lo = corner
        hi = list(corner)
        hi[a] += unit
        yield (lo, rest)
        yield (tuple(hi), rest)


def face_vertices(face, unit):
    """A face (corner, (i, j))'s four lattice vertices in cyclic order."""
    corner, (i, j) = face
    v1 = list(corner)
    v1[i] += unit
    v2 = list(corner)
    v2[j] += unit
    v3 = list(v1)
    v3[j] += unit
    return [corner, tuple(v1), tuple(v3), tuple(v2)]


def face_edges_directed(face, unit):
    vs = face_vertices(face, unit)
    return [(vs[k], vs[(k + 1) % 4]) for k in range(4)]


def knot_surface(c):
    """complexes.knot_surface's fields, from unit faces counted in a dict:
    faces and vertices as sorted lists of tuples, issues as a tuple."""
    unit = c.unit
    count = defaultdict(int)
    for corner, axes in rasterize(c):
        for face in _cell_faces(corner, axes, unit):
            count[face] += 1
    issues = []
    over = [f for f, n in count.items() if n > 2]
    if over:
        issues.append(f"{len(over)} faces shared by more than two cells (e.g. {min(over)})")
    faces = sorted(f for f, n in count.items() if n == 1)

    # closedness: every edge must bound exactly two surface faces
    edge_faces = defaultdict(list)
    for idx, f in enumerate(faces):
        for a, b in face_edges_directed(f, unit):
            edge_faces[frozenset((a, b))].append(idx)
    bad_edges = {e: fs for e, fs in edge_faces.items() if len(fs) != 2}
    closed = not bad_edges
    if bad_edges:
        e, fs = next(iter(bad_edges.items()))
        issues.append(
            f"{len(bad_edges)} surface edges do not bound exactly two faces "
            f"(e.g. edge {sorted(e)} bounds {len(fs)})"
        )

    vertices = set()
    for f in faces:
        vertices.update(face_vertices(f, unit))
    n_v, n_e, n_f = len(vertices), len(edge_faces), len(faces)
    chi = n_v - n_e + n_f

    orientable = True
    connected = True
    if closed and faces:
        # Propagate orientations: adjacent faces must traverse a shared edge
        # in opposite directions.  sign[i] flips face i's canonical cycle.
        directed = [set(face_edges_directed(f, unit)) for f in faces]
        sign = [0] * len(faces)
        sign[0] = 1
        queue = deque([0])
        reached = 1
        while queue:
            i = queue.popleft()
            for a, b in directed[i]:
                e = frozenset((a, b))
                for j in edge_faces[e]:
                    if j == i:
                        continue
                    # same-direction edge in both canonical cycles => opposite signs
                    want = -sign[i] if (a, b) in directed[j] else sign[i]
                    if sign[j] == 0:
                        sign[j] = want
                        reached += 1
                        queue.append(j)
                    elif sign[j] != want:
                        orientable = False
        connected = reached == len(faces)
        if not connected:
            issues.append(f"surface is disconnected ({reached} of {len(faces)} faces reached)")
        if not orientable:
            issues.append("surface is not orientable")
        if connected and chi != 2:
            issues.append(f"Euler characteristic {chi} != 2 (not a 2-sphere)")

    return {
        "faces": faces,
        "vertices": sorted(vertices),
        "unit": unit,
        "n_vertices": n_v,
        "n_edges": n_e,
        "euler_characteristic": chi,
        "orientable": orientable,
        "connected": connected,
        "closed": closed,
        "issues": tuple(issues),
    }
