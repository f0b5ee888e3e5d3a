"""Point-cloud approximations of the limit set, stage reports, and exports.

The limit set of the reflection group is the nested intersection of orbit
balls; it is approximated here by the centers of all orbit spheres below a
radius cutoff (every such sphere contains limit points, so each center is
within its radius of the limit set).  Loxodromic fixed points give a second,
independent family of sample points that must land inside the same nested
hull.  Clouds can be sliced along coordinate hyperplanes for 3D viewing and
exported in CSV, PLY 1.0 ascii, or JSON with byte-deterministic output.
A cloud's provenance is a `groups.RowView` over the integer rows its labels
are formatted from (a sphere index, a word; a slice's rows pick its parent's
labels), formatted on the first read, so a cloud that is never written holds
no per-point string.  A plain list of strings is a valid provenance too.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import json
import math

import numpy as np

from . import lorentz as lz
from .complexes import _fold
from .cover import _grid_join
from .groups import RowView


def _labels(template, rows):
    """Label i is template % tuple(rows[i]), for a template with no newline:
    one % over all rows, split at the newlines, as a tuple per row costs twice
    as much."""
    text = (template + "\n") * len(rows) % tuple(rows.ravel().tolist())
    return text.split("\n")[:-1]


def _pick(labels, rows):
    """labels[i] for each i in rows."""
    return [labels[i] for i in rows.tolist()]


@dataclasses.dataclass
class PointCloud:
    points: np.ndarray  # (n, dim) finite coordinates
    provenance: collections.abc.Sequence  # one label per point: a RowView or a list
    generation: np.ndarray  # (n,) int
    n_infinite: int = 0  # points at infinity excluded from `points`
    notice: str | None = None

    def __len__(self):
        return len(self.points)

    @property
    def dim(self):
        return self.points.shape[1]


def _empty_cloud(dim, notice=None):
    return PointCloud(
        points=np.zeros((0, dim)),
        provenance=RowView(np.zeros((0, 0), dtype=np.int64), functools.partial(_labels, "")),
        generation=np.zeros(0, dtype=np.int64),
        notice=notice,
    )


def cloud_from_orbit(orbit, eps, offset=None):
    """Centers of orbit spheres of radius < eps, in enumeration order.

    `offset` (from a recentered sub-assembly) is added back so clouds live
    in the complex's coordinates.  Every returned point is within eps of the
    limit set: the sphere around it contains limit points of its nesting
    chain.
    """
    keep = np.nonzero(orbit.radii < eps)[0]
    if len(keep) == 0:
        return _empty_cloud(
            4,
            notice=f"no orbit sphere has radius < {eps}; deepest radius is "
            f"{float(orbit.radii.min())} -- increase depth or eps",
        )
    pts = orbit.centers[keep]
    if offset is not None:
        pts += np.asarray(offset, dtype=float)[None, :]
    return PointCloud(
        points=pts,
        provenance=RowView(keep[:, None], functools.partial(_labels, "sphere_center(%d)")),
        generation=orbit.generation[keep],
    )


def loxodromic_points(sub, n, seed=0, word_length=6):
    """Attracting fixed points of n sampled loxodromic words.

    Words are sampled as random cyclically reduced words of the given even
    length (no immediate repeats, first letter != last letter), so the
    attracting fixed point lies inside the word's own orbit sphere;
    non-loxodromic samples (possible when letters share a mirror pattern)
    are skipped and counted, and at most 50 n words are drawn.  Each round
    draws as many words as points are still missing (within that cap),
    multiplies and classifies them as one stack, and keeps the loxodromic
    ones in draw order, so the words are those of a one-at-a-time loop.
    The words act in the sub-assembly's unit frame, and the points are
    reported in the cover's coordinates (scale and offset put back).
    """
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
    cap = 50 * max(n, 1)
    pts, found = [], []
    skipped = n_infinite = attempts = n_found = 0
    while n_found < n and attempts < cap:
        words = np.array([_cyclic_word(rng, k, word_length)
                          for _ in range(min(n - n_found, cap - attempts))])
        attempts += len(words)
        m = np.eye(6)
        for letters in words.T:
            m = m @ sub.matrices[letters]
        kind, att = lz.classify_maps(m)
        lox = kind == lz.LOXODROMIC
        finite = lox & ~np.isnan(att[:, 0])
        skipped += int((~lox).sum())
        n_infinite += int((lox & ~finite).sum())
        pts.append(att[finite] * sub.scale + sub.offset)
        found.append(words[finite])
        n_found += len(found[-1])
    if not n_found:
        return _empty_cloud(4, notice="no loxodromic words found"), skipped
    template = "loxodromic_fixed(" + ",".join(["%d"] * word_length) + ")"
    cloud = PointCloud(
        points=np.concatenate(pts),
        provenance=RowView(np.concatenate(found), functools.partial(_labels, template)),
        generation=np.full(n_found, word_length, dtype=np.int64),
        n_infinite=n_infinite,
    )
    return cloud, skipped


def _cyclic_word(rng, k, length):
    """One cyclically reduced word on k letters, drawn letter by letter with
    rejection (no letter repeats its predecessor, the last differs from the first)."""
    word = [int(rng.integers(k))]
    while len(word) < length:
        g = int(rng.integers(k))
        if g == word[-1]:
            continue
        if len(word) == length - 1 and g == word[0]:
            continue
        word.append(g)
    return word


def containment_fraction(cloud, centers, radii, slack=0.0):
    """Fraction of cloud points inside at least one of the given balls."""
    if len(cloud) == 0:
        return 0.0
    d2 = ((cloud.points[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
    inside = (d2 <= (radii[None, :] + slack) ** 2).any(axis=1)
    return float(inside.mean())


def hausdorff_one_sided(cloud_a, cloud_b):
    """sup over a in A of the distance from a to the set B, exactly.

    Each point of A meets B in its 3^4 neighbouring grid cells of side s, first
    the shared extent over |B| (at most 2^14 cells per axis), and its minimum is
    final once below s(1 - 1e-9): every point outside is s away, up to 1e-11
    cells of rounding.  The rest are searched again with s doubled.  Distances
    use the all-pairs expression, so the result is an all-pairs scan's, bit for bit.
    A non-finite coordinate in either cloud raises ValueError, naming its row.
    """
    for name, cloud in (("A", cloud_a), ("B", cloud_b)):
        if not np.isfinite(cloud.points).all():
            row = int(np.argmin(np.isfinite(cloud.points).all(axis=1)))
            raise ValueError(f"cloud {name} has a non-finite point at row {row}: "
                             f"{cloud.points[row].tolist()}")
    if len(cloud_a) == 0:
        return 0.0
    if len(cloud_b) == 0:
        return float("inf")
    a, b = cloud_a.points, cloud_b.points
    corner = np.minimum(a.min(axis=0), b.min(axis=0))
    extent = float((np.maximum(a.max(axis=0), b.max(axis=0)) - corner).max())
    side = extent / min(len(b), 2**14) or 1.0
    best = np.full(len(a), np.inf)
    todo = np.arange(len(a))
    while len(todo):
        for i, j in _grid_join(a[todo] - corner, b - corner, side):
            diff = a[todo[i]] - b[j]
            diff *= diff
            np.minimum.at(best, todo[i], _fold(np.add, diff))
        todo = todo[best[todo] >= (side * (1.0 - 1e-9)) ** 2]
        side *= 2.0
    return float(np.sqrt(best).max())


def stage_report(stages):
    """Formal connected-sum description per polyhedron stage."""
    out = []
    for s in stages:
        desc = "K_0 = base knot" if s.k == 0 else f"K_{s.k} = K_{s.k - 1} # K_{s.k - 1}"
        out.append(
            {
                "stage": s.k,
                "description": desc,
                "side_count": s.n_sides,
                "reflector_seq": s.reflector_seq,
                "invariant_stage_index": s.k,  # pairs with stage_polynomial(k)
            }
        )
    return out


def slice_cloud(cloud, axis, value, thickness):
    """Points within `thickness` of the hyperplane x[axis]=value, as 3D."""
    if thickness <= 0:
        raise ValueError("thickness must be positive")
    if cloud.dim != 4:
        raise ValueError("slicing expects a 4D cloud")
    if axis not in range(4):
        raise ValueError(f"slice axis must be 0, 1, 2 or 3, not {axis}")
    keep = np.nonzero(np.abs(cloud.points[:, axis] - value) <= thickness)[0]
    other = [a for a in range(4) if a != axis]
    if len(keep) == 0:
        return _empty_cloud(
            3, notice=f"no points within {thickness} of axis {axis} = {value}"
        )
    return PointCloud(
        points=cloud.points[np.ix_(keep, other)],
        provenance=RowView(keep, functools.partial(_pick, cloud.provenance)),
        generation=cloud.generation[keep],
    )


# ---------------------------------------------------------------------------
# Exports (byte-deterministic)


def _float_columns(a, fmt=float.__repr__):
    """[[fmt(x) for x in column] for column in a.T] for an (n, k) float array,
    calling fmt once per distinct uint64 bit pattern of a column, not per
    entry: -0.0 and 0.0 compare equal but keep their own text, and so does
    every NaN payload."""
    out = []
    for col in np.asarray(a, dtype=np.float64).T:
        bits, inverse = np.unique(np.ascontiguousarray(col).view(np.uint64), return_inverse=True)
        text = np.array([fmt(x) for x in bits.view(np.float64).tolist()], dtype=object)
        out.append(text[inverse.reshape(-1)].tolist())
    return out


def _json_float(x):
    """A float as json.dumps writes it: NaN, Infinity and -Infinity for the
    non-finite ones, float.__repr__ for the rest."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def export_cloud(cloud, fmt, path):
    if fmt == "csv":
        data = cloud_to_csv(cloud)
    elif fmt == "ply":
        data = cloud_to_ply(cloud)
    elif fmt == "json":
        data = cloud_to_json(cloud)
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)
    return path


def cloud_to_csv(cloud):
    """One row per point, each coordinate written shortest round-trip by
    repr(float), once per distinct value of its column."""
    cols = ["x1", "x2", "x3", "x4"][: cloud.dim]
    row = "%s," * cloud.dim + "%d,%s"
    lines = [",".join(cols + ["generation", "provenance"])]
    lines += [row % r for r in
              zip(*_float_columns(cloud.points), cloud.generation.tolist(), cloud.provenance)]
    return "\n".join(lines) + "\n"


def cloud_to_ply(cloud):
    """PLY 1.0 ascii; vertices carry generation as an int scalar property.

    4D clouds store the fourth coordinate as an extra float property `w`.
    """
    dim = cloud.dim
    if dim not in (3, 4):
        raise ValueError("PLY export expects a 3D slice or a 4D cloud")
    header = [
        "ply",
        "format ascii 1.0",
        "comment limit-set point cloud",
        f"element vertex {len(cloud)}",
        "property float x",
        "property float y",
        "property float z",
    ]
    if dim == 4:
        header.append("property float w")
    header += ["property int generation", "end_header"]
    row = "%s " * dim + "%d"
    rows = [row % r for r in zip(*_float_columns(cloud.points), cloud.generation.tolist())]
    return "\n".join(header + rows) + "\n"


def cloud_to_json(cloud):
    """json.dumps(doc, indent=2, sort_keys=True) + "\n" text of the cloud, with
    the points written from one template per point: each distinct coordinate
    is formatted once, and each provenance is quoted by the function json.dumps
    calls for a str (encode_basestring_ascii).  The scalar head and the empty
    cloud come from json.dumps itself; "points" sorts after the other keys, so
    the points list closes the document."""
    head = json.dumps({
        "dim": cloud.dim,
        "n_infinite": cloud.n_infinite,
        "n_points": len(cloud),
        "notice": cloud.notice,
        "points": [],
    }, indent=2, sort_keys=True)
    if not len(cloud):
        return head + "\n"
    dim = cloud.dim
    coords = "[\n" + ",\n".join(["        %s"] * dim) + "\n      ]" if dim else "[]"
    item = ('    {\n      "coords": ' + coords
            + ',\n      "generation": %d,\n      "provenance": %s\n    }')
    items = [item % row for row in zip(*_float_columns(cloud.points, _json_float),
                                        cloud.generation.tolist(),
                                        map(json.encoder.encode_basestring_ascii,
                                            cloud.provenance))]
    return head[: -len("[]\n}")] + "[\n" + ",\n".join(items) + "\n  ]\n}\n"
