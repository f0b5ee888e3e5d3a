"""The shared set-up, the three timed phases and their exact oracles.

Every phase calls wildknot through module attributes (`gr.orbit_spheres`,
not a name imported at load time), so the tracer's patches are seen.  Each
oracle is an exact count or a bound proved for the construction; a phase
whose output fails one counts as failed, however fast it ran.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil

import numpy as np

from wildknot import cli
from wildknot import complexes as cx
from wildknot import cover as cv
from wildknot import groups as gr
from wildknot import limitset as ls
from wildknot import presets

# The bundled preset: surface faces, cover pairs and amalgams at k=0.
PRESET_FACES = 9850
PRESET_PAIRS = 177_358
PRESET_AMALGAMS = 277

# `report` runs on the preset's construction with the big-cube edge scaled
# from 27 to 11 (see scaled_spun_trefoil), so that a repetition takes seconds.
REPORT_EDGE = 11
REPORT_FACES = 1946
REPORT_PAIRS = 35_070
REPORT_CHECKS = ("complex", "cover", "relations", "faithfulness", "orbit_nesting",
                 "stages", "limitset", "fundamental_domain", "bending", "invariants")

# `orbit7` word lengths and `certify1k` sizes.
ORBIT_L = 7
LOX_L = 6
WORDS_L = 8
FAITH_L = 6
COVERAGE_SAMPLES = 1000
DOMAIN_BUDGET = 100_000

OUT_DIR = ".bench_out"  # relative to the checkout root, which is the cwd
REPORT_COMPLEX = os.path.join(OUT_DIR, "report_complex.txt")
REPORT_BUNDLE = os.path.join(OUT_DIR, "report_bundle")


def expected_balls(n_faces):
    """Balls of a k=0 cover: the surface is a quadrangulated sphere, so it has
    F + 2 vertices (V - 2F + F = 2); each face carries 5 balls and each of the
    two attach squares 4 junction balls."""
    return (n_faces + 2) + 5 * n_faces + 8


def amalgam_growth(n):
    """Word classes per length of an amalgam sub-assembly, lengths 0..n.

    Four generators in a 4-cycle of order-3 pairs with infinite diagonals.
    The finite parabolic subgroups are the empty set, 4 singletons and 4
    edges (A2), so 1/W(t) = 1 - 4t/(1+t) + 4t^3/((1+t)(1+t+t^2)), i.e.
    W(t) = (1 + 2t + 2t^2 + t^3) / (1 - 2t - 2t^2 + t^3).
    """
    num = [1, 2, 2, 1]
    a = []
    for k in range(n + 1):
        v = num[k] if k < len(num) else 0
        v += 2 * (a[k - 1] if k >= 1 else 0) + 2 * (a[k - 2] if k >= 2 else 0)
        v -= a[k - 3] if k >= 3 else 0
        a.append(v)
    return a


def schottky_spheres(length):
    """Orbit spheres of 4 disjoint mirrors (free product of four Z/2) to `length`."""
    return 4 * (3 ** (length + 1) - 1) // 2


def scaled_spun_trefoil(edge):
    """The bundled preset's construction with big-cube edge `edge` (odd, >= 9).

    Keeps the preset's four hyperplane levels (-e, 0, 2e, 3e), its turns and
    its over/under pattern, with the tube's fixed margins unchanged.
    edge=27 reproduces `presets.spun_trefoil_preset()` cube for cube.
    """
    e, c = edge, (edge - 1) // 2
    x1 = e + c  # Q1's x offset
    tube = []

    def leg(corner, axis, n, omit, step=1):
        corner = list(corner)
        for _ in range(n):
            tube.append(cx.Cube3(tuple(corner), 1, omit))
            corner[axis] += step

    leg((c, c, 0, -1), 3, e, 2, -1)
    leg((c, c, 0, -e), 2, 2, 3)
    leg((c + 1, c, 1, -e), 0, e + 8 - c, 3)
    leg((e + 8, c, 1, -e), 3, e, 2)
    leg((e + 8, c, 1, 0), 0, x1 - e - 1, 3)
    leg((x1 + 6, c + 1, 1, 0), 1, e + 3 - c, 3)
    leg((x1 + 6, e + 3, 1, 0), 3, 3 * e, 2)
    leg((x1 + 6, e + 3, 1, 3 * e), 1, e + 4 - c, 3, -1)
    leg((x1 + 7, c, 1, 3 * e), 0, e - 4, 3)
    leg((x1 + e + 2, c, 1, 3 * e - 1), 3, e, 2, -1)
    leg((x1 + e + 2, c, 0, 2 * e), 2, 3, 3, -1)
    leg((x1 + e + 1, c, -2, 2 * e), 0, e + 2 - c, 3, -1)
    leg((x1 + c, c, -1, 2 * e), 0, 1, 3)
    big = (cx.Cube3((0, 0, 0, 0), e, 3), cx.Cube3((x1, 0, 0, 2 * e), e, 3))
    return cx.CubeComplex(big, tuple(tube))


class Checks:
    """Named pass/fail results; every one attempted counts toward fail_frac."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return bool(ok)


# ---------------------------------------------------------------------------
# Set-up, shared by all workloads


@dataclasses.dataclass
class Setup:
    complex: object
    issues: list
    surface: object
    cover: object
    group: object


def setup():
    c = presets.preset_complex("spun-trefoil")
    issues = cx.validate_complex(c)
    surf = cx.knot_surface(c)
    cover = cv.build_cover(c, k=0)
    group = gr.assemble_group(c, cover)
    return Setup(c, issues, surf, cover, group)


def check_setup(s, checks):
    checks.add("setup.complex_valid", s.issues == [])
    checks.add("setup.faces", len(s.surface.faces) == PRESET_FACES)
    checks.add("setup.balls", len(s.cover) == expected_balls(PRESET_FACES))
    checks.add("setup.pairs", len(s.cover.adjacency) == PRESET_PAIRS)
    checks.add("setup.amalgams", len(s.group.amalgams) == PRESET_AMALGAMS)


# ---------------------------------------------------------------------------
# report: the user's `report` command on the scaled complex


def report_prepare(_ctx):
    os.makedirs(OUT_DIR, exist_ok=True)
    cx.save_complex(scaled_spun_trefoil(REPORT_EDGE), REPORT_COMPLEX)
    shutil.rmtree(REPORT_BUNDLE, ignore_errors=True)


def report_phase(_ctx, seed):
    cfg = cli.RunConfig(complex_path=REPORT_COMPLEX, out_dir=REPORT_BUNDLE, seed=seed)
    checks, _out = cli.run_pipeline(cfg)
    return checks


def bundle_digest(path):
    """SHA-256 over the bundle's relative file names and bytes, in sorted order."""
    h = hashlib.sha256()
    n_bytes = 0
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(root, name)
            with open(full, "rb") as fh:
                data = fh.read()
            rel = os.path.relpath(full, path).replace(os.sep, "/")
            h.update(rel.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
            n_bytes += len(data)
    return h.hexdigest(), n_bytes


def report_check(out, checks):
    for name in REPORT_CHECKS:
        checks.add(f"report.{name}", name in out and out[name][0])
    checks.add("report.no_extra_checks", sorted(out) == sorted(REPORT_CHECKS))
    with open(os.path.join(REPORT_BUNDLE, "cover_report.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    checks.add("report.balls", rep["n_balls"] == expected_balls(REPORT_FACES))
    checks.add("report.pairs", rep["n_intersecting_pairs"] == REPORT_PAIRS)
    checks.add("report.adjacency", rep["n_adjacency_pairs"] == REPORT_PAIRS)
    digest, n_bytes = bundle_digest(REPORT_BUNDLE)
    return {"digest": digest, "bundle_bytes": n_bytes, "n_balls": rep["n_balls"],
            "n_intersecting_pairs": rep["n_intersecting_pairs"]}


# ---------------------------------------------------------------------------
# orbit7: orbits, limit set, stages and words on two sub-assemblies


def orbit_phase(ctx, seed):
    sch = gr.pairwise_disjoint_subassembly(ctx.cover, n=4)
    deep = gr.orbit_spheres(sch, ORBIT_L)
    coarse = gr.orbit_spheres(sch, ORBIT_L - 1)
    step = ls.hausdorff_one_sided(ls.cloud_from_orbit(deep, np.inf),
                                  ls.cloud_from_orbit(coarse, np.inf))
    lox, _skipped = ls.loxodromic_points(sch, 100, seed=seed, word_length=LOX_L)
    lox_ref = ls.cloud_from_orbit(coarse, np.inf, offset=sch.offset)
    lox_dist = ls.hausdorff_one_sided(lox, lox_ref)
    stages = gr.polyhedron_stages(sch, deep, 4)
    am = gr.subassembly(ctx.cover, ctx.group.amalgams[0].ball_ids)
    table = gr.enumerate_words(am, WORDS_L, dtype=np.longdouble)
    drift = gr.lorentz_drift(table)
    faith = gr.faithfulness_scan(am, FAITH_L)
    return {"deep": deep, "coarse": coarse, "step": step, "lox": lox,
            "lox_dist": lox_dist, "stages": stages, "table": table, "drift": drift,
            "faith": faith}


def _max_radius_by_generation(orbit):
    # not gr.max_radius_per_generation: the oracle does not reuse the code it checks
    return [float(orbit.radii[orbit.generation == g].max())
            for g in range(int(orbit.generation.max()) + 1)]


def orbit_check(out, checks):
    deep, coarse = out["deep"], out["coarse"]
    checks.add("orbit.spheres_deep", len(deep.radii) == schottky_spheres(ORBIT_L))
    checks.add("orbit.spheres_coarse",
               len(coarse.radii) == schottky_spheres(ORBIT_L - 1))
    checks.add("orbit.not_truncated", not deep.truncated and not coarse.truncated)
    kids = np.nonzero(deep.generation >= 1)[0]
    par = deep.parent[kids]
    has_parent = bool((par >= 0).all())
    checks.add("orbit.parents_assigned", has_parent)
    if has_parent:
        checks.add("orbit.parent_generation",
                   bool((deep.generation[par] == deep.generation[kids] - 1).all()))
        d = np.linalg.norm(deep.centers[kids] - deep.centers[par], axis=1)
        checks.add("orbit.parent_strict",
                   bool((d + deep.radii[kids] < deep.radii[par] - 1e-12).all()))
    maxr = _max_radius_by_generation(deep)
    checks.add("orbit.decay_monotone", all(a >= b for a, b in zip(maxr, maxr[1:])))
    checks.add("orbit.decay_ratio", maxr[ORBIT_L] <= 0.2 * maxr[1])
    checks.add("orbit.hausdorff_step", 0.0 < out["step"] <= maxr[ORBIT_L - 1] + 1e-12)

    lox = out["lox"]
    eps = _max_radius_by_generation(coarse)[LOX_L]
    checks.add("orbit.lox_count", len(lox) == 100 and lox.n_infinite == 0)
    checks.add("orbit.lox_inside", out["lox_dist"] <= eps + 1e-9)
    checks.add("orbit.stage_sides", [s.n_sides for s in out["stages"]] == [4, 6, 10, 18, 34])

    growth = amalgam_growth(WORDS_L)
    per_length = np.bincount(out["table"].lengths, minlength=WORDS_L + 1).tolist()
    checks.add("orbit.word_growth", per_length == growth)
    checks.add("orbit.word_drift", out["drift"] <= 1e-7)
    faith = out["faith"]
    checks.add("orbit.faithful", faith["ok"]
               and faith["n_classes"] == sum(growth[: FAITH_L + 1]))
    return {}


# ---------------------------------------------------------------------------
# certify1k: coverage, relations and fundamental domain on the full cover


def certify_phase(ctx, seed):
    fraction, misses = cv.coverage_check(ctx.cover, ctx.surface,
                                         n_samples=COVERAGE_SAMPLES, seed=seed)
    relations = gr.relation_suite(ctx.group)
    domain = gr.fundamental_domain_check(ctx.cover, budget=DOMAIN_BUDGET, seed=seed)
    return {"fraction": fraction, "misses": misses, "relations": relations,
            "domain": domain}


def certify_check(out, checks):
    checks.add("certify.coverage", out["fraction"] == 1.0 and out["misses"] == [])
    rel = out["relations"]
    checks.add("certify.relations", rel["ok"] and rel["n_relations"] == PRESET_PAIRS)
    dom = out["domain"]
    checks.add("certify.domain", dom["ok"] and dom["violations"] == 0
               and dom["checks"] > 0)
    return {}


@dataclasses.dataclass(frozen=True)
class Workload:
    needs_setup: bool  # the phase reads the set-up's cover and group
    prepare: object  # untimed, before each repetition
    phase: object  # timed
    check: object  # untimed; returns extra facts for the record


WORKLOADS = {
    "report": Workload(False, report_prepare, report_phase, report_check),
    "orbit7": Workload(True, lambda _ctx: None, orbit_phase, orbit_check),
    "certify1k": Workload(True, lambda _ctx: None, certify_phase, certify_check),
}
