"""Acceptance suite: the ten primary criteria, one pass/fail line each.

Runs the full-scale configuration (the two-chamber fused complex with its
unit-scale ball cover) end to end.  Each test prints a single
"PASS criterion N: ..." line on success; a failure shows up as an ordinary
pytest failure for that criterion only.
"""

import math
import os
import time

import numpy as np
import pytest
import sympy

from wildknot import alexander as ax
from wildknot import bending as bd
from wildknot import complexes as cx
from wildknot import groups as gr
from wildknot import limitset as ls
from wildknot import lorentz as lz
from wildknot import cli
from wildknot.cli import RunConfig
from wildknot.cover import (
    ROLE_VERTEX,
    build_cover,
    closed_form_parameters,
    coverage_check,
    face_ball_offset,
    pairwise_sweep,
)
from wildknot.presets import spun_trefoil_preset

import oracles as orc


def _report(n, message):
    print(f"\nPASS criterion {n}: {message}")


@pytest.fixture(scope="module")
def complex_():
    return spun_trefoil_preset()


@pytest.fixture(scope="module")
def cover(complex_):
    return build_cover(complex_)


@pytest.fixture(scope="module")
def group(complex_, cover):
    return gr.assemble_group(complex_, cover)


@pytest.fixture(scope="module")
def schottky(cover):
    return gr.pairwise_disjoint_subassembly(cover, n=4)


@pytest.fixture(scope="module")
def orbit8(schottky):
    return gr.orbit_spheres(schottky, 8)


# ---------------------------------------------------------------------------
# 1. cover construction: exact closed forms, all pairs legal, fast


def test_criterion_1_cover_geometry(complex_, cover):
    t0 = time.perf_counter()
    p = closed_form_parameters(float(complex_.unit))
    ell = float(complex_.unit)
    a = face_ball_offset(ell)
    # the face-offset defining identity and each closed form, to 1e-9
    assert abs(a * a - 3.0 * ell * a + ell * ell / 2.0) <= 1e-9
    assert abs(p["vertex_radius"] - ell / math.sqrt(3.0)) <= 1e-9
    assert abs(p["face_radius"] - a * math.sqrt(2.0 / 3.0)) <= 1e-9
    assert abs(p["center_radius"] - a / math.sqrt(3.0)) <= 1e-9
    assert abs(p["junction_radius"] - ell / (2.0 * math.sqrt(3.0))) <= 1e-9
    # every built radius equals its closed form exactly (to 1e-9);
    # face_offset is a center displacement, not a radius
    built = sorted(set(np.round(cover.radii, 12)))
    expected = sorted(
        set(np.round([v for k, v in p.items() if k != "face_offset"], 12))
    )
    assert len(built) == len(expected)
    assert max(abs(b - e) for b, e in zip(built, expected)) <= 1e-9

    max_res, n_int, violations, _adj = pairwise_sweep(cover.centers, cover.radii)
    elapsed = time.perf_counter() - t0
    assert violations == []
    assert max_res <= 1e-9
    assert n_int == len(cover.adjacency)
    assert elapsed < 60.0
    _report(
        1,
        f"{len(cover)} balls, {n_int} intersecting pairs all at legal "
        f"angles (max residual {max_res:.2e} <= 1e-9), closed forms exact, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. coverage: every surface face fully covered at 10^4 samples/face


def test_criterion_2_coverage(complex_, cover):
    surf = cx.knot_surface(complex_)
    fraction, misses = coverage_check(cover, surf, n_samples=10_000, seed=0)
    assert misses == []
    assert fraction == 1.0
    _report(
        2,
        f"coverage fraction {fraction} over {len(surf.faces)} faces "
        f"x 10^4 samples, zero misses",
    )


# ---------------------------------------------------------------------------
# 3. relations hold at order, no premature identity, bounded drift


def test_criterion_3_relations_and_drift(group):
    suite = gr.relation_suite(group, tol=1e-8)
    assert suite["ok"]
    assert suite["max_residual"] <= 1e-8
    assert suite["min_premature_gap"] > 0.5

    # length-8 words through the amalgam's disjoint diagonal reach
    # ||M|| ~ 4e4, putting the float64 drift floor (eps * ||M||^2) above
    # the 1e-7 gate; extended-precision accumulation is required and provided
    sub = gr.subassembly(group.cover, group.amalgams[0].ball_ids)
    table = gr.enumerate_words(sub, 8, dtype=np.longdouble)
    drift = gr.lorentz_drift(table)
    assert drift <= 1e-7
    _report(
        3,
        f"{suite['n_relations']} relations hold to {suite['max_residual']:.2e} "
        f"<= 1e-8 (premature gap {suite['min_premature_gap']:.2f}), form drift "
        f"{drift:.2e} <= 1e-7 over {len(table.words)} classes at L<=8",
    )


# ---------------------------------------------------------------------------
# 4. faithfulness at L=6 plus an independent dihedral oracle


def test_criterion_4_faithfulness(group):
    sub = gr.subassembly(group.cover, group.amalgams[0].ball_ids)
    scan = gr.faithfulness_scan(sub, 6)
    assert scan["ok"]
    assert scan["violations"] == []
    assert scan["min_gap"] > 0.1

    # oracle: an order-3 crossing pair generates the dihedral group of
    # order 6 -- exactly 6 word classes, and (R_i R_j)^3 = I
    i, j, order = next(a for a in group.cover.adjacency if a[2] == 3)
    pair = gr.subassembly(group.cover, (i, j))
    words = gr.enumerate_words(pair, 6)
    assert len(words.words) == 6
    prod = pair.matrices[0] @ pair.matrices[1]
    assert np.abs(np.linalg.matrix_power(prod, 3) - np.eye(6)).max() <= 1e-8
    _report(
        4,
        f"no identity among {scan['n_classes']} nonempty word classes at L=6 "
        f"(min gap {scan['min_gap']:.2f} > 0.1); order-3 pair generates "
        f"exactly 6 classes (dihedral oracle)",
    )


# ---------------------------------------------------------------------------
# 5. orbit nesting: strict unique parents, geometric radius decay


def test_criterion_5_nesting_and_decay(schottky, orbit8):
    t0 = time.perf_counter()
    orbit = orbit8
    deeper = orbit.generation >= 1
    assert (orbit.parent[deeper] >= 0).all()  # every sphere has a parent
    # parents are unique, strictly containing, one generation up
    for idx in np.nonzero(deeper)[0]:
        p = orbit.parent[idx]
        assert orbit.generation[p] == orbit.generation[idx] - 1
        d = float(np.linalg.norm(orbit.centers[idx] - orbit.centers[p]))
        assert d + orbit.radii[idx] < orbit.radii[p] - 1e-12

    by_gen = gr.max_radius_per_generation(orbit)
    gens = sorted(by_gen)
    maxima = [by_gen[g] for g in gens]
    assert all(a >= b for a, b in zip(maxima, maxima[1:]))
    assert by_gen[8] <= 0.2 * by_gen[1]

    # every depth-8 point sits inside its depth-7 parent sphere, so the
    # one-sided step from the refined cloud back to the coarser one is
    # bounded by the largest generation-7 radius
    orbit7 = gr.orbit_spheres(schottky, 7)
    step = ls.hausdorff_one_sided(
        ls.cloud_from_orbit(orbit, np.inf), ls.cloud_from_orbit(orbit7, np.inf)
    )
    assert 0.0 < step <= by_gen[7] + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        5,
        f"{len(orbit.radii)} spheres to generation 8: unique strict parents, "
        f"max radius decay {by_gen[1]:.3g} -> {by_gen[8]:.3g} "
        f"(ratio {by_gen[8] / by_gen[1]:.2e} <= 0.2), refinement step "
        f"{step:.2e} <= {by_gen[7]:.2e}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. fundamental domain: the common exterior maps inside every generator ball


def test_criterion_6_fundamental_domain(cover):
    report = gr.fundamental_domain_check(cover, budget=100_000, seed=0)
    assert report["ok"]
    assert report["violations"] == 0
    _report(
        6,
        f"{report['checks']} (generator, point) checks over "
        f"{report['n_sample_points']} exterior points, zero violations",
    )


# ---------------------------------------------------------------------------
# 7. loxodromic fixed points accumulate on the orbit closure


def test_criterion_7_loxodromic_hull(schottky):
    L = 6
    orbit = gr.orbit_spheres(schottky, L)
    cloud, skipped = ls.loxodromic_points(schottky, 100, seed=3, word_length=L)
    assert len(cloud) == 100
    assert cloud.n_infinite == 0
    eps = float(orbit.radii[orbit.generation == L].max())
    ref = ls.cloud_from_orbit(orbit, np.inf, offset=schottky.offset)
    dist = ls.hausdorff_one_sided(cloud, ref)
    assert dist <= eps + 1e-9
    _report(
        7,
        f"100 loxodromic fixed points (skipped {skipped}) within "
        f"{dist:.2e} of the depth-{L} orbit cloud (eps = {eps:.2e})",
    )


# ---------------------------------------------------------------------------
# 8. bending: one-parameter family of deformed representations


def test_criterion_8_bending(group):
    suitable = bd.suitable_amalgams(group)
    assert suitable
    def mid_leg(k):
        am = group.amalgams[k]
        if not am.straight:
            return False
        center = np.array([(lo + hi) / 2.0 for lo, hi in am.square])
        return 30 <= center[3] <= 50 and center[0] > 40 and center[1] > 25

    j = next(k for k in suitable if mid_leg(k))
    locus = bd.bending_locus(group, j)
    ell = float(group.cover.unit)
    assert abs(locus.radius - ell / math.sqrt(6.0)) <= 1e-9

    word = bd.crossing_word(group, j)
    ts = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
    rows = bd.bend(group, j, ts, word, tol=1e-8)
    assert [row["t"] for row in rows] == list(ts)
    worst_shift = float(bd.crossing_relations(group, j)[1].max(initial=0.0))
    # the bent relations' matrix residuals and E_t's commutation with Gamma_j,
    # from the per-angle reference: bend itself bounds the inversive products'
    # move over all t
    reference = [orc.reference_bend(group, j, t, word) for t in ts]
    worst_rel = max(row["max_relation_residual"] for row in reference)
    worst_comm = max(row["commutation_residual"] for row in reference)
    lam = {t: orc.lambda_max(orc.bent_word_matrix(group, j, t, word)) for t in ts}
    assert [row["lambda_max"] for row in rows] == pytest.approx(list(lam.values()), rel=1e-12)
    assert worst_shift <= 1e-8
    assert worst_rel <= 1e-8
    assert worst_comm <= 1e-9
    assert abs(lam[0.2] - lam[0.0]) > 1e-4
    _report(
        8,
        f"amalgam {j}: locus radius {locus.radius:.12f} = l/sqrt(6), relations "
        f"hold to {worst_rel:.2e} <= 1e-8 for t in 0..0.3 (product shift over all t "
        f"{worst_shift:.2e} <= 1e-8, commutation {worst_comm:.2e} <= 1e-9), "
        f"crossing-word dilation moves |{lam[0.2]:.4f} - {lam[0.0]:.4f}| > 1e-4",
    )


# ---------------------------------------------------------------------------
# 9. knot-group invariants certify nontriviality


def test_criterion_9_invariants():
    t = sympy.Symbol("t")
    trefoil = ax.alexander_polynomial(ax.PRESETS["trefoil"])
    assert trefoil == orc.coefficients(sympy.Poly(t**2 - t + 1, t, domain="ZZ"))
    fig8 = ax.alexander_polynomial(ax.PRESETS["figure-eight"])
    assert fig8 == orc.coefficients(sympy.Poly(t**2 - 3 * t + 1, t, domain="ZZ"))
    granny = ax.alexander_polynomial(ax.PRESETS["granny"])
    assert granny == orc.coefficients(sympy.Poly((t**2 - t + 1) ** 2, t, domain="ZZ"))

    spun = ax.nontriviality_verdict(
        ax.alexander_polynomial(ax.PRESETS["spun-trefoil"]), depth=6
    )
    assert spun["verdict"] == "NONTRIVIAL"
    degrees = [row["degree"] for row in spun["stages"]]
    assert degrees == [2 ** (i + 1) for i in range(len(degrees))]  # stage 0 = base
    assert abs(spun["delta_at_1"]) == 1
    assert not any(row["unit"] for row in spun["stages"])  # every stage nontrivial
    # Delta(1) = +-1 on all presets (it is a knot-group invariant)
    for name, pres in ax.PRESETS.items():
        assert abs(sum(ax.alexander_polynomial(pres))) == 1, name

    unknot = ax.nontriviality_verdict(
        ax.alexander_polynomial(ax.PRESETS["unknot"]), depth=6
    )
    assert unknot["verdict"] == "TRIVIAL"
    _report(
        9,
        "Delta(trefoil) = t^2 - t + 1, Delta(figure-eight) = t^2 - 3t + 1, "
        f"granny = trefoil^2, stage degrees {degrees} = 2^(i+1) with "
        "Delta(1) = +-1 throughout; unknot TRIVIAL",
    )


# ---------------------------------------------------------------------------
# 10. determinism: identical config and seed give byte-identical bundles


def test_criterion_10_determinism(tmp_path):
    def small_cfg():
        return RunConfig(
            max_word_length=4,
            n_stages=3,
            out_dir=str(tmp_path / "bundle"),
            seed=7,
            samples_per_face=50,
            domain_budget=20_000,
        )

    (checks1, checks2), (files, files2), snapshot, differing = orc.rerun_bundle(small_cfg)
    assert files2 == files
    assert {k: v[0] for k, v in checks1.items()} == {
        k: v[0] for k, v in checks2.items()
    }
    assert differing == []
    _report(
        10,
        f"two identical runs produced byte-identical bundles "
        f"({len(files)} files, {sum(len(v) for v in snapshot.values())} bytes)",
    )


def test_criterion_10_control_sees_a_changed_file(tmp_path, monkeypatch):
    """Negative control: a summary that counts the calls that wrote it
    differs between two runs, and the comparison names exactly that file."""
    path = tmp_path / "tube.txt"
    cx.save_complex(orc.straight_tube_complex(), path)
    original, calls = cli._write_summary, []

    def counted(cfg, checks, out):
        original(cfg, checks, out)
        calls.append(out)
        with open(os.path.join(out, "summary.txt"), "a", encoding="utf-8") as fh:
            fh.write(f"call {len(calls)}\n")

    monkeypatch.setattr(cli, "_write_summary", counted)

    def tube_cfg():
        return RunConfig(complex_path=str(path), max_word_length=3, n_stages=3,
                         out_dir=str(tmp_path / "bundle"), samples_per_face=20,
                         domain_budget=20_000)

    _checks, (files, files2), _snapshot, differing = orc.rerun_bundle(tube_cfg)
    assert len(calls) == 2 and files2 == files
    assert differing == ["summary.txt"]
