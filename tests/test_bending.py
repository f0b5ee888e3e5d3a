import dataclasses
import math
import re

import numpy as np
import pytest

from wildknot import lorentz as lz
from wildknot.bending import (
    bend,
    bending_locus,
    crossing_relations,
    crossing_word,
    split_sides,
    suitable_amalgams,
)
from wildknot.cli import RunConfig
from wildknot.cover import ROLE_VERTEX, CoverError, build_cover
from wildknot.groups import GroupError, assemble_group, bending_terms
from wildknot.presets import spun_trefoil_preset

import oracles as orc

# The preset's amalgams near the tube's folded-back turns (see
# test_turn_amalgams_unsuitable); every other one of its 277 is bendable.
PRESET_UNSUITABLE = set(range(262, 275))


@pytest.fixture(scope="module")
def preset():
    c = spun_trefoil_preset()
    cover = build_cover(c)
    group = assemble_group(c, cover)
    return c, cover, group


@pytest.fixture(scope="module")
def suitable(preset):
    return suitable_amalgams(preset[2])


def reference_crossing_relations(group, j, tol=1e-9):
    """Per-relation reference for crossing_relations: frozenset sides and a
    membership test per member of each relation tuple."""
    am = group.amalgams[j]
    gamma = set(am.ball_ids)
    locus = bending_locus(group, j)
    cover = group.cover
    side_b = frozenset(int(i) for i in np.nonzero(cover.host > am.cube_pair[0])[0])

    def commutes_with_rotation(ball):
        return all(
            abs(cover.centers[ball, a] - locus.center[a]) <= tol
            for a in locus.rotation_axes
        )

    out = []
    for i, k, m in group.relations.tolist():
        if (i in side_b) == (k in side_b):
            continue
        safe = (
            i in gamma
            or k in gamma
            or commutes_with_rotation(i)
            or commutes_with_rotation(k)
        )
        out.append((i, k, m, safe))
    return out


def reference_crossing_table(group, tol=1e-9):
    """reference_crossing_relations of every amalgam, in one pass over the
    relations: entry j lists amalgam j's rows (i, k, m, safe).  A relation
    whose two balls share a host cube is on one side of every amalgam (side B
    is the balls hosted past the amalgam's first cube), so only the others
    are tried against each amalgam in turn."""
    cover = group.cover
    loci = [bending_locus(group, j) for j in range(len(group.amalgams))]
    host = cover.host.tolist()

    def commutes_with_rotation(ball, locus):
        return all(
            abs(cover.centers[ball, a] - locus.center[a]) <= tol
            for a in locus.rotation_axes
        )

    out = [[] for _ in group.amalgams]
    for i, k, m in group.relations.tolist():
        if host[i] == host[k]:
            continue
        for j, am in enumerate(group.amalgams):
            p = am.cube_pair[0]
            if (host[i] > p) == (host[k] > p):
                continue
            safe = (
                i in am.ball_ids
                or k in am.ball_ids
                or commutes_with_rotation(i, loci[j])
                or commutes_with_rotation(k, loci[j])
            )
            out[j].append((i, k, m, safe))
    return out


@pytest.fixture(scope="module")
def tube():
    c = orc.straight_tube_complex()
    return assemble_group(c, build_cover(c))


@pytest.fixture(scope="module")
def mid_leg_amalgam(preset, suitable):
    """A straight amalgam far from both junctions and all turns."""
    _c, cover, group = preset
    best = None
    for j in suitable:
        am = group.amalgams[j]
        if not am.straight:
            continue
        center = np.array([(lo + hi) / 2.0 for lo, hi in am.square])
        # deep inside the long vertical leg
        if 30 <= center[3] <= 50 and center[0] > 40 and center[1] > 25:
            best = j
            break
    assert best is not None
    return best


def test_locus_radius_closed_form(preset, mid_leg_amalgam):
    """The circle has radius 1/sqrt(6), lies in the square's plane (the two
    axes the rotation leaves fixed) and meets the four spheres orthogonally:
    their centers lie in that plane and d^2 = rho^2 + r^2."""
    _c, cover, group = preset
    locus = bending_locus(group, mid_leg_amalgam)
    assert locus.radius == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-9)
    am = group.amalgams[mid_leg_amalgam]
    rot = list(locus.rotation_axes)
    plane = sorted(set(range(4)) - set(rot))
    assert len(rot) == len(plane) == 2
    assert all(am.square[a][1] > am.square[a][0] for a in plane)
    balls = list(am.ball_ids)
    d2 = ((cover.centers[balls] - locus.center) ** 2).sum(axis=1)
    assert np.abs(d2 - locus.radius**2 - cover.radii[balls] ** 2).max() <= 1e-9
    assert np.abs(cover.centers[balls][:, rot] - locus.center[rot]).max() <= 1e-9


def test_locus_out_of_range(preset):
    _c, _cover, group = preset
    with pytest.raises(GroupError):
        bending_locus(group, 10_000)


def test_rotation_one_parameter_group(preset, mid_leg_amalgam):
    _c, _cover, group = preset
    locus = bending_locus(group, mid_leg_amalgam)
    assert np.allclose(orc.bending_rotation(locus, 0.0), np.eye(6))
    e1 = orc.bending_rotation(locus, 0.1)
    e2 = orc.bending_rotation(locus, 0.25)
    assert np.abs(e1 @ e2 - orc.bending_rotation(locus, 0.35)).max() <= 1e-14
    assert np.abs(e1 @ orc.bending_rotation(locus, -0.1) - np.eye(6)).max() <= 1e-14
    assert orc.lorentz_defect(e1) <= 1e-14


def test_rotation_fixes_circle_pointwise(preset, mid_leg_amalgam):
    _c, _cover, group = preset
    locus = bending_locus(group, mid_leg_amalgam)
    e = orc.bending_rotation(locus, 0.2)
    u, v = sorted(set(range(4)) - set(locus.rotation_axes))
    for theta in np.linspace(0.0, 2 * math.pi, 9):
        pt = np.zeros(4)  # amalgam frame: circle about the origin
        pt[u] = locus.radius * math.cos(theta)
        pt[v] = locus.radius * math.sin(theta)
        img = orc.apply_to_point(e, pt)
        assert np.abs(img - pt).max() <= 1e-12


def test_commutation_with_amalgam_generators(preset, mid_leg_amalgam):
    _c, cover, group = preset
    locus = bending_locus(group, mid_leg_amalgam)
    ids = list(group.amalgams[mid_leg_amalgam].ball_ids)  # in Gamma_j's unit frame
    shift, scale = cover.centers[ids].mean(axis=0), cover.radii[ids].mean()
    gamma = np.array([orc.reflection(orc.sphere((cover.centers[b] - shift) / scale,
                                                cover.radii[b] / scale)) for b in ids])
    for t in (0.05, 0.2, 0.3):
        assert orc.commutation_residual(orc.bending_rotation(locus, t), gamma) <= 1e-9


def test_amalgam_index_out_of_range(tube):
    """Every function that takes an amalgam index refuses -1 and one past
    the last amalgam, rather than reading an amalgam from the end or raising
    IndexError."""
    word = crossing_word(tube, 0)
    for j in (-1, len(tube.amalgams)):
        for call, args in [(bending_locus, ()), (crossing_relations, ()), (crossing_word, ()),
                           (split_sides, ()), (bend, ((0.0,), word))]:
            with pytest.raises(GroupError,
                               match=f"^amalgam {j} out of range: the group has 7 amalgams$"):
                call(tube, j, *args)


def test_split_sides_partition(preset, mid_leg_amalgam):
    _c, cover, group = preset
    side_b = split_sides(group, mid_leg_amalgam)
    assert side_b.dtype == bool and side_b.shape == (len(cover),)
    assert not side_b[list(group.amalgams[mid_leg_amalgam].ball_ids)].any()
    assert side_b.any() and not side_b.all()


def test_mid_leg_crossing_relations_all_in_gamma(preset, mid_leg_amalgam):
    _c, _cover, group = preset
    rows, shift = crossing_relations(group, mid_leg_amalgam)
    assert rows.shape[1] == 3 and len(rows)  # the tube walls do cross the section
    assert (shift == 0).all()


def test_crossing_relations_match_reference(preset, mid_leg_amalgam, suitable):
    _c, _cover, group = preset
    straight = [j for j in suitable if group.amalgams[j].straight]
    report_default = straight[len(straight) // 2]
    for j in (0, mid_leg_amalgam, 262, 275, 276, report_default):
        rows, shift = crossing_relations(group, j)
        got = [(i, k, m, bool(s == 0)) for (i, k, m), s in zip(rows.tolist(), shift)]
        assert got == reference_crossing_relations(group, j)


def test_crossing_table_matches_the_reference_at_every_amalgam(preset, tube):
    """Every amalgam's crossing rows, and which of them have product shift
    0, on the preset (277) and on the tube (7), equal the per-relation
    reference's rows and its flags of a member that commutes with the
    rotation, and suitable_amalgams lists exactly the amalgams whose
    reference rows all have such a member.  On the tube the one-pass
    reference is itself checked against reference_crossing_relations,
    amalgam by amalgam."""
    assert reference_crossing_table(tube) == [
        reference_crossing_relations(tube, j) for j in range(len(tube.amalgams))
    ]
    for group in (preset[2], tube):
        ref = reference_crossing_table(group)
        for j in range(len(group.amalgams)):
            rows, shift = crossing_relations(group, j)
            got = [(i, k, m, bool(s == 0)) for (i, k, m), s in zip(rows.tolist(), shift)]
            assert got == ref[j], j
        assert suitable_amalgams(group) == [
            j for j, rows in enumerate(ref) if all(safe for *_row, safe in rows)
        ]


def test_each_group_has_its_own_crossing_table(preset, suitable):
    """A group made by dataclasses.replace builds the crossing table of its
    own relations: with none, every amalgam is suitable and crosses no row,
    while the original group, whose table is built before and read after,
    still lists 264."""
    _c, _cover, group = preset
    assert suitable_amalgams(group) == suitable
    bare = dataclasses.replace(group, relations=group.relations[:0])
    assert suitable_amalgams(bare) == list(range(277))
    assert all(len(crossing_relations(bare, j)[0]) == 0 for j in range(277))
    assert suitable_amalgams(group) == suitable and len(suitable) == 264


def test_the_crossing_table_is_built_on_first_use():
    """assemble_group builds no crossing table; the first crossing query
    builds it, on the group."""
    c = orc.straight_tube_complex()
    group = assemble_group(c, build_cover(c))
    assert "crossings" not in vars(group)
    crossing_relations(group, 0)
    assert "crossings" in vars(group)


def test_preset_suitable_amalgams(preset, suitable):
    _c, _cover, group = preset
    assert len(group.amalgams) == 277
    assert len(suitable) == 264
    assert set(range(277)) - set(suitable) == PRESET_UNSUITABLE


def test_bend_every_amalgam(preset, suitable):
    """Exactly the unsuitable amalgams refuse the sweep over (0, 0.2), once
    and before any row, so their error's report is []; the suitable ones
    give both rows, and their crossing relations' product shift over all t
    is within the tolerance."""
    _c, _cover, group = preset
    for j in range(len(group.amalgams)):
        word = crossing_word(group, j)
        shift = crossing_relations(group, j)[1].max(initial=0.0)
        if j in suitable:
            assert [row["t"] for row in bend(group, j, (0.0, 0.2), word)] == [0.0, 0.2]
            assert shift <= 1e-8
        else:
            with pytest.raises(GroupError, match=f"amalgam {j} breaks relation") as raised:
                bend(group, j, (0.0, 0.2), word)
            assert raised.value.report == []
            assert shift > 1e-8


def assert_rows_match(got, want, shift):
    """bend's rows against reference_bend's: the same angles; lambda_max, in
    closed form from the pair's inversive product, within 1e-12 relative of
    the reference's eigvals; the crossing relations' product shift over all
    t at most 1e-15; and the reference's relation residuals within 1e-8 and
    its commutation residuals within 1e-9."""
    assert [sorted(row) for row in got] == [["lambda_max", "t"]] * len(got)
    assert [row["t"] for row in got] == [row["t"] for row in want]
    assert [row["lambda_max"] for row in got] == pytest.approx(
        [row["lambda_max"] for row in want], rel=1e-12, abs=0.0)
    assert shift.max(initial=0.0) <= 1e-15
    assert max(row["max_relation_residual"] for row in want) <= 1e-8
    assert max(row["commutation_residual"] for row in want) <= 1e-9


def relation_refused(error):
    """A bending GroupError's message less its measured number: which
    relation broke, and whether a member commutes with E_t."""
    return re.sub(r": (product shift|residual) \S+", ":", str(error))


def test_bend_sweep_matches_the_per_angle_reference(preset, suitable, tube):
    """The closed-form sweep agrees with the per-angle matrix reference,
    which builds E_t at each t, measures the bent relations' residuals and
    E_t's commutation with Gamma_j, and multiplies the bent word's
    matrices: at the default angles on every suitable preset amalgam and on
    each of the tube's 7 (assert_rows_match).  On the unsuitable amalgam 262
    the sweep refuses before any row, its error's report is [], and it
    names the relation the reference refuses at t = 0.05, where the
    reference still holds at t = 0."""
    ts = RunConfig().bend_ts
    assert len(ts) == 7
    for group, js in [(preset[2], suitable), (tube, range(len(tube.amalgams)))]:
        for j in js:
            word = crossing_word(group, j)
            assert_rows_match(bend(group, j, ts, word),
                              [orc.reference_bend(group, j, t, word) for t in ts],
                              crossing_relations(group, j)[1])
    group = preset[2]
    word = crossing_word(group, 262)
    with pytest.raises(GroupError) as want:
        orc.reference_bend(group, 262, ts[1], word)
    with pytest.raises(GroupError) as got:
        bend(group, 262, ts, word)
    assert relation_refused(got.value) == relation_refused(want.value) == (
        "bending at amalgam 262 breaks relation (R_9289 R_9290)^3 = 1: "
        "(no member commutes with the bending rotation)")
    assert got.value.report == []
    assert orc.reference_bend(group, 262, ts[0], word)["max_relation_residual"] <= 1e-8


def test_bend_lambda_max_matches_50_digits(preset, suitable, tube):
    """At the default angles on every suitable preset amalgam and on each of
    the tube's 7, the closed form's lambda_max is within 1e-14 relative of
    the crossing pair's dilation evaluated at 50 digits."""
    ts = RunConfig().bend_ts
    worst = 0.0
    for group, js in [(preset[2], suitable), (tube, range(len(tube.amalgams)))]:
        for j in js:
            word = crossing_word(group, j)
            for t, row in zip(ts, bend(group, j, ts, word)):
                want = orc.bent_pair_lambda_mp(group, j, t, word)
                worst = max(worst, float(abs(row["lambda_max"] - want) / want))
    assert worst <= 1e-14


def test_a_crossing_pair_that_meets_has_lambda_max_one(preset):
    """Control: at the report's default amalgam 132, t = 2.0 rotates the
    crossing pair's side-B ball into its side-A ball (inversive product
    2 + 3 cos 2 = 0.7516), so the bent word is elliptic and lambda_max is
    exactly 1.0; the eigvals oracle reads 1 to rounding.  At t = 0 the pair
    is disjoint (product 5) and lambda_max is (5 + sqrt 24)^2."""
    _c, cover, group = preset
    word = crossing_word(group, 132)
    rows = bend(group, 132, (0.0, 2.0), word)
    assert rows[0]["lambda_max"] == pytest.approx((5.0 + math.sqrt(24.0)) ** 2, rel=1e-14)
    assert rows[1]["lambda_max"] == 1.0
    locus = bending_locus(group, 132)
    a, b = word
    moved = (cover.centers[b] - locus.center) @ orc.bending_rotation(locus, 2.0)[:4, :4].T
    prod = orc.euclidean_exterior_cos(cover.centers[a] - locus.center, cover.radii[a],
                                      moved, cover.radii[b])
    assert prod == pytest.approx(2.0 + 3.0 * math.cos(2.0), abs=1e-12)
    assert round(prod, 4) == 0.7516
    m = orc.bent_word_matrix(group, 132, 2.0, word)
    assert lz.KINDS[lz.classify_maps(m[None])[0][0]] == "elliptic"
    assert orc.lambda_max(m) == pytest.approx(1.0, abs=1e-9)


def test_junction_amalgam_bendable(preset):
    """At an attach square the whole plate sits on E_t's fixed plane, so
    every crossing relation has a commuting member, no product moves at any
    t and bending goes through."""
    _c, _cover, group = preset
    _rows, shift = crossing_relations(group, 0)
    assert (shift == 0).all()
    [row] = bend(group, 0, (0.2,), crossing_word(group, 0))
    assert row["t"] == 0.2


def test_turn_amalgams_unsuitable(preset, suitable):
    """Near the tube's folded-back turns, spatially adjacent balls land on
    opposite chain sides with no commuting member: bending must refuse."""
    _c, _cover, group = preset
    unsuitable = sorted(set(range(len(group.amalgams))) - set(suitable))
    assert unsuitable
    j = unsuitable[0]
    assert (crossing_relations(group, j)[1] > 1e-9).any()
    with pytest.raises(GroupError, match="relation"):
        bend(group, j, (0.2,), crossing_word(group, j))


def test_bend_fails_on_a_nan_residual():
    """Fail-closed control on the straight tube: one crossing relation's
    side-B ball with a NaN centre gives a NaN product shift, which is no
    shift within the tolerance, so bending refuses the relation.  The ball
    is not in the crossing pair, whose own check would refuse it first."""
    c = orc.straight_tube_complex()
    group = assemble_group(c, build_cover(c))
    rows, shift = crossing_relations(group, 0)
    word = crossing_word(group, 0)
    ball = next(int(b) for b in rows[:, :2].ravel()
                if b not in group.amalgams[0].ball_ids and b not in word)
    assert shift.max() <= 1e-8 and len(bend(group, 0, (0.2,), word)) == 1
    centers = group.cover.centers.copy()
    centers[ball] = np.nan
    broken = dataclasses.replace(group, cover=dataclasses.replace(group.cover, centers=centers))
    with pytest.raises(GroupError,
                       match=f"amalgam 0 breaks relation .*R_{ball}.*: product shift nan"):
        bend(broken, 0, (0.2,), word)


def test_a_nan_amalgam_ball_has_no_bending_locus():
    """Fail-closed control on the straight tube: amalgam 0's first ball at
    x = NaN gives a NaN rho^2 spread, which is no spread within the
    tolerance, so amalgam 0 has no bending locus, bend refuses it and
    suitable_amalgams does not list it.  Each sweep bends the amalgam's
    crossing pair on the intact cover.  Amalgam 1's pair holds the NaN
    ball, so bend refuses that ball there with the CoverError that names
    it; the tube's other amalgams still bend.  The failure stays with
    amalgam 0: after those sweeps have filled the cached crossing table,
    bend and suitable_amalgams still refuse amalgam 0 for its locus."""
    c = orc.straight_tube_complex()
    group = assemble_group(c, build_cover(c))
    assert 0 in suitable_amalgams(group)
    pairs = [crossing_word(group, j) for j in range(7)]
    ball = group.amalgams[0].ball_ids[0]
    centers = group.cover.centers.copy()
    centers[ball, 0] = np.nan
    broken = dataclasses.replace(group, cover=dataclasses.replace(group.cover, centers=centers))
    for call, args in [(bending_locus, (0,)), (bend, (0, (0.2,), pairs[0])),
                       (suitable_amalgams, ())]:
        with pytest.raises(GroupError, match="amalgam 0 has no common orthogonal circle"):
            call(broken, *args)
    assert len(broken.amalgams) == 7
    assert [j for j in range(7) if ball in pairs[j]] == [1]
    with pytest.raises(CoverError, match=rf"^ball {ball} \(centre \(nan, "):
        bend(broken, 1, (0.2,), pairs[1])
    for j in range(2, 7):
        [row] = bend(broken, j, (0.2,), pairs[j])
        assert crossing_relations(broken, j)[1].max() <= 1e-8 and row["lambda_max"] > 1.0
    assert "crossings" in vars(broken)
    for call, args in [(bend, (0, (0.2,), pairs[0])), (suitable_amalgams, ())]:
        with pytest.raises(GroupError, match="amalgam 0 has no common orthogonal circle"):
            call(broken, *args)


@pytest.mark.parametrize("member", [0, 1])
@pytest.mark.parametrize("fault", ["inf-centre", "zero-radius", "nan-radius"])
def test_bend_refuses_a_pair_ball_that_is_not_finite(fault, member):
    """Negative control on the straight tube: a crossing pair member (side
    A or side B) with an infinite centre coordinate, a zero radius or a NaN
    radius has no inversive product, so bend raises the CoverError that
    names that ball, before any row."""
    c = orc.straight_tube_complex()
    group = assemble_group(c, build_cover(c))
    pair = crossing_word(group, 3)
    ball = pair[member]
    centers, radii = group.cover.centers.copy(), group.cover.radii.copy()
    if fault == "inf-centre":
        centers[ball, 2] = np.inf
    else:
        radii[ball] = 0.0 if fault == "zero-radius" else np.nan
    broken = dataclasses.replace(group, cover=dataclasses.replace(
        group.cover, centers=centers, radii=radii))
    with pytest.raises(CoverError, match=rf"^ball {ball} \(centre .* needs a finite centre"):
        bend(broken, 3, (0.0, 0.2), pair)


def test_a_gamma_ball_off_the_fixed_plane_has_no_bending_locus(tube):
    """Fail-closed control for E_t's commutation with Gamma_j, which holds
    exactly when the Gamma_j centres lie on E_t's fixed plane: on the
    straight tube, amalgam 0's first ball moved 1e-6 tube units along a
    rotation axis no longer commutes with E_t at t = 0.2 (the oracle's
    residual is above 1e-8), yet its rho^2 moves by only 1e-12.  Only the on-plane test
    sees the fault, and bending_locus, bend and suitable_amalgams each
    refuse amalgam 0 for its orthogonality residual."""
    locus = bending_locus(tube, 0)
    word = crossing_word(tube, 0)
    ball = tube.amalgams[0].ball_ids[0]
    centers = tube.cover.centers.copy()
    centers[ball, locus.rotation_axes[0]] += 1e-6 * tube.cover.unit
    broken = dataclasses.replace(tube, cover=dataclasses.replace(tube.cover, centers=centers))
    r = orc.reflection(orc.sphere(centers[ball] - locus.center, tube.cover.radii[ball]))
    assert orc.commutation_residual(orc.bending_rotation(locus, 0.2), r[None]) > 1e-8
    for call, args in [(bending_locus, (0,)), (bend, (0, (0.2,), word)),
                       (suitable_amalgams, ())]:
        with pytest.raises(GroupError, match="^amalgam 0 orthogonality residual 1e-06$"):
            call(broken, *args)


def rotated_products(group, locus, pairs, rotations):
    """(len(rotations), n): the inversive product of each pair's first ball
    with its second turned by each rotation (4, 4) of the amalgam frame,
    the locus centre at the origin."""
    cover = group.cover
    ca, cb = (cover.centers[pairs[:, k]] - locus.center for k in (0, 1))
    ra, rb = cover.radii[pairs[:, 0]], cover.radii[pairs[:, 1]]
    d2 = ((ca - cb @ rotations.transpose(0, 2, 1)) ** 2).sum(axis=-1)
    return (d2 - ra * ra - rb * rb) / (2.0 * ra * rb)


def test_bending_terms_match_rotated_centres(preset, tube):
    """P(t) = alpha + beta cos t + gamma sin t from bending_terms is the
    product of the side-A ball with the side-B centre turned by
    oracles.bending_rotation, at 64 angles in [0, 2 pi): for every crossing
    row of the preset's 277 amalgams and the tube's 7, and for the crossing
    pair of the tube's amalgams and of preset amalgams 0, 90, 132, 262 and
    276.  Each row's shift equals the largest |P_t - P_0| over 8192 angles
    in [0, 2 pi), turned the same way, to within the grid's own miss of the
    supremum, h (2 pi / 8192)^2 / 8 <= 7.4e-8 h with h = hypot(beta,
    gamma) <= shift: so the shift is that supremum.  182 of the rows, all
    on the preset, have a shift that is not 0."""
    ts = np.arange(64) * (2.0 * math.pi / 64)
    grid = np.arange(8192) * (2.0 * math.pi / 8192)
    rotations = {}
    moving = 0
    for group, pair_at in [(preset[2], (0, 90, 132, 262, 276)), (tube, range(7))]:
        for j in range(len(group.amalgams)):
            locus = bending_locus(group, j)
            axes = locus.rotation_axes
            if axes not in rotations:
                rotations[axes] = [np.array([orc.bending_rotation(locus, t)[:4, :4] for t in at])
                                   for at in (ts, grid)]
            rows, shift = crossing_relations(group, j)
            side_b = split_sides(group, j)
            pairs = np.where(side_b[rows[:, :1]], rows[:, 1::-1], rows[:, :2])  # side A first
            assert (~side_b[pairs[:, 0]] & side_b[pairs[:, 1]]).all()
            if j in pair_at:
                pairs = np.vstack([pairs, crossing_word(group, j)])
            alpha, beta, gamma = bending_terms(group.cover, locus.center, np.array(axes),
                                               pairs[:, 0], pairs[:, 1])
            got = alpha + np.outer(np.cos(ts), beta) + np.outer(np.sin(ts), gamma)
            want = rotated_products(group, locus, pairs, rotations[axes][0])
            assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all(), j
            moved = rotated_products(group, locus, pairs[:len(rows)], rotations[axes][1])
            sup = np.abs(moved - moved[0]).max(axis=0, initial=0.0)
            assert (np.abs(sup - shift) <= 1e-7 * shift + 1e-13).all(), j
            moving += int((shift > 0).sum())
    assert moving == 182


def test_a_plate_ball_off_the_fixed_plane_refuses_the_amalgam(preset, suitable):
    """Negative control on the preset: vertex ball 7702 of the Q1 plate is
    centred on amalgam 276's fixed plane, outside Gamma_276 and its
    crossing pair, and makes the crossing relation (R_7701 R_7702)^3 hold
    at every t.  Moved 1e-6 tube units along a rotation axis, it leaves
    that relation's product moving by 6.0e-06 over t, so bend refuses
    amalgam 276 before any row and suitable_amalgams drops it, and only it."""
    _c, cover, group = preset
    locus = bending_locus(group, 276)
    word = crossing_word(group, 276)
    ball, axes = 7702, list(locus.rotation_axes)
    assert cover.roles[ball] == ROLE_VERTEX and split_sides(group, 276)[ball]
    assert ball not in group.amalgams[276].ball_ids and ball not in word
    assert (cover.centers[ball, axes] == locus.center[axes]).all()
    assert len(bend(group, 276, (0.0, 0.05), word)) == 2
    centers = cover.centers.copy()
    centers[ball, axes[0]] += 1e-6 * cover.unit
    broken = dataclasses.replace(group, cover=dataclasses.replace(cover, centers=centers))
    with pytest.raises(GroupError) as raised:
        bend(broken, 276, (0.0, 0.05), word)
    assert str(raised.value) == (
        "bending at amalgam 276 breaks relation (R_7701 R_7702)^3 = 1: product shift 6.000e-06 "
        "(no member commutes with the bending rotation)")
    assert raised.value.report == []
    assert suitable_amalgams(broken) == [j for j in suitable if j != 276]


def test_bend_zero_is_base(preset, mid_leg_amalgam):
    """At t = 0 E_t is the identity, so the bent crossing word is the
    product of the base reflections (its side-B ball unconjugated) and the
    sweep's lambda_max is that product's."""
    _c, cover, group = preset
    locus = bending_locus(group, mid_leg_amalgam)
    assert np.allclose(orc.bending_rotation(locus, 0.0), np.eye(6))
    word = crossing_word(group, mid_leg_amalgam)
    assert split_sides(group, mid_leg_amalgam)[word[1]]
    base = [orc.reflection(orc.sphere(cover.centers[b] - locus.center, cover.radii[b]))
            for b in word]
    m0 = orc.bent_word_matrix(group, mid_leg_amalgam, 0.0, word)
    assert np.allclose(m0, base[0] @ base[1])
    [row] = bend(group, mid_leg_amalgam, (0.0,), word)
    assert row["lambda_max"] == pytest.approx(orc.lambda_max(m0), rel=1e-12)


def test_bend_relation_sweep(preset, mid_leg_amalgam):
    _c, _cover, group = preset
    ts = np.arange(0.0, 0.3001, 0.05)
    word = crossing_word(group, mid_leg_amalgam)
    rows = bend(group, mid_leg_amalgam, ts, word)
    assert [row["t"] for row in rows] == ts.tolist()
    assert crossing_relations(group, mid_leg_amalgam)[1].max() <= 1e-8
    for t in ts:
        want = orc.reference_bend(group, mid_leg_amalgam, t, word)
        assert want["max_relation_residual"] <= 1e-8 and want["commutation_residual"] <= 1e-9


def test_crossing_word_at_every_suitable_amalgam(preset, suitable):
    """At each of the 264 suitable amalgams the word is two disjoint vertex
    balls outside Gamma_j, the first on side A and the second on side B."""
    _c, cover, group = preset
    assert len(suitable) == 264
    for j in suitable:
        a, b = crossing_word(group, j)
        side_b = split_sides(group, j)
        assert not side_b[a] and side_b[b], j
        assert cover.roles[a] == cover.roles[b] == ROLE_VERTEX
        assert not {a, b} & set(group.amalgams[j].ball_ids)
        assert orc.euclidean_exterior_cos(cover.centers[a], cover.radii[a],
                                          cover.centers[b], cover.radii[b]) > 1.0, j


def test_crossing_word_nontrivial_deformation(preset, mid_leg_amalgam):
    _c, _cover, group = preset
    word = crossing_word(group, mid_leg_amalgam)
    m0 = orc.bent_word_matrix(group, mid_leg_amalgam, 0.0, word)
    m2 = orc.bent_word_matrix(group, mid_leg_amalgam, 0.2, word)
    kind0 = lz.classify_maps(m0[None])[0]
    assert lz.KINDS[kind0[0]] == "loxodromic"
    l0 = orc.lambda_max(m0)
    l2 = orc.lambda_max(m2)
    assert abs(l2 - l0) > 1e-4
    rows = bend(group, mid_leg_amalgam, (0.0, 0.2), word)
    assert [row["lambda_max"] for row in rows] == pytest.approx([l0, l2], rel=1e-12)


def test_lambda_max_conjugation_invariant(preset, mid_leg_amalgam):
    """lambda_max(C M C^-1) = lambda_max(M) for Moebius maps C.  Float64
    eigenvalues of the product carry an error that grows with cond(C): about
    1e-6 at cond 1e6 and 1e-2 at cond 5e7, for this word and for the longer
    one of earlier versions alike.  So C runs over the random maps of seeds
    0..39 with cond(C) < 1e5, and the tolerance is 1e-6."""
    _c, _cover, group = preset
    word = crossing_word(group, mid_leg_amalgam)
    m = orc.bent_word_matrix(group, mid_leg_amalgam, 0.2, word)
    conjugators = [orc.random_moebius(np.random.default_rng(seed)) for seed in range(40)]
    conjugators = [c for c in conjugators if np.linalg.cond(c) < 1e5]
    assert len(conjugators) >= 5
    for conj in conjugators:
        m_conj = conj @ m @ orc.inverse(conj)
        assert orc.lambda_max(m_conj) == pytest.approx(orc.lambda_max(m), rel=1e-6)
