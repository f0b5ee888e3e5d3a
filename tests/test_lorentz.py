import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildknot import lorentz as lz
from wildknot.cover import pair_orders

import oracles as orc


finite_coord = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
point4 = st.tuples(finite_coord, finite_coord, finite_coord, finite_coord)
radius = st.floats(0.05, 30, allow_nan=False)


def test_lift_is_lightlike_and_projects_back():
    p = np.array([1.0, -2.0, 0.5, 3.0])
    w = orc.lift(p)
    assert abs(orc.q(w, w)) < 1e-12
    assert np.allclose(lz._lightlike_fixed_points(w[None]), p)


def test_lift_infinity():
    w = orc.lift_infinity()
    assert abs(orc.q(w, w)) < 1e-15
    assert np.isnan(lz._lightlike_fixed_points(w[None])).all()


@given(point4, radius)
def test_sphere_polar_is_unit_and_roundtrips(c, r):
    v = orc.sphere(c, r)
    bound = 1e-12 * max(1.0, float(v @ v))
    assert abs(orc.q(v, v) - 1.0) < bound
    w = lz.spheres(np.array(c)[None], [r])[0]  # the vectorised constructor
    assert np.abs(w - v).max() < bound
    assert abs(orc.q(w, w) - 1.0) < bound
    c2, r2 = lz.centers_radii(v[None])
    assert np.allclose(c2[0], c, atol=1e-6 * max(1, np.max(np.abs(c))))
    assert r2[0] == pytest.approx(r, rel=1e-9)


def test_interior_sign_convention():
    v = orc.sphere([0, 0, 0, 0], 1.0)
    assert orc.point_side(v, [0, 0, 0, 0]) < 0  # center is inside
    assert orc.point_side(v, [2, 0, 0, 0]) > 0
    assert abs(orc.point_side(v, [1, 0, 0, 0])) < 1e-12
    assert orc.point_side(v, None) > 0  # infinity is outside every ball


def test_hyperplane_polar_and_sides():
    v = orc.hyperplane([0, 0, 0, 2.0], 4.0)  # plane w = 2, interior w < 2
    assert abs(orc.q(v, v) - 1.0) < 1e-12
    assert v[4] == v[5]  # no finite radius: a sphere through infinity
    assert orc.point_side(v, [0, 0, 0, 0]) < 0
    assert orc.point_side(v, [0, 0, 0, 5]) > 0
    assert abs(orc.point_side(v, [7, -3, 1, 2])) < 1e-12


def test_reflection_in_unit_sphere_is_inversion():
    # Inversion in the unit sphere sends p to p/|p|^2.
    m = orc.reflection(orc.sphere([0, 0, 0, 0], 1.0))
    p = np.array([2.0, 0.0, 0.0, 0.0])
    assert np.allclose(orc.apply_to_point(m, p), [0.5, 0, 0, 0])
    assert orc.apply_to_point(m, [0, 0, 0, 0]) is None  # center -> infinity
    assert np.allclose(orc.apply_to_point(m, None), [0, 0, 0, 0])


def test_reflection_in_hyperplane_is_euclidean_mirror():
    m = orc.reflection(orc.hyperplane([1, 0, 0, 0], 3.0))  # mirror x = 3
    assert np.allclose(orc.apply_to_point(m, [1.0, 2.0, -1.0, 0.5]), [5.0, 2.0, -1.0, 0.5])


@given(point4, radius)
@settings(max_examples=50)
def test_reflection_is_involutive_lorentz(c, r):
    m = orc.reflection(orc.sphere(c, r))
    scale = max(1.0, float(np.max(np.abs(m))) ** 2)
    assert orc.lorentz_defect(m) < 1e-12 * scale
    assert np.allclose(m @ m, np.eye(6), atol=1e-12 * scale)
    assert np.allclose(orc.inverse(m), m, atol=1e-12 * scale)


def test_inverse_matches_matrix_inverse():
    rng = np.random.default_rng(7)
    m = orc.random_moebius(rng)
    assert np.allclose(orc.inverse(m), np.linalg.inv(m), atol=1e-8)


# The order cover.pair_orders gives a pair of the oracle's kind.
ORACLE_ORDER = {"disjoint": 0, "tangent": -1, "nested": -1, "equal": -1}


def oracle_order(c1, r1, c2, r2):
    cfg = orc.pair_configuration(orc.sphere(c1, r1), orc.sphere(c2, r2))
    if cfg.kind == "intersecting":
        return -1 if cfg.order is None else cfg.order
    return ORACLE_ORDER[cfg.kind]


def test_exterior_cos_matches_euclidean_oracle():
    """cover.pair_orders against both scalar oracles on random pairs: its
    product is the Euclidean exterior cosine and -Q of the polars, and its
    order is the one of the Q-product oracle's kind.  Half the pairs are
    random (disjoint, nested or at an illegal angle), half are placed at a
    legal cosine."""
    rng = np.random.default_rng(3)
    centers = rng.uniform(-3, 3, size=(400, 4))
    radii = rng.uniform(0.2, 2.0, size=400)
    legal = [0.0, 0.5, -0.5]
    for n in range(200, 400, 2):
        r1, r2 = radii[n], radii[n + 1]
        d = math.sqrt(r1 * r1 + r2 * r2 + 2.0 * r1 * r2 * legal[n % 3])
        step = rng.normal(size=4)
        centers[n + 1] = centers[n] + d * step / np.linalg.norm(step)
    i, j = np.arange(0, 400, 2), np.arange(1, 400, 2)
    prod, order = pair_orders(centers, radii, i, j)
    for n, (a, b) in enumerate(zip(i, j)):
        euclid = orc.euclidean_exterior_cos(centers[a], radii[a], centers[b], radii[b])
        assert prod[n] == pytest.approx(euclid, abs=1e-12)
        cfg = orc.pair_configuration(orc.sphere(centers[a], radii[a]),
                                     orc.sphere(centers[b], radii[b]))
        assert prod[n] == pytest.approx(cfg.exterior_cos, abs=1e-8)
        assert order[n] == oracle_order(centers[a], radii[a], centers[b], radii[b])
    assert sorted(set(order[100:].tolist())) == [2, 3]
    assert {0, -1} <= set(order[:100].tolist())


def test_pair_configuration_kinds():
    """Hand-built pairs of every kind against the unit ball at the origin:
    cover.pair_orders gives the oracle's order and the oracle the named kind."""
    cases = [  # (center, radius, oracle kind, order)
        ([5, 0, 0, 0], 1.0, "disjoint", 0),
        ([0, 0, 0, 0], 0.3, "nested", -1),
        ([2, 0, 0, 0], 1.0, "tangent", -1),
        ([0, 0, 0, 0], 1.0, "equal", -1),
        ([1, 0, 0, 0], 1.0, "intersecting", 3),  # exterior angle pi/3
        ([0, 1.2, 0, 0], math.sqrt(0.44), "intersecting", 2),
        ([1.5, 0, 0, 0], 1.0, "intersecting", -1),  # exterior cosine 1/8
    ]
    centers = np.array([[0.0, 0, 0, 0]] + [c for c, _r, _k, _m in cases])
    radii = np.array([1.0] + [r for _c, r, _k, _m in cases])
    _prod, order = pair_orders(centers, radii, np.zeros(len(cases), int),
                               np.arange(1, len(cases) + 1))
    assert order.tolist() == [m for _c, _r, _k, m in cases]
    unit = orc.sphere([0, 0, 0, 0], 1.0)
    for c, r, kind, m in cases:
        assert orc.pair_configuration(unit, orc.sphere(c, r)).kind == kind
        assert oracle_order([0, 0, 0, 0], 1.0, c, r) == m


def test_order_three_pair_really_has_order_three():
    # Both cosine signs +1/2 and -1/2 must give (R1 R2)^3 = I.
    unit = orc.sphere([0, 0, 0, 0], 1.0)
    for d2 in (1.0, 3.0):  # cos_ext = (d2 - 2)/2 -> -1/2 and +1/2
        centers = np.array([[0.0, 0, 0, 0], [math.sqrt(d2), 0, 0, 0]])
        assert pair_orders(centers, np.ones(2), [0], [1])[1].tolist() == [3]
        other = orc.sphere(centers[1], 1.0)
        prod = orc.reflection(unit) @ orc.reflection(other)
        assert np.allclose(np.linalg.matrix_power(prod, 3), np.eye(6), atol=1e-9)


def test_orthogonal_pair_commutes():
    u = orc.sphere([0, 0, 0, 0], 1.0)
    v = orc.sphere([0, 1.2, 0, 0], math.sqrt(0.44))
    ru, rv = orc.reflection(u), orc.reflection(v)
    assert np.allclose(ru @ rv, rv @ ru, atol=1e-9)


def test_apply_to_polar_transports_spheres():
    rng = np.random.default_rng(11)
    m = orc.random_moebius(rng)
    v = orc.sphere([1.0, 0.0, -1.0, 2.0], 0.7)
    img = m @ v  # a Moebius matrix acts on sphere polars linearly
    # Image polar must carry the image of a point on the sphere onto the image sphere.
    p = np.array([1.0 + 0.7, 0.0, -1.0, 2.0])
    assert abs(orc.point_side(img, orc.apply_to_point(m, p))) < 1e-6
    # Interior maps to interior or exterior consistently (m preserves sides up to sign of det on v).
    side = np.sign(orc.point_side(img, orc.apply_to_point(m, [1.0, 0.0, -1.0, 2.0])))
    assert side != 0


def test_classify_identity_and_elliptic():
    assert lz.KINDS[lz.classify_maps(np.eye(6)[None])[0][0]] == "identity"
    u = orc.sphere([0, 0, 0, 0], 1.0)
    v = orc.sphere([1, 0, 0, 0], 1.0)
    kind = lz.classify_maps((orc.reflection(u) @ orc.reflection(v))[None])[0]
    assert lz.KINDS[kind[0]] == "elliptic"


def test_classify_loxodromic_dilation():
    # Reflections in concentric spheres of radii 1 and 2 give x -> 4x, a
    # loxodromic map with dilation 4 that attracts to infinity and repels
    # from 0; its inverse x -> x/4 attracts to 0.
    m = orc.reflection(orc.sphere([0, 0, 0, 0], 2.0)) @ orc.reflection(orc.sphere([0, 0, 0, 0], 1.0))
    kind, att = lz.classify_maps(np.stack([m, orc.inverse(m)]))
    assert [lz.KINDS[k] for k in kind] == ["loxodromic", "loxodromic"]
    assert np.isnan(att[0]).all()
    assert np.abs(att[1]).max() <= 1e-9
    assert orc.lambda_max(m) == pytest.approx(4.0, rel=1e-9)


def test_classify_parabolic():
    # Reflections in two tangent spheres compose to a parabolic map.
    m = orc.reflection(orc.sphere([0, 0, 0, 0], 1.0)) @ orc.reflection(orc.sphere([2, 0, 0, 0], 1.0))
    assert lz.KINDS[lz.classify_maps(m[None])[0][0]] == "parabolic"


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_moebius_is_lorentz(seed):
    m = orc.random_moebius(np.random.default_rng(seed))
    assert orc.lorentz_defect(m) < 1e-10 * max(1.0, float(np.max(np.abs(m))) ** 2)


def classifier_stack():
    """The classifier cases above, random Moebius words and the inverses of
    all of them, as one (n, 6, 6) stack."""
    u, v = orc.sphere([0, 0, 0, 0], 1.0), orc.sphere([1, 0, 0, 0], 1.0)
    cases = [
        np.eye(6),
        orc.reflection(u) @ orc.reflection(v),
        orc.reflection(u) @ orc.reflection(orc.sphere([2, 0, 0, 0], 1.0)),
        orc.reflection(orc.sphere([0, 0, 0, 0], 2.0)) @ orc.reflection(u),
    ]
    rng = np.random.default_rng(5)
    cases += [orc.random_moebius(rng, n_reflections=r) for r in (1, 2, 3, 4, 6) for _ in range(12)]
    cases = np.array(cases)
    return np.concatenate([cases, orc.inverse(cases)])


def test_classifier_stack_matches_the_scalar_oracle():
    """Every row's kind is the scalar oracle's, and its attracting point is
    bit-equal to the oracle's, a NaN row standing for its None at infinity
    or off the loxodromic rows.  A map's repelling point is the attracting
    point of its inverse."""
    cases = classifier_stack()
    kind, att = lz.classify_maps(cases)
    assert [lz.KINDS[k] for k in kind[:4]] == ["identity", "elliptic", "parabolic", "loxodromic"]
    assert {"elliptic", "loxodromic"} <= {lz.KINDS[k] for k in kind[4:]}
    for i, m in enumerate(cases):
        want, ref = orc.classify_map(m)
        assert lz.KINDS[kind[i]] == want, i
        if ref is None:
            assert np.isnan(att[i]).all(), i
        else:
            assert np.array_equal(att[i], ref), i
    # x -> 4x attracts to infinity, its inverse to 0
    n = len(cases) // 2
    assert np.isnan(att[3]).all() and np.abs(att[n + 3]).max() <= 1e-9


def test_classifier_stack_is_as_accurate_as_the_eig_path():
    """The attracting points of the loxodromic rows are within 2 eps of the
    long-double reference and no further from it than LAPACK's
    eigenvector with its float64 polish."""
    cases = classifier_stack()
    kind, att = lz.classify_maps(cases)
    lox = (kind == lz.LOXODROMIC) & ~np.isnan(att[:, 0])
    assert lox.sum() > 40
    new, eig = orc.worst_fixed_point_errors(cases[lox], att[lox])
    assert new <= min(eig, 2 * np.finfo(float).eps), (new, eig)


def test_mildly_loxodromic_maps_are_polished_to_rounding_level():
    """Two unit spheres a gap d apart compose to a map with lam near 1
    (1.13 at d = 1e-3, 1.02 at d = 2e-5), which the power polish closes on
    at rate 1/lam, more than a thousand steps at the smallest gap: the
    points of the maps and their inverses are no further from the
    long-double reference than LAPACK's eigenvector."""
    ms = []
    for d in (1e-3, 1e-4, 2e-5):
        c = np.array([1 + d / 2, 0, 0, 0])
        ms.append(orc.reflection(orc.sphere(-c, 1.0)) @ orc.reflection(orc.sphere(c, 1.0)))
    ms = np.concatenate([ms, orc.inverse(np.array(ms))])
    kind, att = lz.classify_maps(ms)
    assert (kind == lz.LOXODROMIC).all()
    assert orc.lambda_max(ms[2]) < 1.02
    new, eig = orc.worst_fixed_point_errors(ms, att, steps=4096)
    assert new <= eig, (new, eig)


def test_classifier_runs_no_eigensolver(monkeypatch):
    """The squarings seed the polish: a stack with loxodromic rows
    classifies with numpy.linalg.eig unavailable, giving the same points."""
    cases = classifier_stack()
    kind, att = lz.classify_maps(cases)

    def refuse(*_args, **_kwargs):
        raise AssertionError("numpy.linalg.eig called")

    monkeypatch.setattr(np.linalg, "eig", refuse)
    again = lz.classify_maps(cases)
    assert np.array_equal(again[0], kind) and np.array_equal(again[1], att, equal_nan=True)
    assert (kind == lz.LOXODROMIC).sum() > 40
