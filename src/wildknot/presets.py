"""Bundled cube-complex presets.

The main preset realizes the fusion of two 27-cubes by a tube of unit cubes
routed through the four hyperplanes w in {-27, 0, 54, 81} with the
over/under crossing pattern of a trefoil arc: the tube leaves the first cube
downward, passes under it, comes back up, travels over the second cube in the
top hyperplane and finally approaches it from below.  The identity of this
configuration as the spun trefoil is a modeling assertion; all geometric
invariants (face sharing, disjointness, manifold boundary sphere) are
validated programmatically.
"""

from __future__ import annotations

# validate_complex is unused here; perfbench/selftest.py checks this binding is traced
from .complexes import ComplexError, Cube3, CubeComplex, validate_complex  # noqa: F401

# axes: 0 = x, 1 = y, 2 = z, 3 = w


def _leg(start, axis, n, omit, step=1):
    """n consecutive unit cubes along `axis` (direction `step`), omitting `omit`.

    `start` is the corner of the first cube.  Returns (cubes, corner after
    the leg) where the returned corner is the first cube corner of a
    continuation in the same direction.
    """
    cubes = []
    corner = list(start)
    for _ in range(n):
        cubes.append(Cube3(tuple(corner), 1, omit))
        corner[axis] += step
    return cubes, tuple(corner)


def spun_trefoil_preset():
    """The bundled complex: Q0 at w=0, Q1 at w=54, big edge 27, unit tube."""
    big = (
        Cube3((0, 0, 0, 0), 27, 3),  # Q0 = [0,27]^3 x {0}
        Cube3((40, 0, 0, 54), 27, 3),  # Q1 = [40,67] x [0,27]^2 x {54}
    )
    tube = []

    # Leg A: drop from the center of Q0's z=0 face down to w=-27.
    # Attach square [13,14]^2 x {0} x {0}; cubes span (x,y,w) at z=0.
    leg, _ = _leg((13, 13, 0, -1), 3, 27, omit=2, step=-1)
    tube += leg

    # Fold into the hyperplane w=-27 and step away from the fold in +z.
    tube.append(Cube3((13, 13, 0, -27), 1, 3))
    tube.append(Cube3((13, 13, 1, -27), 1, 3))

    # Run under Q0 in +x at z in [1,2], w=-27.
    leg, _ = _leg((14, 13, 1, -27), 0, 22, omit=3)
    tube += leg  # reaches x in [35,36]

    # Climb back to w=0 (outside Q0's x-range), spanning (x,y,w) at z=1.
    leg, _ = _leg((35, 13, 1, -27), 3, 27, omit=2)
    tube += leg

    # Into the hyperplane w=0, step +z, then run +x and turn +y.
    tube.append(Cube3((35, 13, 1, 0), 1, 3))
    leg, _ = _leg((36, 13, 1, 0), 0, 11, omit=3)
    tube += leg  # x to [46,47]
    leg, _ = _leg((46, 14, 1, 0), 1, 17, omit=3)
    tube += leg  # y to [30,31], clear of Q1's y-range

    # Climb all the way to w=81 at (x,y) = (46..47, 30..31).
    leg, _ = _leg((46, 30, 1, 0), 3, 81, omit=2)
    tube += leg

    # Over the top: into hyperplane w=81, run -y back to y=[13,14], then +x
    # past Q1's far side.
    tube.append(Cube3((46, 30, 1, 81), 1, 3))
    leg, _ = _leg((46, 29, 1, 81), 1, 17, omit=3, step=-1)
    tube += leg  # y to [13,14]
    leg, _ = _leg((47, 13, 1, 81), 0, 23, omit=3)
    tube += leg  # x to [69,70], clear of Q1's x-range

    # Descend to w=54 outside Q1, then drop below it in z.
    leg, _ = _leg((69, 13, 1, 80), 3, 27, omit=2, step=-1)
    tube += leg  # w down to [54,55]
    tube.append(Cube3((69, 13, 0, 54), 1, 3))
    tube.append(Cube3((69, 13, -1, 54), 1, 3))
    tube.append(Cube3((69, 13, -2, 54), 1, 3))

    # Run -x underneath Q1 at z in [-2,-1], w=54.
    leg, _ = _leg((68, 13, -2, 54), 0, 16, omit=3, step=-1)
    tube += leg  # x to [53,54]

    # Rise one cube to the attach square at the center of Q1's z=0 face.
    tube.append(Cube3((53, 13, -1, 54), 1, 3))

    return CubeComplex(big, tuple(tube))


def preset_complex(name):
    if name in ("spun-trefoil", "spun_trefoil"):
        return spun_trefoil_preset()
    raise ComplexError([f"unknown complex preset {name!r}"])
