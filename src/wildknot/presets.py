"""Bundled cube-complex presets.

The main preset realizes the fusion of two e-cubes (e = 27) by a tube of
unit cubes routed through the four hyperplanes w in {-e, 0, 2e, 3e} with the
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


def spun_trefoil_preset(edge=27):
    """The bundled complex at big-cube edge `edge`: Q0 at w=0, Q1 at w=2e.

    Every edge keeps the levels, turns, over/under pattern and the tube's
    fixed margins; nothing is checked here, so validate_complex rejects an
    edge too small for the margins (5).  A leg is (first cube's corner,
    axis, cubes, omitted axis, step)."""
    e, c = edge, (edge - 1) // 2  # c: the attach squares' x and y corner
    x1 = e + c  # Q1's x offset
    legs = (
        ((c, c, 0, -1), 3, e, 2, -1),  # drop from the centre of Q0's z=0 face to w=-e
        ((c, c, 0, -e), 2, 2, 3, 1),  # fold into w=-e and step +z away from it
        ((c + 1, c, 1, -e), 0, e + 8 - c, 3, 1),  # run +x under Q0 at z in [1,2]
        ((e + 8, c, 1, -e), 3, e, 2, 1),  # climb back to w=0 outside Q0's x-range
        ((e + 8, c, 1, 0), 0, x1 - e - 1, 3, 1),  # into w=0, run +x
        ((x1 + 6, c + 1, 1, 0), 1, e + 3 - c, 3, 1),  # turn +y, clear of Q1's y-range
        ((x1 + 6, e + 3, 1, 0), 3, 3 * e, 2, 1),  # climb all the way to w=3e
        ((x1 + 6, e + 3, 1, 3 * e), 1, e + 4 - c, 3, -1),  # over the top: -y back to y=c
        ((x1 + 7, c, 1, 3 * e), 0, e - 4, 3, 1),  # +x past Q1's far side
        ((x1 + e + 2, c, 1, 3 * e - 1), 3, e, 2, -1),  # descend to w=2e outside Q1
        ((x1 + e + 2, c, 0, 2 * e), 2, 3, 3, -1),  # drop below Q1 in z
        ((x1 + e + 1, c, -2, 2 * e), 0, e + 2 - c, 3, -1),  # run -x under Q1 at z in [-2,-1]
        ((x1 + c, c, -1, 2 * e), 0, 1, 3, 1),  # rise to the centre of Q1's z=0 face
    )
    tube = [Cube3(corner[:axis] + (corner[axis] + k * step,) + corner[axis + 1:], 1, omit)
            for corner, axis, n, omit, step in legs for k in range(n)]
    big = (Cube3((0, 0, 0, 0), e, 3), Cube3((x1, 0, 0, 2 * e), e, 3))
    return CubeComplex(big, tuple(tube))


def preset_complex(name):
    if name in ("spun-trefoil", "spun_trefoil"):
        return spun_trefoil_preset()
    raise ComplexError([f"unknown complex preset {name!r}"])
