"""Alexander-polynomial machinery: Fox calculus on finite presentations.

Words are strings over [a-z] with capital letters denoting formal inverses
(``"xyxYXY"`` is x y x y^-1 x^-1 y^-1).  Internally a word is a tuple of
signed 1-based generator indices, always freely reduced.

The Alexander polynomial of a deficiency-1 presentation with infinite-cyclic
abelianization (all generators mapping to the same meridian t) is the gcd in
Z[t] of the maximal minors of the Fox-derivative matrix with one column
deleted.  Abelianized, a Fox derivative reads only the exponent sums of
the relator's prefixes, so each row of that matrix is one pass over its
relator (Fox, "Free differential calculus I", Ann. Math. 1953).  The
verdict logic on top treats the limit knot of an infinite connected-sum
tower: the stage-i knot is the connected sum of 2^i copies of the base, so
its polynomial is the 2^i-th power of the base polynomial, and the limit is
certified nontrivial as soon as the base polynomial is not a unit +-t^k.

Polynomials are tuples of Python ints, the coefficients of t^0, t^1, ...
(the empty tuple is 0), normalised to lowest exponent 0 and a positive
leading coefficient, so Laurent polynomials that differ by a unit +-t^k
compare equal.  All arithmetic is exact over the integers and needs no
computer algebra: determinants by fraction-free elimination, each
polynomial minor rebuilt from its integer values at t = 0, 1, 2, ... by
Newton's forward differences, and gcds by primitive pseudo-remainders.
"""

from __future__ import annotations

import dataclasses
import math
import string

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# Words and presentations


def _letter_index(ch, n_generators):
    if ch in string.ascii_lowercase:
        idx = ord(ch) - ord("a") + 1
        sign = 1
    elif ch in string.ascii_uppercase:
        idx = ord(ch) - ord("A") + 1
        sign = -1
    else:
        raise ValueError(f"bad letter {ch!r} in word")
    if idx > n_generators:
        raise ValueError(f"letter {ch!r} is not among the first {n_generators} generators")
    return sign * idx


def free_reduce(word):
    out: list[int] = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def parse_word(s, n_generators):
    return free_reduce(_letter_index(ch, n_generators) for ch in s.strip())


@dataclasses.dataclass(frozen=True)
class GroupPresentation:
    """Finite presentation with generators a, b, c, ... and reduced relators."""

    n_generators: int
    relators: tuple[Word, ...]

    @classmethod
    def from_strings(cls, n_generators, relator_strings):
        return cls(n_generators, tuple(parse_word(r, n_generators) for r in relator_strings))

    @property
    def deficiency(self):
        return self.n_generators - len(self.relators)


def parse_presentation(text):
    """File format: first non-empty line = generator letters, then one relator
    per line; '#' starts a comment; inverses as capital letters."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty presentation file")
    gens = lines[0]
    if not gens or any(ch not in string.ascii_lowercase for ch in gens):
        raise ValueError("generator line must be lowercase letters")
    if gens != string.ascii_lowercase[: len(gens)] or len(set(gens)) != len(gens):
        raise ValueError("generators must be an initial segment a, b, c, ...")
    return GroupPresentation.from_strings(len(gens), lines[1:])


# ---------------------------------------------------------------------------
# Fox calculus


def alexander_matrix(p):
    """Fox-derivative matrix with every generator sent to t; rows = relators,
    cols = generators.

    One pass over each relator r, with the running exponent sum e of its
    prefix, builds its row.  As d(ux)/dx = du/dx + u and
    d(ux^-1)/dx = du/dx - ux^-1, a letter x_j adds t^e to entry j before e
    rises by 1, and a letter x_j^-1 lowers e by 1 and then adds -t^e.  The
    row is multiplied by the unit t^len(r), so e starts at len(r): every
    prefix of r has length at most len(r), and every entry is a polynomial
    in t, a coefficient tuple.
    """
    rows = []
    for r in p.relators:
        row = [[0] * (2 * len(r) + 1) for _ in range(p.n_generators)]
        e = len(r)
        for g in r:
            if g > 0:
                row[g - 1][e] += 1
                e += 1
            else:
                e -= 1
                row[-g - 1][e] -= 1
        rows.append([_trim(entry) for entry in row])
    return rows


def _det(rows):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact; the empty matrix has det 1."""
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if m else 1


def _maximal_minors(rows, n):
    """The n determinants of the (n - 1) x n matrix with column j deleted."""
    return [_det([row[:j] + row[j + 1 :] for row in rows]) for j in range(n)]


def _trim(coeffs):
    """Coefficient tuple without the zero coefficients above the degree."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _interpolate(values):
    """The integer polynomial of degree below len(values) that takes them at
    t = 0, 1, 2, ...: Newton's forward differences d_k, in Horner form
    sum_k d_k / k! * t (t - 1) ... (t - k + 1).  k! divides the k-th
    difference of an integer polynomial, so the division is exact."""
    diffs = []
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    poly = []
    for k in reversed(range(len(diffs))):
        poly = [a - k * b for a, b in zip([0, *poly], [*poly, 0])]  # (t - k) poly
        poly[0] += diffs[k] // math.factorial(k)
    return _trim(poly)


def _mul(f, g):
    """Product of two coefficient tuples."""
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def _gcd(f, g):
    """gcd in Z[t] of nonzero f and g, up to sign: by Gauss's lemma, the gcd
    of their contents times the last member of the primitive
    pseudo-remainder sequence of their primitive parts."""
    content = math.gcd(*f, *g)
    f, g = sorted(map(_primitive, (f, g)), key=len, reverse=True)
    while g:
        while len(f) >= len(g):  # f <- lc(g) f - lc(f) t^shift g
            shift = len(f) - len(g)
            f = _trim(g[-1] * a - f[-1] * (g[i - shift] if i >= shift else 0)
                      for i, a in enumerate(f))
        f, g = g, _primitive(f) if f else ()
    return tuple(content * c for c in f)


def _primitive(f):
    """Nonzero f divided by the gcd of its coefficients."""
    return tuple(c // math.gcd(*f) for c in f)


def _normalized(poly):
    """poly divided by the unit +-t^k that makes its lowest exponent 0 and its
    leading coefficient positive (0, the empty tuple, stays 0)."""
    poly = _trim(poly)
    poly = poly[next((e for e, c in enumerate(poly) if c), 0) :]
    return tuple(-c for c in poly) if poly and poly[-1] < 0 else poly


def alexander_polynomial(p):
    """gcd of the maximal minors of the one-column-deleted Alexander matrix.

    Each minor has degree at most D, the sum over the rows of their largest
    entry degree, so it is rebuilt from its integer values at t = 0 ...
    max(D, 1).  At t = 1 the matrix is the relators' exponent-sum matrix, and
    the abelianization, Z^n modulo the span of its rows, is Z exactly when
    its maximal minors have gcd 1 (the gcd is 0 below rank n - 1, and
    otherwise the order of the torsion).  That gcd of 1 leaves some minor
    nonzero, and it makes Delta(1), which divides every minor's value at 1,
    equal to +-1."""
    if p.deficiency != 1:
        raise ValueError(f"need a deficiency-1 presentation, got deficiency {p.deficiency}")
    mat = alexander_matrix(p)
    top = sum(max(1, *map(len, row)) - 1 for row in mat)
    values = [_maximal_minors([[sum(c * x**e for e, c in enumerate(entry)) for entry in row]
                               for row in mat], p.n_generators)
              for x in range(max(top, 1) + 1)]
    if math.gcd(*values[1]) != 1:
        raise ValueError("abelianization is not infinite cyclic")
    minors = [m for m in map(_interpolate, map(list, zip(*values))) if m]
    g = minors[0]
    for m in minors[1:]:
        g = _gcd(g, m)
    return _normalized(g)


def stage_polynomial(delta, i):
    """Polynomial of the i-th connected-sum doubling stage: delta^(2^i).

    A normalised delta gives a normalised power."""
    if i < 0:
        raise ValueError("stage must be >= 0")
    for _ in range(i):
        delta = _mul(delta, delta)
    return delta


def _format(poly):
    """`t^2 - 3*t + 1`: terms from the highest exponent down, 0 for zero."""
    parts = []
    for e, c in [(e, c) for e, c in enumerate(poly) if c][::-1] or [(0, 0)]:
        mono = "t" if e == 1 else f"t^{e}"
        body = str(abs(c)) if e == 0 else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        parts.append(("- " if c < 0 else "+ ") + body)
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


# The last stage a verdict reports: stage i has 2^i copies, and the cap keeps
# each stage's copy count and degree (302 digits at most) far under Python's
# 4,300-digit limit on printing an int.
MAX_DEPTH = 1000


def nontriviality_verdict(delta, depth=6):
    """Certify nontriviality of the infinite connected-sum limit knot.

    Returns a report dict with stages 0 to depth.  The verdict is NONTRIVIAL
    iff delta is not a unit +-t^k; the finite stages double the knot each
    time, so their polynomials are delta^(2^i) and are non-units exactly when
    delta is.  Since Z[t, 1/t] has no zero divisors, stage i has degree
    2^i deg(delta); a stage is expanded and printed only while
    2^i max(deg(delta), 1) <= 16, so that a constant's coefficients stay
    small too (0 and 1 are their own powers).  A depth outside 0 to
    MAX_DEPTH raises ValueError.
    """
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be between 0 and {MAX_DEPTH}, got {depth}")
    delta = _normalized(delta)
    degree = max(len(delta) - 1, 0)
    unit = delta == (1,)
    stages = []
    for i in range(depth + 1):
        d = 2**i * degree
        small = unit or not delta or 2**i * max(degree, 1) <= 16
        text = _format(stage_polynomial(delta, i)) if small else f"degree-{d} power"
        stages.append({"stage": i, "copies": 2**i, "degree": d, "unit": unit,
                       "polynomial": text})
    return {
        "verdict": "TRIVIAL" if unit or not delta else "NONTRIVIAL",
        "base_polynomial": _format(delta),
        "base_degree": degree,
        "delta_at_1": sum(delta),
        "stages": stages,
        "assumed_facts": [
            # Standard results used but not recomputed here; the polynomial
            # arithmetic above is the only machine-checked step.
            "PROOF-LEVEL: the knot-group polynomial is multiplicative under connected sum",
            "PROOF-LEVEL: each stage complement includes into the next inducing an "
            "injection on first homology of the infinite cyclic covers",
            "PROOF-LEVEL: the stage boundary is a product (2-sphere) x (circle), so "
            "nonvanishing stage homology passes to the limit complement",
        ],
    }


# ---------------------------------------------------------------------------
# Presets


def _two_bridge_relator(p, q):
    """Relator a w b^-1 w^-1 of the 2-bridge presentation, w = b^e1 a^e2 ..."""
    w: list[int] = []
    for i in range(1, p):
        gen = 2 if i % 2 == 1 else 1
        sign = 1 if (i * q // p) % 2 == 0 else -1
        w.append(sign * gen)
    inv = [-g for g in reversed(w)]
    return free_reduce(tuple([1] + w + [-2] + inv))


PRESETS = {
    "unknot": GroupPresentation(1, ()),
    "trefoil": GroupPresentation(2, (_two_bridge_relator(3, 1),)),
    "figure-eight": GroupPresentation(2, (_two_bridge_relator(5, 3),)),
    "granny": GroupPresentation.from_strings(3, ["abaBAB", "acaCAC"]),
}
# Spinning a classical knot does not change the fundamental group of the
# complement, so the spun trefoil (the base 2-knot of the block construction)
# shares the trefoil's presentation and polynomial.
PRESETS["spun-trefoil"] = PRESETS["trefoil"]
