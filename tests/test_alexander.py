import itertools
import time

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wildknot import alexander as ax
from wildknot.alexander import GroupPresentation

import oracles as orc

T = sympy.Symbol("t")


def P(expr):
    """The coefficient tuple of a polynomial in t, read from its `sympy.Poly`."""
    return orc.coefficients(sympy.Poly(expr, T, domain="ZZ"))


TREFOIL = P(T**2 - T + 1)


class TestLaurent:
    """Laurent polynomials up to the units +-t^k, as their normalised
    coefficient tuples."""

    def test_square_of_trefoil_poly(self):
        stage = ax.nontriviality_verdict(TREFOIL, depth=1)["stages"][1]
        assert stage["polynomial"] == "t^4 - 2*t^3 + 3*t^2 - 2*t + 1"

    def test_normalization(self):
        # -2 t^-3 - t^-1 - 1 = -t^-3 (2 + t^2 + t^3)
        n = ax._normalized(P(-2 - T**2 - T**3))
        assert n == P(T**3 + T**2 + 2)
        assert ax._normalized(n) == n  # idempotent
        assert ax._normalized(P(-3 * T**4 + T**5)) == P(T - 3)
        assert ax._normalized(P(0)) == P(0)

    def test_units(self):
        for unit in (P(-T**5), P(1), P(-1)):
            report = ax.nontriviality_verdict(unit, depth=2)
            assert report["verdict"] == "TRIVIAL" and all(s["unit"] for s in report["stages"])
        for other in (P(2), P(T + 1)):
            report = ax.nontriviality_verdict(other, depth=2)
            assert report["verdict"] == "NONTRIVIAL"
            assert not any(s["unit"] for s in report["stages"])

    def test_str(self):
        assert ax._format(TREFOIL) == "t^2 - t + 1"
        assert ax._format(P(0)) == "0"
        assert ax._format(P(-3 * T)) == "-3*t"
        assert ax._format(P(2 * T**3 - T + 5)) == "2*t^3 - t + 5"

    @given(st.lists(st.integers(-9, 9), max_size=6))
    def test_evaluate_at_one_is_coefficient_sum(self, coeffs):
        poly = P(sum(c * T**e for e, c in enumerate(coeffs)))
        at_one = ax.nontriviality_verdict(poly, depth=0)["delta_at_1"]
        assert type(at_one) is int  # the bundle's JSON encoder takes Python ints
        assert abs(at_one) == abs(sum(coeffs))


class TestWords:
    def test_parse_and_reduce(self):
        assert ax.parse_word("abA", 2) == (1, 2, -1)
        assert ax.parse_word("aA", 1) == ()
        assert ax.parse_word("abBA", 2) == ()
        assert orc.word_to_string((1, -2, 1)) == "aBa"

    def test_parse_rejects_unknown_generator(self):
        with pytest.raises(ValueError):
            ax.parse_word("abc", 2)
        with pytest.raises(ValueError):
            ax.parse_word("a1", 2)


words = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12).map(
    lambda w: ax.free_reduce(w)
)


class TestFox:
    def test_defining_rules(self):
        assert ax.fox_derivative((1, 2), 1) == {(): 1}  # d(xy)/dx = 1
        assert ax.fox_derivative((2,), 1) == {}  # d(y)/dx = 0
        assert ax.fox_derivative((-1,), 1) == {(-1,): -1}  # d(x^-1)/dx = -x^-1

    def test_trefoil_relator_derivative(self):
        # d(xyx y^-1 x^-1 y^-1)/dx = 1 + xy - xyxy^-1x^-1, abelianized 1 - t + t^2:
        # contributions 1 (first x), t^2 (prefix xy), -t (inverse letter x^-1
        # with prefix xyxy^-1), matching the trefoil polynomial up to unit.
        deriv = ax.abelianize(ax.fox_derivative(ax.parse_word("abaBAB", 2), 1))
        assert deriv == {0: 1, 1: -1, 2: 1}

    @given(words, words, st.sampled_from([1, 2, 3]))
    @settings(max_examples=200)
    def test_product_rule(self, u, v, g):
        lhs = ax.fox_derivative(ax.free_reduce(tuple(u) + tuple(v)), g)
        rhs = ax._ring_add(ax.fox_derivative(u, g), orc.ring_left_multiply(u, ax.fox_derivative(v, g)))
        assert lhs == rhs

    @given(words, st.sampled_from([1, 2, 3]))
    def test_derivative_of_inverse(self, w, g):
        # d(w^-1) = -w^-1 d(w)
        inv = ax.free_reduce(tuple(-g_ for g_ in reversed(w)))
        lhs = ax.fox_derivative(inv, g)
        rhs = {k: -c for k, c in orc.ring_left_multiply(inv, ax.fox_derivative(w, g)).items()}
        assert lhs == rhs


class TestAlexanderPolynomial:
    def test_unknot(self):
        assert ax.alexander_polynomial(ax.PRESETS["unknot"]) == P(1)

    def test_trefoil(self):
        assert ax.alexander_polynomial(ax.PRESETS["trefoil"]) == TREFOIL

    def test_spun_trefoil_shares_trefoil_group(self):
        assert ax.PRESETS["spun-trefoil"] == ax.PRESETS["trefoil"]

    def test_figure_eight(self):
        assert ax.alexander_polynomial(ax.PRESETS["figure-eight"]) == P(T**2 - 3 * T + 1)

    def test_granny(self):
        assert ax.alexander_polynomial(ax.PRESETS["granny"]) == P((T**2 - T + 1) ** 2)

    def test_delta_at_one_is_unit_for_presets(self):
        for name, p in ax.PRESETS.items():
            assert abs(sum(ax.alexander_polynomial(p))) == 1, name

    def test_multiplicative_under_connected_sum(self):
        tt = orc.connected_sum(ax.PRESETS["trefoil"], ax.PRESETS["trefoil"])
        assert tt.deficiency == 1
        delta = ax.alexander_polynomial(tt)
        trefoil = ax.alexander_polynomial(ax.PRESETS["trefoil"])
        assert delta == ax._mul(trefoil, trefoil) == P((T**2 - T + 1) ** 2)
        # and agrees with the independent granny-knot presentation
        assert delta == ax.alexander_polynomial(ax.PRESETS["granny"])

    def test_rejects_wrong_deficiency(self):
        with pytest.raises(ValueError, match="deficiency"):
            ax.alexander_polynomial(GroupPresentation.from_strings(2, []))

    def test_rejects_non_cyclic_abelianization(self):
        # <a, b | a^2 b^-2>: abelianization Z + Z/2... actually Z x Z quotient
        # by (2,-2), which is Z x Z/2 -- not infinite cyclic.
        with pytest.raises(ValueError, match="abelianization"):
            ax.alexander_polynomial(GroupPresentation.from_strings(2, ["aaBB"]))


class TestStagesAndVerdict:
    def test_stage_zero_is_identity(self):
        assert ax.stage_polynomial(TREFOIL, 0) == TREFOIL

    def test_stage_one_squares(self):
        assert ax.stage_polynomial(TREFOIL, 1) == P(T**4 - 2 * T**3 + 3 * T**2 - 2 * T + 1)

    @pytest.mark.parametrize("i", range(7))
    def test_stage_degree_doubles(self, i):
        assert len(ax.stage_polynomial(TREFOIL, i)) - 1 == 2**i * (len(TREFOIL) - 1)

    def test_verdict_nontrivial(self):
        report = ax.nontriviality_verdict(TREFOIL, depth=4)
        assert report["verdict"] == "NONTRIVIAL"
        assert all(not s["unit"] for s in report["stages"])
        assert [s["degree"] for s in report["stages"]] == [2, 4, 8, 16, 32]
        assert report["stages"][3]["polynomial"] == ax._format(P((T**2 - T + 1) ** 8))
        assert report["stages"][4]["polynomial"] == "degree-32 power"
        assert any("PROOF-LEVEL" in f for f in report["assumed_facts"])

    def test_verdict_trivial_for_units(self):
        assert ax.nontriviality_verdict(P(1))["verdict"] == "TRIVIAL"
        assert ax.nontriviality_verdict(P(-T**3))["verdict"] == "TRIVIAL"

    def test_deep_verdict_expands_no_large_power(self):
        """Stage degrees follow from deg(delta) alone (Z[t, 1/t] has no zero
        divisors), so depth 40 returns at once, where squaring to
        delta^(2^40) would not."""
        start = time.perf_counter()
        report = ax.nontriviality_verdict(TREFOIL, depth=40)
        assert time.perf_counter() - start < 1.0
        assert [s["degree"] for s in report["stages"]] == [2 ** (i + 1) for i in range(41)]
        assert not any(s["unit"] for s in report["stages"])

    @pytest.mark.parametrize("depth", [16, 20])
    def test_constant_verdict_expands_no_large_power(self, depth):
        """A constant delta has degree 0 at every stage, but 3^(2^i) grows:
        stages are expanded only while 2^i <= 16."""
        report = ax.nontriviality_verdict(P(3), depth=depth)
        assert report["verdict"] == "NONTRIVIAL"
        texts = [s["polynomial"] for s in report["stages"]]
        assert texts[:5] == ["3", "9", "81", "6561", str(3**16)]
        assert texts[5:] == ["degree-0 power"] * (depth - 4)


def outcome(compute, p):
    """compute(p), or the message of the ValueError it raises."""
    try:
        return compute(p)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_matches_sympy(presentations):
    """On each presentation the integer polynomial is the coefficient tuple
    of sympy's, the depth-4 verdicts are equal dicts, and a ValueError has
    sympy's message; returns the messages raised."""
    messages = []
    for p in presentations:
        got, want = outcome(ax.alexander_polynomial, p), outcome(orc.alexander_polynomial, p)
        if isinstance(want, str):
            assert got == want, p
            messages.append(want)
        else:
            assert got == orc.coefficients(want), p
            verdict = orc.nontriviality_verdict(want, depth=4)
            assert ax.nontriviality_verdict(got, depth=4) == verdict, p
    return messages


def knots():
    """Presentations whose polynomials mostly have positive degree: the
    presets, every two-bridge relator up to p = 13, the relators a^p b^-q up
    to 7 and the connected sums of two presets."""
    yield from ax.PRESETS.values()
    for p in range(3, 14, 2):
        for q in range(1, p):
            yield GroupPresentation(2, (ax._two_bridge_relator(p, q),))
    for p, q in itertools.product(range(1, 8), repeat=2):
        yield GroupPresentation.from_strings(2, ["a" * p + "B" * q])
    for one, two in itertools.combinations_with_replacement(sorted(ax.PRESETS), 2):
        yield orc.connected_sum(ax.PRESETS[one], ax.PRESETS[two])


class TestSympyOracle:
    """The integer arithmetic against the sympy computation it replaced."""

    def test_knots_match_sympy(self):
        presentations = list(knots())
        messages = assert_matches_sympy(presentations)
        degrees = [len(delta) - 1 for delta in (outcome(ax.alexander_polynomial, p)
                                                for p in presentations)
                   if isinstance(delta, tuple)]
        assert len(degrees) > 50 and max(degrees) >= 12
        assert set(messages) == {"ValueError: abelianization is not infinite cyclic"}

    @pytest.mark.parametrize("seed", range(3))
    def test_random_presentations_match_sympy(self, seed):
        """1 to 4 generators, relators of up to 10 letters: deficiency 1 or,
        one in ten, any number of relators up to 4."""
        rng = np.random.default_rng(seed)
        presentations = [orc.random_presentation(rng, None if rng.random() < 0.9
                                                 else int(rng.integers(0, 5)))
                         for _ in range(300)]
        messages = assert_matches_sympy(presentations)
        assert "ValueError: abelianization is not infinite cyclic" in messages
        assert any(m.startswith("ValueError: need a deficiency-1") for m in messages)
        assert len(messages) < 150  # most have a polynomial

    def test_stages_match_sympy_powers(self):
        for p in knots():
            delta = outcome(ax.alexander_polynomial, p)
            if isinstance(delta, tuple):
                want = orc.alexander_polynomial(p)
                for i in range(5):
                    assert ax.stage_polynomial(delta, i) == orc.coefficients(want ** 2**i), p


class TestPresentationIO:
    def test_roundtrip(self):
        p = ax.PRESETS["granny"]
        text = orc.render_presentation(p)
        assert ax.parse_presentation(text) == p

    def test_comments_and_blank_lines(self):
        p = ax.parse_presentation("# trefoil\nab\n\nabaBAB  # braid relator\n")
        assert p == ax.PRESETS["trefoil"]

    def test_bad_generator_line(self):
        with pytest.raises(ValueError):
            ax.parse_presentation("xz\nxzx\n")  # not an initial segment
        with pytest.raises(ValueError):
            ax.parse_presentation("aB\n")
