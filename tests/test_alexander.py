import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildknot import alexander as ax
from wildknot.alexander import GroupPresentation, LaurentPolynomial

import oracles as orc


def L(d):
    return LaurentPolynomial(d)


class TestLaurent:
    def test_arithmetic(self):
        p = L({0: 1, 1: -1, 2: 1})  # t^2 - t + 1
        q = L({0: 1, 1: 1})  # t + 1
        assert p * q == L({0: 1, 3: 1})  # (t^2-t+1)(t+1) = t^3+1
        assert p + (-p) == L({})
        assert orc.coefficient_list(p - q) == [-2, 1]  # constant term cancels

    def test_square_of_trefoil_poly(self):
        p = L({0: 1, 1: -1, 2: 1})
        assert orc.coefficient_list(p**2) == [1, -2, 3, -2, 1]

    def test_normalization(self):
        p = L({-3: -2, -1: -1, 0: -1})  # -2 t^-3 - t^-1 - 1
        n = p.normalized()
        assert n == L({0: 2, 2: 1, 3: 1})
        assert n.normalized() == n  # idempotent
        assert L({}).normalized() == L({})

    def test_units(self):
        assert L({5: -1}).is_unit()
        assert L({0: 1}).is_unit()
        assert not L({0: 2}).is_unit()
        assert not L({0: 1, 1: 1}).is_unit()

    def test_str(self):
        assert str(L({0: 1, 1: -1, 2: 1})) == "t^2 - t + 1"
        assert str(L({})) == "0"
        assert str(L({1: -3})) == "-3*t"

    @given(st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6))
    def test_evaluate_at_one_is_coefficient_sum(self, d):
        assert L(d).evaluate(1) == sum(v for v in d.values())


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
        assert deriv == L({0: 1, 1: -1, 2: 1})

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
        assert ax.alexander_polynomial(ax.PRESETS["unknot"]) == L({0: 1})

    def test_trefoil(self):
        assert ax.alexander_polynomial(ax.PRESETS["trefoil"]) == L({0: 1, 1: -1, 2: 1})

    def test_spun_trefoil_shares_trefoil_group(self):
        assert ax.PRESETS["spun-trefoil"] == ax.PRESETS["trefoil"]

    def test_figure_eight(self):
        assert ax.alexander_polynomial(ax.PRESETS["figure-eight"]) == L({0: 1, 1: -3, 2: 1})

    def test_granny(self):
        # (t^2 - t + 1)^2
        assert ax.alexander_polynomial(ax.PRESETS["granny"]) == L({0: 1, 1: -2, 2: 3, 3: -2, 4: 1})

    def test_delta_at_one_is_unit_for_presets(self):
        for name, p in ax.PRESETS.items():
            assert abs(ax.alexander_polynomial(p).evaluate(1)) == 1, name

    def test_multiplicative_under_connected_sum(self):
        tt = orc.connected_sum(ax.PRESETS["trefoil"], ax.PRESETS["trefoil"])
        assert tt.deficiency == 1
        delta = ax.alexander_polynomial(tt)
        trefoil = ax.alexander_polynomial(ax.PRESETS["trefoil"])
        assert delta == (trefoil * trefoil).normalized()
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
        p = L({0: 1, 1: -1, 2: 1})
        assert ax.stage_polynomial(p, 0) == p

    def test_stage_one_squares(self):
        assert ax.stage_polynomial(L({0: 1, 1: -1, 2: 1}), 1) == L(
            {0: 1, 1: -2, 2: 3, 3: -2, 4: 1}
        )

    @pytest.mark.parametrize("i", range(7))
    def test_stage_degree_doubles(self, i):
        p = L({0: 1, 1: -1, 2: 1})
        assert ax.stage_polynomial(p, i).degree == 2**i * p.degree

    def test_verdict_nontrivial(self):
        report = ax.nontriviality_verdict(L({0: 1, 1: -1, 2: 1}), depth=4)
        assert report["verdict"] == "NONTRIVIAL"
        assert all(not s["unit"] for s in report["stages"])
        assert [s["degree"] for s in report["stages"]] == [2, 4, 8, 16, 32]
        assert any("PROOF-LEVEL" in f for f in report["assumed_facts"])

    def test_verdict_trivial_for_units(self):
        assert ax.nontriviality_verdict(L({0: 1}))["verdict"] == "TRIVIAL"
        assert ax.nontriviality_verdict(L({3: -1}))["verdict"] == "TRIVIAL"


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
