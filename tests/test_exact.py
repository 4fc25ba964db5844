"""Exact arithmetic layer: rationals, powers, square roots, ExpPoly."""

import copy
import math
import pickle
import random
import sys
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topoidx import exact
from topoidx.errors import DivisionByZero, InvalidRational, UnsupportedEvaluation
from topoidx.exact import (
    ExpPoly,
    exact_sqrt,
    general_pow,
    parse_rat,
    rat,
    rat_pow,
    render_int,
    render_value,
    sqrt_sum,
)
from topoidx.graph import generate_family
from topoidx.indices import evaluate

from reference import int_text_limit, parse_poly, str_text


class TestRationals:
    def test_reduction(self):
        n = 6
        assert rat(4, n - 2) == 1

    def test_inverse_pair(self):
        assert F(2, 3) * F(3, 2) == 1

    def test_wheel_hub_kernel_expression(self):
        # (3/(n-2))^2 + n^2 + 3n^2/(n-2) at n=5 reduces to 1 + 25 + 25.
        n = 5
        value = F(3, n - 2) ** 2 + F(n * n) + F(3 * n * n, n - 2)
        assert value == 51

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZero):
            rat(1, 0)

    def test_parse_rat(self):
        assert parse_rat("-2/3") == F(-2, 3)
        with pytest.raises(DivisionByZero):
            parse_rat("1/0")
        for text in ("x", "1/x", "1/", "9" * 5000, "1/" + "9" * 5000):
            with pytest.raises(InvalidRational):
                parse_rat(text)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_reduction_idempotent(self, num, den):
        r = F(num, den)
        assert F(r.numerator, r.denominator) == r
        assert r.denominator > 0

    def test_from_coprime_skips_the_gcd(self):
        # Every supported CPython (3.10-3.13) has a private gcd-free
        # constructor; one that drops it would silently pay the gcd again.
        assert exact.from_coprime is not F

    @given(st.integers(-10**40, 10**40), st.integers(1, 10**40))
    def test_from_coprime_equals_fraction(self, num, den):
        g = math.gcd(num, den)
        num, den = num // g, den // g
        got = exact.from_coprime(num, den)
        assert type(got) is F and got == F(num, den)
        assert (got.numerator, got.denominator) == (num, den)


class TestPowers:
    def test_negative_power(self):
        assert rat_pow(F(2, 3), -1) == F(3, 2)

    def test_square_of_cycle_kernel(self):
        assert rat_pow(12, 2) == 144

    def test_zeroth_power(self):
        assert rat_pow(5, 0) == 1

    def test_zero_to_negative(self):
        with pytest.raises(DivisionByZero):
            rat_pow(0, -1)

    def test_general_integral_is_exact(self):
        assert general_pow(F(2, 3), 2) == F(4, 9)
        assert isinstance(general_pow(F(2, 3), F(4, 2)), F)

    def test_general_fractional_is_float(self):
        value = general_pow(4, F(1, 2))
        assert isinstance(value, float)
        assert value == pytest.approx(2.0, rel=1e-9)

    def test_general_fractional_zero_to_negative(self):
        with pytest.raises(DivisionByZero) as err:
            general_pow(0, F(-1, 2))
        assert str(err.value) == "0 raised to a negative power"

    def test_general_fractional_negative_base(self):
        with pytest.raises(UnsupportedEvaluation):
            general_pow(-4, F(1, 2))

    def test_general_fractional_past_float_range(self):
        # The power overflows, and so does a base too large for a float.
        for base, a in ((10**200, F(5, 2)), (10**400, F(1, 2))):
            with pytest.raises(UnsupportedEvaluation, match=str(a)):
                general_pow(base, a)

    @pytest.mark.parametrize("base", [F(37), F(-37), F(1, 37), F(-3, 2)])
    @pytest.mark.parametrize("a", [10**9, -10**9, 10**4000])
    def test_general_power_past_cap_refused(self, base, a):
        with pytest.raises(UnsupportedEvaluation, match=f"limit of {exact.POWER_BITS_MAX} bits"):
            general_pow(base, a)

    def test_general_power_cap_boundary(self, monkeypatch):
        # Base 2 has exactly one bit per unit of the exponent; 3 has floor(log2 3) = 1.
        monkeypatch.setattr(exact, "POWER_BITS_MAX", 100)
        assert general_pow(2, 100) == 2**100
        assert general_pow(F(1, 3), -100) == 3**100
        for base, a in ((2, 101), (F(1, 2), -101), (F(-5, 3), 51)):
            with pytest.raises(UnsupportedEvaluation):
                general_pow(base, a)

    @pytest.mark.parametrize("a", [0, 1, -1])
    def test_general_power_of_unit_exponent_never_refused(self, monkeypatch, a):
        monkeypatch.setattr(exact, "POWER_BITS_MAX", 1)
        big = F(2**200 + 1, 3)
        assert general_pow(big, a) == big**a

    @pytest.mark.parametrize("base", [0, 1, -1])
    def test_general_power_of_unit_base_never_refused(self, base):
        assert general_pow(base, 10**9) == F(base) ** 2


class TestSqrt:
    def test_perfect_squares(self):
        assert exact_sqrt(4) == 2
        assert exact_sqrt(F(9, 4)) == F(3, 2)
        assert exact_sqrt(0) == 0

    def test_irrational(self):
        assert exact_sqrt(2) is None

    def test_negative(self):
        with pytest.raises(UnsupportedEvaluation) as err:
            exact_sqrt(-1)
        assert str(err.value) == "square root of negative value -1"

    def test_sum_stays_exact_when_possible(self):
        assert sqrt_sum([(F(4), 1), (F(9, 4), 1)]) == F(7, 2)
        assert sqrt_sum([(F(4), 3)]) == 6
        assert isinstance(sqrt_sum([(F(2), 2)]), float)


class TestExpPoly:
    def test_merge(self):
        assert ExpPoly([(9, 1), (9, 1)]) == ExpPoly({9: 2})

    def test_monomial_product_adds_exponents(self):
        assert ExpPoly.monomial(27) * ExpPoly.monomial(37) == ExpPoly.monomial(64)

    def test_factored_wheel_polynomial_expands(self):
        # 4x^9 (x^4 + 1) = 4x^13 + 4x^9
        product = ExpPoly.monomial(9, 4) * ExpPoly([(4, 1), (0, 1)])
        assert product == ExpPoly({13: 4, 9: 4})

    def test_eval_at_one_is_coefficient_sum(self):
        p = ExpPoly({27: 4, 37: 4})
        assert p.evaluate(1) == 8

    def test_derivative_at_one(self):
        p = ExpPoly({27: 4, 37: 4})
        assert p.derivative_at_one() == 4 * 27 + 4 * 37 == 256
        assert type(p.derivative_at_one()) is F
        assert type(ExpPoly().derivative_at_one()) is F

    # An int exponent is stored as it is, a Fraction as a Fraction; equal
    # values are one key either way.
    def test_int_and_fraction_exponents_are_one_key(self):
        assert ExpPoly({3: 1}) == ExpPoly({F(3): 1})
        assert hash(ExpPoly({3: 1})) == hash(ExpPoly({F(3): 1}))
        merged = ExpPoly([(3, 1), (F(3), 2)])
        assert len(merged) == 1 and merged.terms()[0][1] == 3
        assert merged == ExpPoly([(F(3), 1), (3, 2)]) == ExpPoly({3: 3})

    def test_mixed_exponent_types_render_as_before(self):
        assert ExpPoly({F(7, 2): 1, 3: 2}).render() == "1*x^7/2 + 2*x^3"
        assert ExpPoly({3: 2, F(7, 2): 1, F(-4, 2): 5}).render() == "1*x^7/2 + 2*x^3 + 5*x^-2"

    def test_constant_eval(self):
        assert ExpPoly.monomial(0).evaluate(1) == 1

    def test_eval_integer_exponents_exact(self):
        p = ExpPoly({2: 3, -1: 2})
        assert p.evaluate(F(1, 2)) == F(3, 4) + 4

    def test_eval_fractional_exponent_rejected_off_one(self):
        p = ExpPoly({F(1, 2): 1})
        assert p.evaluate(1) == 1
        with pytest.raises(UnsupportedEvaluation):
            p.evaluate(2)

    def test_eval_negative_exponent_needs_positive_x(self):
        p = ExpPoly({-2: 1})
        with pytest.raises(UnsupportedEvaluation):
            p.evaluate(0)

    def test_render_canonical(self):
        p = ExpPoly({37: 4, 27: 4})
        assert p.render() == "4*x^37 + 4*x^27"
        assert ExpPoly({F(175, 4): 4, 12: 4}).render() == "4*x^175/4 + 4*x^12"
        assert ExpPoly().render() == "0"

    def test_parse_inverts_render(self):
        p = ExpPoly({F(175, 4): 4, 12: 4, 0: 1})
        assert parse_poly(p.render()) == p
        assert parse_poly("0") == ExpPoly()

    def test_scalar_multiply(self):
        assert ExpPoly.monomial(0, 3) * ExpPoly({2: 1, 0: 2}) == ExpPoly({2: 3, 0: 6})

    def test_zero_coefficients_dropped(self):
        assert ExpPoly([(5, 1), (5, -1)]) == ExpPoly()

    def test_integral_coefficients_kept(self):
        assert ExpPoly([(3, F(6, 2)), (2, 2.0)]) == ExpPoly({3: 3, 2: 2})
        assert type(ExpPoly([(3, F(6, 2))]).terms()[0][1]) is int

    @pytest.mark.parametrize("coeff", [F(7, 2), 2.9, -0.5])
    def test_non_integral_coefficient_rejected(self, coeff):
        with pytest.raises(UnsupportedEvaluation, match="not an integer"):
            ExpPoly([(3, coeff)])
        with pytest.raises(UnsupportedEvaluation, match="not an integer"):
            ExpPoly.monomial(3, coeff)

    def test_float_exponent_rejected(self):
        with pytest.raises(UnsupportedEvaluation):
            ExpPoly([(0.5, 1)])
        with pytest.raises(UnsupportedEvaluation):
            ExpPoly.monomial(0.5)

    def test_immutable(self):
        p = ExpPoly({1: 1})
        with pytest.raises(AttributeError):
            p._exps = ()

    @pytest.mark.parametrize("clone", [
        copy.copy,
        copy.deepcopy,
        lambda p: pickle.loads(pickle.dumps(p)),
        lambda p: pickle.loads(pickle.dumps(p, protocol=0)),
    ], ids=["copy", "deepcopy", "pickle", "pickle0"])
    def test_copies_are_equal(self, clone):
        wheel = generate_family("wheel", 4)
        for p in (ExpPoly(), ExpPoly({F(175, 4): 4, 12: 4, 0: 1}),
                  evaluate(wheel, "RL1exp"), evaluate(wheel, "IRRL2exp")):
            q = clone(p)
            assert type(q) is ExpPoly and q == p and hash(q) == hash(p)
            assert [(type(e), e, c) for e, c in q.terms()] == [(type(e), e, c) for e, c in p.terms()]
            assert q.render() == p.render()
            with pytest.raises(AttributeError):
                q._exps = ()

    @given(st.lists(
        st.tuples(
            st.fractions(min_value=-20, max_value=20, max_denominator=12),
            st.integers(min_value=-50, max_value=50),
        ),
        max_size=8,
    ))
    def test_render_parse_round_trip(self, terms):
        p = ExpPoly(terms)
        assert parse_poly(p.render()) == p

    @given(
        st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=6),
        st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=6),
    )
    def test_addition_matches_eval(self, a_terms, b_terms):
        a, b = ExpPoly(a_terms), ExpPoly(b_terms)
        x = F(3, 2)
        assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)


def model_of(pairs) -> dict:
    """A polynomial as a plain dict: exponent -> coefficient, zeros dropped.

    A dict keeps the first key object met for equal keys, so an int and a
    Fraction of one value are one key with the type of the first.
    """
    model: dict = {}
    for e, c in pairs:
        model[e] = model.get(e, 0) + c
    return {e: c for e, c in model.items() if c}


def canonical(model: dict) -> list:
    return sorted(model.items(), key=lambda term: term[0], reverse=True)


def typed(terms) -> list:
    return [(type(e), e, type(c), c) for e, c in terms]


exponents = st.one_of(st.integers(-30, 30),
                      st.fractions(min_value=-20, max_value=20, max_denominator=6))
term_lists = st.lists(st.tuples(exponents, st.integers(-4, 4)), max_size=12)


class TestExpPolyAgainstDictModel:
    @given(term_lists, term_lists, st.randoms(use_true_random=False))
    def test_matches_the_model(self, a_pairs, b_pairs, rng):
        a, b = ExpPoly(a_pairs), ExpPoly(b_pairs)
        ma, mb = model_of(a_pairs), model_of(b_pairs)
        want = canonical(ma)
        terms = a.terms()
        assert typed(terms) == typed(want)
        assert terms == tuple(want) and list(terms) == want and len(a) == len(ma)
        assert a.render() == (" + ".join(
            f"{c}*x^{e.numerator}" + ("" if e.denominator == 1 else f"/{e.denominator}")
            for e, c in want) or "0")
        assert a.evaluate(1) == sum(ma.values())
        assert a.derivative_at_one() == sum(c * e for e, c in ma.items())
        assert a == ExpPoly(ma) and hash(a) == hash(ExpPoly(ma))
        assert (a == b) == (ma == mb)
        shuffled = list(a_pairs)
        rng.shuffle(shuffled)
        s = ExpPoly(shuffled)
        assert s == a and hash(s) == hash(a) and s.render() == a.render()
        assert typed((a + b).terms()) == typed(canonical(model_of([*ma.items(), *mb.items()])))
        product = [(e1 + e2, c1 * c2) for e1, c1 in ma.items() for e2, c2 in mb.items()]
        assert typed((a * b).terms()) == typed(canonical(model_of(product)))
        for clone in (copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))):
            q = clone(a)
            assert q == a and hash(q) == hash(a)
            assert typed(q.terms()) == typed(want) and q.render() == a.render()

    def test_terms_read_as_the_tuple_of_their_pairs(self):
        p = ExpPoly([(3, 2), (F(7, 2), 1), (-1, 5)])
        pairs = ((F(7, 2), 1), (3, 2), (-1, 5))
        terms = p.terms()
        assert terms == pairs and tuple(terms) == pairs and len(terms) == 3
        assert terms[0] == (F(7, 2), 1) and terms[1:] == pairs[1:]
        assert terms != list(pairs)
        with pytest.raises(AttributeError):
            terms.firsts = ()
        with pytest.raises(TypeError):
            hash(terms)

    def test_columns_hold_two_pointers_per_term(self):
        """10^5 terms: the poly holds two tuples, and its terms are built with no tuple per term.

        The exponents are 70-bit ints, large as ``RLKV1exp``'s are on a large
        random graph, made before tracing starts.  A dict of the terms held
        5.0 MB, and a sorted list of its items peaked 7.6 MB above it.  The
        poly now holds 1.53 MB, and a pass over ``terms()`` peaks 2.29 MB
        above it: two sorted columns, a sort's keys and merge space.  An
        index permutation would have peaked at 5.45 MB, most of it 10^5 ints.
        """
        rng = random.Random(1)
        exps = [(1 << 70) + 3 * i for i in range(10 ** 5)]
        rng.shuffle(exps)
        coeffs = [rng.choice((1, 1, 1, 2, 3)) for _ in exps]
        tracemalloc.start()
        try:
            p = ExpPoly(zip(exps, coeffs))
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            first = last = None
            for term in p.terms():
                first = first or term
                last = term
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(p) == 10 ** 5
        assert first[0] == max(exps) and last[0] == min(exps)
        assert held <= 2 * 2 ** 20
        assert peak - held < 3 * 2 ** 20


CUT = exact.STR_BITS_MAX


class TestRenderInt:
    """``render_int`` writes the text of ``str()`` at any size, whatever the digit limit."""

    # Up to 8 * CUT bits: past the default limit of 4300 digits, and split
    # down to the base case over three levels.
    @given(st.integers(0, 8 * CUT).flatmap(lambda bits: st.integers(-(1 << bits), 1 << bits)))
    def test_equals_str(self, n):
        with int_text_limit(0):
            expected = str(n)
        assert render_int(n) == expected

    def test_both_sides_of_the_cutoff_and_the_base_case(self):
        # Widths at CUT go to str(); one past splits once into base cases;
        # 2 * CUT + 1 splits into CUT and CUT + 1, which splits again.
        widths = [1, 2, CUT - 1, CUT, CUT + 1, 2 * CUT - 1, 2 * CUT, 2 * CUT + 1, 4 * CUT + 3,
                  50_000]
        values = [0, 1, -1]
        for w in widths:
            values += [(1 << w) - 1, 1 << w, (1 << w) + 1, -(1 << w), 3 ** (w * 5 // 8)]
        for k in (1, 2, 19, 616, 617, 618, 640, 641, 1000, 4300, 4301, 20_000):
            values += [10 ** k - 1, 10 ** k, 10 ** k + 1, -(10 ** k), 1 - 10 ** k]
        with int_text_limit(0):
            expected = [str(n) for n in values]
        assert [render_int(n) for n in values] == expected

    @pytest.mark.parametrize("limit", [640, 4300])
    def test_text_does_not_depend_on_the_digit_limit(self, limit):
        # 640 is the lowest limit an interpreter allows; CUT bits stay under it.
        values = [(1 << CUT) - 1, -(1 << CUT), 10 ** 639, 10 ** 640, 7 ** 2000, -(10 ** 5000)]
        with int_text_limit(0):
            expected = [str(n) for n in values]
        with int_text_limit(limit):
            assert [render_int(n) for n in values] == expected
            assert len(str(values[0])) == 617

    def test_million_digit_values(self):
        k = 10 ** 6
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        assert render_int(10 ** k - 1) == "9" * k
        assert render_int(10 ** k) == "1" + "0" * k
        assert render_int(-(10 ** k)) == "-1" + "0" * k
        assert render_int(4 * 10 ** k + 7) == "4" + "0" * (k - 1) + "7"
        if limit is not None:  # the renderer never touches the limit
            assert sys.get_int_max_str_digits() == limit

    def test_huge_values_render(self):
        exponent = F(10 ** 5000 + 1, 3 ** 11000)
        poly = ExpPoly({exponent: -(7 ** 9000), 2 ** 20000: 10 ** 4400, -exponent: 1, 0: 3})
        value = F(-(11 ** 8000), 13 ** 7000)
        with int_text_limit(0):
            expected_poly, expected_value = str_text(poly), str_text(value)
            assert parse_poly(expected_poly) == poly
        assert poly.render() == render_value(poly) == expected_poly
        assert render_value(value) == expected_value
