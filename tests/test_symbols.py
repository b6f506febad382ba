"""Symbol family constructors, their closed-form sup Re, and non-finite values."""
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from semigrouplab.errors import (HypothesisViolationError,
                                 SymbolEvaluationError, UnsupportedFamilyError)
from semigrouplab.spectral import Grid
from semigrouplab.symbols import (RATES, SymbolSeq, constant_symbol_seq, perturbed_heat_seq,
                                  heat_symbol_seq, make_fractional_symbol_seq,
                                  make_poly_symbol_seq, poly_sup_re)

TWO_PI = 2.0 * np.pi


def xi_col(*values):
    return np.asarray(values, dtype=float)[:, None]


COEFFICIENTS = st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))


def coefficient_lists(min_size=1, max_size=3):
    return st.lists(COEFFICIENTS, min_size=min_size, max_size=max_size)


XI = xi_col(*np.linspace(-3.0, 3.0, 61))


class TestPolyFamilies:
    def test_heat_symbol_is_minus_xi_squared(self):
        s = heat_symbol_seq()
        xi = xi_col(0.0, 0.5, 3.0, -2.0)
        assert np.allclose(s(1, xi), -xi[:, 0] ** 2, atol=1e-14)

    def test_drifted_family_matches_formula(self):
        s = perturbed_heat_seq()
        xi = xi_col(0.0, 1.0, -1.5)
        z = TWO_PI * 1j * xi[:, 0]
        for n in (1, 4, 16):
            expected = -xi[:, 0] ** 2 + (1.0 + z * z) / n
            assert np.allclose(s(n, xi), expected, atol=1e-13)

    def test_two_dimensional_heat_symbol_is_minus_norm_squared(self):
        grid = Grid(2, 4.0, 8)
        xi = grid.frequency_vectors()
        values = heat_symbol_seq().on_grid(4, grid)
        assert np.allclose(values, -np.sum(xi * xi, axis=-1), rtol=1e-14, atol=0)
        # an elliptic symbol: it varies along xi_2 as along xi_1
        assert np.ptp(values.real, axis=1).max() == np.ptp(values.real, axis=0).max() > 0

    def test_two_dimensional_drift_runs_along_x1(self):
        coeffs = (0.5, 1.0 + 0.3j, 0.25)
        s = make_poly_symbol_seq(coeffs)
        xi = Grid(2, 4.0, 16).frequency_vectors()
        z1, z2 = np.moveaxis(TWO_PI * 1j * xi, -1, 0)
        expected = 0.5 + (1.0 + 0.3j) * z1 + 0.25 * (z1 * z1 + z2 * z2)
        assert np.allclose(s(1, xi), expected, rtol=1e-14, atol=0)
        # the closed-form sup Re holds on the plane too: its maximum sits at xi_2 = 0
        assert np.max(s(1, xi).real) <= poly_sup_re(coeffs) + 1e-12

    def test_constant_term_at_zero_frequency(self):
        s = make_poly_symbol_seq((2.0 + 3.0j, 1.0, 0.5))
        assert s(7, xi_col(0.0))[0] == pytest.approx(2.0 + 3.0j)

    @seed(20261021)
    @settings(max_examples=50, deadline=None)
    @given(coeffs=coefficient_lists(min_size=4, max_size=6))
    def test_degree_above_two_rejected(self, coeffs):
        for build in (lambda: make_poly_symbol_seq(coeffs),
                      lambda: perturbed_heat_seq(coeffs), lambda: poly_sup_re(coeffs)):
            with pytest.raises(UnsupportedFamilyError, match="degree <= 2"):
                build()

    def test_sup_re_closed_form(self):
        # alpha_0 + beta_1^2 / (4 alpha_2) for positive alpha_2
        assert poly_sup_re((1.0, 2.0j, 0.5)) == pytest.approx(1.0 + 4.0 / 2.0)
        assert poly_sup_re((0.0, 0.0, 1.0)) == 0.0
        assert poly_sup_re((0.5, 0.0, 0.0)) == 0.5
        assert poly_sup_re((0.0, 1.0j, 0.0)) == np.inf


class TestPolyCoefficientTable:
    """One padded coefficient table: the symbol, its sup Re and the 1/n drift."""

    @seed(20261018)
    @settings(max_examples=100, deadline=None)
    @given(coeffs=coefficient_lists())
    def test_symbol_is_coefficient_sum(self, coeffs):
        s = make_poly_symbol_seq(coeffs)
        z = TWO_PI * 1j * XI[:, 0]
        expected = sum(c * z**j for j, c in enumerate(coeffs))
        scale = sum(abs(c) * np.abs(z) ** j for j, c in enumerate(coeffs))
        assert np.all(np.abs(s(3, XI) - expected) <= 1e-14 * (1.0 + scale))

    @seed(20261026)
    @settings(max_examples=100, deadline=None)
    @given(coeffs=coefficient_lists(min_size=3))
    def test_one_dimensional_symbol_is_bitwise_the_written_out_sum(self, coeffs):
        # every 1-D output rests on this order of operations, bit for bit
        c0, c1, c2 = coeffs
        z = TWO_PI * 1j * XI[:, 0]
        got = make_poly_symbol_seq(coeffs)(3, XI)
        assert got.tobytes() == (c0 + c1 * z + c2 * z * z).tobytes()

    @seed(20261019)
    @settings(max_examples=50, deadline=None)
    @given(c0=COEFFICIENTS, c1_re=st.floats(-10.0, 10.0),
           b1=st.floats(-5.0, 5.0), a2=st.floats(0.05, 5.0), b2=st.floats(-10.0, 10.0))
    def test_sup_re_is_float_grid_maximum(self, c0, c1_re, b1, a2, b2):
        # with these ranges the vertex xi = -b1 / (4 pi a2) lies inside |xi| <= 8
        coeffs = (c0, complex(c1_re, b1), complex(a2, b2))
        sup = poly_sup_re(coeffs)
        assert type(sup) is float
        xi = np.linspace(-10.0, 10.0, 200_001)
        h = xi[1] - xi[0]
        grid_max = float(np.max(make_poly_symbol_seq(coeffs)(1, xi[:, None]).real))
        # a sample lies within h/2 of the vertex of a parabola of curvature 4 pi^2 a2
        assert -1e-11 <= sup - grid_max <= a2 * (np.pi * h) ** 2 + 1e-11

    @seed(20261020)
    @settings(max_examples=100, deadline=None)
    @given(coeffs=coefficient_lists(), n=st.integers(1, 200))
    def test_drift_family_bitwise_equal_to_written_out_rule(self, coeffs, n):
        c0, c1, c2 = list(coeffs) + [0j] * (3 - len(coeffs))
        z = TWO_PI * 1j * XI[:, 0]
        written = (c0 + 1.0 / n) + c1 * z + (c2 + 1.0 / n) * z * z
        assert perturbed_heat_seq(coeffs)(n, XI).tobytes() == written.tobytes()
        # the closed-form sup over n >= 1: the larger of the ends n = 1 and n -> infinity
        assert perturbed_heat_seq(coeffs).re_bound == max(
            poly_sup_re((c0 + 1.0, c1, c2 + 1.0)), poly_sup_re(coeffs))

    def test_drift_re_bound_is_the_sup_over_every_index(self):
        # Im c_1 != 0: sup Re a_n = 1/n + 0.25 / (4 (0.025 + 1/n)) grows to 2.5 as n -> infinity,
        # past every probe index (1.913 at n = 128, 2.407 at n = 1024)
        coeffs = (0.0, 0.5j, 0.025)
        drifted = perturbed_heat_seq(coeffs)
        sups = [poly_sup_re((1.0 / n, 0.5j, 0.025 + 1.0 / n)) for n in 2 ** np.arange(31)]
        assert sups[7] == pytest.approx(1.913, abs=1e-3)
        assert sups[10] == pytest.approx(2.407, abs=1e-3)
        assert drifted.re_bound == poly_sup_re(coeffs) == pytest.approx(2.5)
        assert max(sups) <= drifted.re_bound
        # Im c_1 = 0: the sup sits at n = 1, c_0 + 1
        assert perturbed_heat_seq((-0.1, 0.3, 0.025)).re_bound == -0.1 + 1.0


class TestFractionalFamilies:
    def test_direct_substitution(self):
        s = make_fractional_symbol_seq("constant", m=2.0)
        assert s(5, xi_col(3.0))[0] == pytest.approx(9.0j)

    def test_real_part_identically_zero(self):
        s = make_fractional_symbol_seq("one-plus-inverse", m=2.0)
        xi = xi_col(*np.linspace(-8, 8, 101))
        for n in (1, 3, 17):
            assert np.all(s(n, xi).real == 0.0)
            assert s(n, xi).tobytes() == (1j * (1.0 + 1.0 / n) * np.abs(xi[:, 0]) ** 2.0).tobytes()
        assert s.re_bound == 0.0

    def test_unbounded_coefficients_rejected(self):
        # only the monotone rates of RATES are families: a growing rate is not among them
        with pytest.raises(HypothesisViolationError, match="'fractional': rate 'linear'"):
            make_fractional_symbol_seq("linear", m=1.0)


class TestSymbolClassCheck:
    """Symbol values outside every symbol class: non-finite ones raise."""

    def test_non_finite_symbol_reported(self):
        s = make_poly_symbol_seq((np.nan,), name="bad")
        with pytest.raises(SymbolEvaluationError, match="bad"):
            s.on_grid(1, Grid(1, 4.0, 64))

    def test_non_finite_constant_names_n_and_no_frequency(self):
        s = constant_symbol_seq(np.nan, "B")
        with pytest.raises(SymbolEvaluationError, match=r"^symbol 'B' is non-finite at n=3$"):
            s.on_grid(3, Grid(1, 4.0, 64))


def test_constant_family_re_bound_is_the_closed_form():
    # Re c(n) = 1/n - 2 peaks at the first index, n = 1
    assert constant_symbol_seq(-2.0 + 5j, "C", "inverse").re_bound == -1.0


class TestRatesAndClosedForm:
    """a_n = p + r(n) q at a monotone rate: re_bound = max(g(r(n_min)), g(r_inf))."""

    @pytest.mark.parametrize("rate", sorted(RATES))
    def test_every_rate_is_monotone_from_its_first_index(self, rate):
        limit, scale = RATES[rate]
        n_min = 2 if rate == "inverse-log" else 1
        r = [limit + 1.0 / scale(n) for n in range(n_min, 1025)]
        assert all(a >= b >= limit for a, b in zip(r, r[1:]))

    @seed(20261022)
    @settings(max_examples=60, deadline=None)
    @given(c0=COEFFICIENTS, c1=COEFFICIENTS, a2=st.floats(0.005, 0.5), b2=st.floats(-1.0, 1.0),
           drift=coefficient_lists(min_size=3, max_size=3), rate=st.sampled_from(sorted(RATES)),
           n_min=st.integers(2, 6))
    def test_re_bound_is_the_closed_form_and_bounds_every_index(self, c0, c1, a2, b2, drift,
                                                                rate, n_min):
        # Re q_2 >= 0 keeps Re c_2(n) > 0 for every n, so the sup over xi is finite
        q = (drift[0], drift[1], complex(abs(drift[2].real), drift[2].imag))
        s = SymbolSeq("poly", (c0, c1, complex(a2, b2)), q, rate, n_min)
        limit, scale = RATES[rate]

        def g(r):
            return poly_sup_re([p + r * qj for p, qj in zip(s.p, s.q)])
        assert s.re_bound == max(g(limit + 1.0 / scale(n_min)), g(limit))
        xi = np.linspace(-40.0, 40.0, 4001)[:, None]
        grid_max = max(float(np.max(s(n, xi).real)) for n in range(n_min, 1025))
        assert grid_max <= s.re_bound + 1e-9 * (1.0 + abs(s.re_bound))

    def test_found_cases(self):
        # 1 - 1/n and 0.5 - 1/n approach their sups 1 and 0.5 as n -> infinity
        assert make_poly_symbol_seq((1.0,), drift=(-1.0,), rate="inverse").re_bound == 1.0
        assert constant_symbol_seq(0.5, "B", "inverse").re_bound == 1.5
        assert SymbolSeq("constant", (0.5,), (-1.0,), "inverse").re_bound == 0.5

    def test_bounded_shifts_divide_by_the_scale(self):
        # r(n) e^(-|xi|^2) with its 1/scale(n) part as a division, not a product with 1/scale
        xi = XI[:, 0]
        for rate, scale in (("inverse", 7), ("inverse-sqrt", np.sqrt(7)),
                            ("inverse-square", 49), ("inverse-log", np.log(7))):
            got = SymbolSeq("gaussian", rate=rate, n_min=2)(7, XI)
            assert got.tobytes() == (np.exp(-xi * xi) / scale).astype(complex).tobytes()

    def test_a_rate_undefined_at_the_first_index_is_refused(self):
        with pytest.raises(HypothesisViolationError, match="family 'b/log': rate 'inverse-log'"):
            SymbolSeq("gaussian", rate="inverse-log", name="b/log")
        with pytest.raises(HypothesisViolationError, match="'p': rate 'inverse' .* n >= 0"):
            SymbolSeq("poly", rate="inverse", n_min=0, name="p")

    def test_an_index_below_the_first_is_refused_naming_family_and_n(self):
        s = SymbolSeq("gaussian", rate="inverse-log", n_min=4, name="b/log")
        assert s.re_bound == 1.0 / math.log(4)
        with pytest.raises(SymbolEvaluationError,
                           match=r"^symbol 'b/log' is defined for n >= 4, not at n=3$"):
            s.on_grid(3, Grid(1, 4.0, 64))

    def test_families_compare_and_hash_by_value(self):
        assert heat_symbol_seq() == heat_symbol_seq()
        assert hash(heat_symbol_seq()) == hash(heat_symbol_seq())
        assert perturbed_heat_seq() != heat_symbol_seq()
        # -0.0 == 0.0, but the two families need not give bitwise-equal values
        assert make_poly_symbol_seq((-0.0,)) != make_poly_symbol_seq((0.0,))
