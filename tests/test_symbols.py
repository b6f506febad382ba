"""Symbol family constructors, their closed-form sup Re, and non-finite values."""
import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from semigrouplab.errors import (HypothesisViolationError,
                                 SymbolEvaluationError, UnsupportedFamilyError)
from semigrouplab.spectral import Grid
from semigrouplab.symbols import (SymbolSeq, constant_symbol_seq, perturbed_heat_seq,
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

    def test_constant_term_at_zero_frequency(self):
        s = make_poly_symbol_seq(lambda n: (2.0 + 3.0j, 1.0, 0.5))
        assert s(7, xi_col(0.0))[0] == pytest.approx(2.0 + 3.0j)

    @seed(20261021)
    @settings(max_examples=50, deadline=None)
    @given(coeffs=coefficient_lists(min_size=4, max_size=6))
    def test_degree_above_two_rejected(self, coeffs):
        for build in (lambda: make_poly_symbol_seq(lambda n: coeffs),
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
        s = make_poly_symbol_seq(lambda n: coeffs)
        z = TWO_PI * 1j * XI[:, 0]
        expected = sum(c * z**j for j, c in enumerate(coeffs))
        scale = sum(abs(c) * np.abs(z) ** j for j, c in enumerate(coeffs))
        assert np.all(np.abs(s(3, XI) - expected) <= 1e-14 * (1.0 + scale))

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
        grid_max = float(np.max(make_poly_symbol_seq(lambda n: coeffs)(1, xi[:, None]).real))
        # a sample lies within h/2 of the vertex of a parabola of curvature 4 pi^2 a2
        assert -1e-11 <= sup - grid_max <= a2 * (np.pi * h) ** 2 + 1e-11

    @seed(20261020)
    @settings(max_examples=100, deadline=None)
    @given(coeffs=coefficient_lists(), n=st.integers(1, 200))
    def test_drift_family_bitwise_equal_to_written_out_rule(self, coeffs, n):
        c0, c1, c2 = list(coeffs) + [0j] * (3 - len(coeffs))
        drifted = perturbed_heat_seq(coeffs)
        written = make_poly_symbol_seq(lambda m: (c0 + 1.0 / m, c1, c2 + 1.0 / m))
        assert np.array_equal(drifted(n, XI), written(n, XI))
        assert drifted.re_bound == written.re_bound


class TestFractionalFamilies:
    def test_direct_substitution(self):
        s = make_fractional_symbol_seq(lambda n: 1.0, m=2.0, bound=2.0)
        assert s(5, xi_col(3.0))[0] == pytest.approx(9.0j)

    def test_real_part_identically_zero(self):
        s = make_fractional_symbol_seq(lambda n: 1.0 + 1.0 / n, m=2.0, bound=2.0)
        xi = xi_col(*np.linspace(-8, 8, 101))
        for n in (1, 3, 17):
            assert np.all(s(n, xi).real == 0.0)
        assert s.re_bound == 0.0

    def test_unbounded_coefficients_rejected(self):
        with pytest.raises(HypothesisViolationError):
            make_fractional_symbol_seq(lambda n: 1.0 + 0.1 * n, m=1.0, bound=2.0)


class TestSymbolClassCheck:
    """Symbol values outside every symbol class: non-finite ones raise."""

    def test_non_finite_symbol_reported(self):
        def bad(n, v):
            out = np.full(v.shape[:-1], np.nan, dtype=complex)
            return out
        s = SymbolSeq(eval=bad, re_bound=0, name="bad")
        with pytest.raises(SymbolEvaluationError, match="bad"):
            s.on_grid(1, Grid(1, 4.0, 64))

    def test_non_finite_constant_names_n_and_no_frequency(self):
        s = SymbolSeq(eval=lambda n, v: np.asarray(np.nan), re_bound=0, name="B")
        with pytest.raises(SymbolEvaluationError, match=r"^symbol 'B' is non-finite at n=3$"):
            s.on_grid(3, Grid(1, 4.0, 64))


def test_constant_family_re_bound_is_the_probed_max():
    # Re c(n) = 1/n - 2 peaks at the first probe index, n = 1
    assert constant_symbol_seq(lambda n: 1.0 / n - 2.0 + 5j, "C").re_bound == -1.0

