"""Commuting bounded perturbation tests: the quadrature construction and claims."""
import dataclasses
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semigrouplab import semigroup
from semigrouplab.association import SUITE_T_SAMPLES, check_association
from semigrouplab.config import default_config, validate_config
from semigrouplab.errors import ConfigError, OverflowGuardError
from semigrouplab.perturbation import (perturbation_quadrature, perturbed_factor,
                                       perturbation_claims_suite)
from semigrouplab.quadrature import composite_gauss_points
from semigrouplab.semigroup import (TIME_INTEGRAL_LEVELS, TIME_INTEGRAL_PANELS, MultiplierOp,
                                   integrated_factor, phi, resolvent_factor, semigroup_level)
from semigrouplab.spectral import Grid, GridFunction, lp_norm
from semigrouplab.symbols import (SymbolSeq, constant_symbol_seq, heat_symbol_seq,
                                  make_poly_symbol_seq, perturbed_heat_seq, summed_symbol_seq)

HEAT_C2 = 1.0 / (4.0 * np.pi**2)


@pytest.fixture(scope="module")
def grid():
    return Grid(1, 4.0, 128)


@pytest.fixture(scope="module")
def heat():
    return heat_symbol_seq()


@pytest.fixture(scope="module")
def gaussian(grid):
    return GridFunction.gaussian(grid)


class TestPerturbedS:
    def test_zero_perturbation_reproduces_semigroup(self, heat, grid):
        out = perturbed_factor(heat, constant_symbol_seq(lambda n: 0.0, "B"), 1, [0.7], grid)[0]
        assert np.max(np.abs(out - integrated_factor(heat, 1, 0.7, grid))) < 1e-12

    def test_factor_matches_summed_symbol(self, heat, grid):
        # the central oracle: quadrature form equals phi(t, a + b) per mode
        B = constant_symbol_seq(lambda n: 0.4 - 0.9j, "B")
        summed = summed_symbol_seq(heat, B)
        for t in (0.2, 1.0, 3.0):
            quad = perturbed_factor(heat, B, 2, [t], grid)[0]
            closed = integrated_factor(summed, 2, t, grid)
            assert np.max(np.abs(quad - closed)) < 1e-10

    def test_imaginary_constant_magnitudes(self, heat, grid):
        kappa = 2.5
        B = constant_symbol_seq(lambda n: 1j * kappa, "B")
        a = heat.on_grid(1, grid)
        fac = perturbed_factor(heat, B, 1, [0.8], grid)[0]
        direct = phi(0.8, a + 1j * kappa)
        assert np.max(np.abs(np.abs(fac) - np.abs(direct))) < 1e-10

    def test_linearity_in_input(self, heat, grid):
        B = constant_symbol_seq(lambda n: 0.3j, "B")
        rng = np.random.default_rng(31)
        u = GridFunction(grid, rng.standard_normal(128))
        v = GridFunction(grid, rng.standard_normal(128))
        op = MultiplierOp(grid, perturbed_factor(heat, B, 1, [0.5], grid)[0])
        assert lp_norm(op.apply(u + v) - (op.apply(u) + op.apply(v)), 2) < 1e-12

    def test_laplace_identity_for_perturbed_family(self, heat, grid):
        # lambda int e^(-lambda t) S^B(t) dt = R(lambda, a + b) per mode
        B = constant_symbol_seq(lambda n: -0.5 + 0.7j, "B")
        summed = summed_symbol_seq(heat, B)
        lam, n = 2.0, 3
        pts, wts = composite_gauss_points(0.0, 40.0 / lam, 64)
        quad = np.zeros(grid.shape, dtype=complex)
        for p, w in zip(pts, wts):
            quad += w * np.exp(-lam * p) * integrated_factor(summed, n, p, grid)
        target = resolvent_factor(summed.on_grid(n, grid), lam, grid, n)
        assert np.max(np.abs(lam * quad - target)) < 1e-8


def plain_quadrature(t, a, b):
    """The 768-node composite rule on scalars, every node evaluated directly.

    Returns the value and the sum of the magnitudes of its terms; the terms
    cancel down to phi(t, a + b), so rounding is relative to that sum.
    """
    pts, wts = composite_gauss_points(0.0, t, TIME_INTEGRAL_PANELS)
    terms = wts * np.exp(pts * b) * phi(pts, a)
    first = np.exp(t * b) * phi(t, a)
    return first - b * np.sum(terms), abs(first) + abs(b) * np.sum(np.abs(terms))


TIMES = st.floats(0.0, 5.0)


@st.composite
def oracle_triples(draw, times=TIMES):
    # |a|, |b| <= 100 and Re a t <= 5; Re b <= 0 as in the verify suite, since
    # for Re b t >> 1 the two terms of the quadrature form cancel and neither
    # evaluation keeps digits relative to phi(t, a + b)
    t = draw(times)
    a = draw(st.floats(0.0, 100.0)) * np.exp(1j * draw(st.floats(-np.pi, np.pi)))
    if t > 0:
        a = complex(min(a.real, 5.0 / t), a.imag)
    b = draw(st.floats(0.0, 100.0)) * np.exp(1j * draw(st.floats(0.5 * np.pi, 1.5 * np.pi)))
    return t, a, b


class TestPerturbationQuadrature:
    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from([(), (3,), (2, 3)]), shared_t=st.booleans(),
           data=st.data())
    def test_matches_plain_quadrature(self, shape, shared_t, data):
        size = int(np.prod(shape))
        # a shared t is one scalar time against mode arrays, as in perturbed_factor
        times = st.just(data.draw(TIMES)) if shared_t else TIMES
        triples = data.draw(st.lists(oracle_triples(times), min_size=size, max_size=size))
        t, a, b = (np.array(col).reshape(shape) for col in zip(*triples))
        if shared_t:
            t = float(t.flat[0])
        out = perturbation_quadrature(t, a, b)
        assert out.shape == shape
        for idx in np.ndindex(shape):
            ti = float(np.broadcast_to(t, shape)[idx])
            ref, magnitude = plain_quadrature(ti, a[idx], b[idx])
            assert abs(complex(out[idx]) - complex(ref)) <= 1e-13 * max(1.0, magnitude)

    def test_overflow_raises_and_never_returns_inf(self, heat, grid):
        # the Re(a+b) t guard
        with pytest.raises(OverflowGuardError):
            perturbed_factor(heat, constant_symbol_seq(lambda n: 800.0, "B"), 1, [1.0], grid)

        def constant_family(c0):
            return make_poly_symbol_seq(lambda n: (c0, 0.0, 0.0))

        # past the guard: Re a t > 709 overflows phi(t, a)
        with pytest.raises(OverflowGuardError):
            perturbed_factor(constant_family(720.0), constant_symbol_seq(lambda n: -30.0, "B"),
                             1, [1.0], grid)
        # past the guard: e^(s b) phi(s, 0) = e^700 s overflows at s near t = 1e6
        cases = [(constant_family(0.0), 0.0007, 1e6)]
        cases += [(constant_family(c0), b, 1.0) for c0 in (690.0, 705.0, 709.0, 712.0)
                  for b in (-60.0, -30.0 + 2j, -5.0, 0.0)]
        for s, b, t in cases:
            try:
                out = perturbed_factor(s, constant_symbol_seq(lambda n: b, "B"), 1, [t], grid)
            except OverflowGuardError:
                continue
            assert np.all(np.isfinite(out))

    def test_times_rows_match_kernel(self, heat, grid):
        B = constant_symbol_seq(lambda n: -0.3 + 1.7j, "B")
        times = [0.3, 1.1, 2.0, 0.7]
        out = perturbed_factor(heat, B, 2, times, grid)
        a, b = heat.on_grid(2, grid), B.on_grid(2, grid)
        assert np.array_equal(out, np.stack([perturbation_quadrature(t, a, b) for t in times]))

    def test_zero_time_among_nonzero_times_is_a_zero_row(self, heat, grid):
        out = perturbed_factor(heat, constant_symbol_seq(lambda n: 0.4 - 0.9j, "B"), 2,
                               [0.5, 0.0, 1.5], grid)
        assert out.shape == (3,) + grid.shape
        assert not np.any(out[1])
        assert np.all(out[[0, 2]] != 0)

    def test_guard_checks_the_largest_time(self, heat, grid):
        # sup Re(a + b) = 400: only t = 2 passes Re(a+b) t = 700
        B = constant_symbol_seq(lambda n: 400.0, "B")
        assert np.all(np.isfinite(perturbed_factor(heat, B, 1, [0.5, 1.0], grid)))
        with pytest.raises(OverflowGuardError):
            perturbed_factor(heat, B, 1, [0.5, 2.0, 1.0], grid)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_zeros_at_time_zero(self, heat, dimension):
        g = Grid(dimension, 4.0, 16)
        out = perturbed_factor(heat, constant_symbol_seq(lambda n: 0.4 - 0.9j, "B"), 2, [0.0], g)[0]
        assert out.shape == g.shape and out.dtype == complex
        assert not np.any(out)


class TestMultiplierShapes:
    def test_constant_families_stay_scalar(self, grid):
        B = constant_symbol_seq(lambda n: 0.4 - 0.9j, "B")
        C = constant_symbol_seq(lambda n: 1.0 / n, "C")
        for seq in (B, C, summed_symbol_seq(B, C)):
            assert seq.on_grid(2, grid).shape == seq.on_grid(2, Grid(2, 4.0, 16)).shape == ()
        assert summed_symbol_seq(B, C).on_grid(2, grid) == 0.9 - 0.9j

    @pytest.mark.parametrize("shape", [(5,), (2, 128), (128, 1)])
    def test_a_shape_that_does_not_broadcast_raises(self, grid, shape):
        bad = SymbolSeq(eval=lambda n, v: np.ones(shape), re_bound=1.0, name="bad")
        message = f"shape {shape} do not broadcast against grid shape (128,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            bad.on_grid(1, grid)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_xi_dependent_perturbation_matches_plain_quadrature(self, heat, dimension):
        g = Grid(dimension, 3.0, 16)
        B = SymbolSeq(
            eval=lambda n, v: 0.3j * np.cos(v[..., 0]) + 0.1 * np.sin(v[..., -1]) - 0.2,
            re_bound=-0.1, name="xi")
        times = [0.4, 1.3]
        out = perturbed_factor(heat, B, 2, times, g)
        a, b = heat.on_grid(2, g), B.on_grid(2, g)
        assert b.shape == g.shape and np.ptp(b.imag) > 0.1
        for row, t in zip(out, times):
            for idx in np.ndindex(g.shape):
                ref, magnitude = plain_quadrature(t, a[idx], b[idx])
                assert abs(complex(row[idx]) - complex(ref)) <= 1e-13 * max(1.0, magnitude)

    def test_constant_perturbation_takes_one_exp_per_level(self, heat, grid, monkeypatch):
        # time_integral's own exp calls: e^(s b) on the levels only, and no second
        # e^(s a) at the starts, whose values come from the phi block
        entries = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def exp(x, *args, **kwargs):
                if sys._getframe(1).f_code.co_name == "time_integral":
                    entries.append(np.size(x))
                return np.exp(x, *args, **kwargs)

        monkeypatch.setattr(semigroup, "np", CountingNumpy())
        times = [0.3, 1.1, 2.0]
        perturbed_factor(heat, constant_symbol_seq(lambda n: 0.4 - 0.9j, "B"), 2, times, grid)
        assert grid.shape == (128,)
        assert entries == [TIME_INTEGRAL_LEVELS] * len(times)


class TestProposition49Suite:
    def test_vanishing_inverse_rate(self, heat, grid):
        B = constant_symbol_seq(lambda n: 0.5j, "B")
        C = constant_symbol_seq(lambda n: 1.0 / n, "C")
        rep = perturbation_claims_suite(heat, perturbed_heat_seq(), B, C,
                                    grid, [4, 8, 16, 32, 64], omega=1.5)
        assert rep.verdicts["perturbed-pair"] == "associated"
        assert rep.pair_association.slope == pytest.approx(-1.0, abs=0.1)
        assert rep.verdicts["base-weighted"] == "associated"
        assert rep.verdicts["transported"] == "associated"
        assert rep.verdicts["growth-moderate"]

    def test_zero_c_sequence_gives_identical_pairs(self, heat, grid):
        B = constant_symbol_seq(lambda n: 0.5j, "B")
        C = constant_symbol_seq(lambda n: 0.0, "0")
        rep = perturbation_claims_suite(heat, heat, B, C, grid, [4, 8, 16, 32],
                                    omega=1.5)
        assert max(rep.pair_association.norms) == 0.0

    def test_identical_base_families_transport_trivially(self, heat, grid):
        B = constant_symbol_seq(lambda n: 0.25j, "B")
        C = constant_symbol_seq(lambda n: 1.0 / n, "C")
        rep = perturbation_claims_suite(heat, heat, B, C, grid, [4, 8, 16, 32],
                                    omega=1.5)
        assert max(rep.transported_association.norms) == 0.0
        assert rep.verdicts["transported"] == "associated"

    def test_claim_norms_match_quadrature_factors(self, heat, grid, gaussian):
        # the suite works in closed form; the quadrature factors are the oracle
        B = constant_symbol_seq(lambda n: 0.5j, "B")
        C = constant_symbol_seq(lambda n: 1.0 / n, "C")
        drifted = perturbed_heat_seq()
        n_list, ts, omega = [4, 8, 16, 32], SUITE_T_SAMPLES, 1.5
        rep = perturbation_claims_suite(heat, drifted, B, C, grid, n_list, omega=omega)

        def quadrature_norms(s_other, B_other):
            norms = []
            for n in n_list:
                diffs = (perturbed_factor(heat, B, n, ts, grid)
                         - perturbed_factor(s_other, B_other, n, ts, grid))
                weighted = [np.exp(-omega * t) * lp_norm(MultiplierOp(grid, d).apply(gaussian), 2)
                            for t, d in zip(ts, diffs)]
                norms.append(max(weighted))
            return norms

        assert rep.pair_association.norms == pytest.approx(
            quadrature_norms(heat, summed_symbol_seq(B, C)), rel=1e-10)
        assert rep.transported_association.norms == pytest.approx(
            quadrature_norms(drifted, B), rel=1e-10)

    def test_non_vanishing_c_rejected(self, heat, grid):
        B = constant_symbol_seq(lambda n: 0.5j, "B")
        C = constant_symbol_seq(lambda n: 1.0, "const")
        with pytest.raises(ValueError, match="vanish"):
            perturbation_claims_suite(heat, heat, B, C, grid, [4, 8, 16, 32], omega=1.5)


def drift_report(f, n_list):
    """The constant-coefficient example as `associate` runs it: c_0 and c_2 perturbed by
    1/n, sup over 50 times in (0, 5] at omega = 0."""
    coeffs = (0.0, 0.0, HEAT_C2)
    level = semigroup_level(0.0, np.linspace(0, 5.0, 51)[1:], f.grid)
    return check_association(perturbed_heat_seq(coeffs), make_poly_symbol_seq(lambda n: coeffs),
                             {"drift": level}, [lambda n: f], f.grid, n_list)["drift"]


class TestClosingExample:
    def test_heat_coefficients_associated_with_unit_slope(self, grid):
        rep = drift_report(GridFunction.gaussian(grid, width=1.8), [4, 8, 16, 32, 64])
        assert rep.verdict == "associated"
        assert rep.slope == pytest.approx(-1.0, abs=0.1)

    def test_tail_norm_drops_by_at_least_eight(self, grid):
        rep = drift_report(GridFunction.gaussian(grid), [4, 8, 16, 32, 64])
        assert rep.norms[0] / rep.norms[-1] >= 8.0

    def test_zero_data_gives_zero_norms(self, grid):
        rep = drift_report(GridFunction.zero(grid), [4, 8, 16, 32])
        assert max(rep.norms) == 0.0
        assert rep.verdict == "associated"

    def test_unstable_coefficients_rejected(self):
        # Re a(xi) unbounded above: the config is refused before any association runs
        cfg = dataclasses.replace(default_config("associate"), coeffs=(0.0, 0.0, -1.0))
        with pytest.raises(ConfigError, match="coeffs"):
            validate_config(cfg)
