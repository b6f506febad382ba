"""Integrated semigroup, resolvent, Laplace/Bromwich, and growth tests."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from semigrouplab.errors import OverflowGuardError, ResolventSingularityError
from semigrouplab.semigroup import (MultiplierOp, apply_resolvent, apply_S,
                                    bromwich_S, certify_growth,
                                    integrated_factor,
                                    laplace_identity_residual, multiplier_norms,
                                    phi, phi_at_times,
                                    pseudoresolvent_residual, resolvent_factor)
from semigrouplab.spectral import (Grid, GridFunction, inverse_transform,
                                   lp_norm)
from semigrouplab.quadrature import trapezoid_weights
from semigrouplab.symbols import (PolySymbolParams, perturbed_heat_seq,
                                  heat_symbol_seq, make_fractional_symbol_seq,
                                  make_poly_symbol_seq)


@pytest.fixture(scope="module")
def grid():
    return Grid(1, 8.0, 256)


@pytest.fixture(scope="module")
def gaussian(grid):
    return GridFunction.gaussian(grid)


@pytest.fixture(scope="module")
def heat():
    return heat_symbol_seq()


class TestPhi:
    def test_zero_symbol(self):
        assert phi(2.5, 0.0) == pytest.approx(2.5)

    def test_closed_form_against_midpoint_quadrature(self):
        # independent oracle: 10^6-panel midpoint rule for int_0^1 e^(-s) ds
        s_mid = (np.arange(1_000_000) + 0.5) / 1_000_000
        quad = np.mean(np.exp(-s_mid))
        assert quad == pytest.approx(0.6321205588, abs=1e-10)
        assert phi(1.0, -1.0) == pytest.approx(quad, abs=1e-10)

    def test_zero_time(self):
        for a in (0.0, -3.0 + 2.0j, 50.0j):
            assert phi(0.0, a) == 0.0

    def test_branch_agreement_at_threshold(self):
        # both evaluation branches match a long series reference near |ta| = 1e-6,
        # so the crossover introduces no jump above 1e-12
        def reference(t, a):
            acc, term = 0.0 + 0j, t
            for k in range(12):
                acc += term
                term *= t * a / (k + 2)
            return acc

        for a in (1e-6 - 1e-9, 1e-6 + 1e-9, (1e-6) * 1j, -1.5e-6, 2e-6 * (1 + 1j)):
            val = complex(phi(1.0, a))
            assert abs(val - reference(1.0, a)) < 1e-13

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            phi(-1.0, 0.0)

    def test_mixed_branches_match_scalar_calls(self):
        # Taylor (|ta| < 1e-6), sinh (|ta| < 1) and plain branches in one array;
        # at -0.6+0.2j and -0.05-0.0015j numpy's 0-d scalar arithmetic rounds
        # differently from its array loops, so a 0-d fast path would show here
        a = np.array([0.0, 3e-7j, -2e-7 + 1e-7j, 0.4 - 0.3j, -0.6 + 0.2j,
                      -0.05 - 0.0015j, 0.6j, -40.0 + 3.0j, 7.0, 25j])
        t = 1.3
        out = phi(t, a)
        assert out.shape == a.shape
        assert np.array_equal(out, np.array([complex(phi(t, x)) for x in a]))

    def test_phi_at_times_broadcast_shape(self):
        times = np.array([0.0, 1e-7, 0.5, 2.0])
        a = np.array([-4.0 + 1j, 2e-7, 0.3j])
        out = phi_at_times(times[:, None], a[None])
        assert out.shape == (4, 3)
        for i, t in enumerate(times):
            assert np.allclose(out[i], phi(t, a), rtol=1e-14, atol=0.0)

    def test_single_overflowing_entry_raises(self):
        with pytest.raises(OverflowGuardError):
            phi(1.0, np.array([-1.0, 0.5j, 800.0, 1e-8]))

    @settings(max_examples=200, deadline=None)
    @given(log_mag=st.floats(-9.0, 1.5), angle=st.floats(-np.pi, np.pi),
           t=st.floats(0.0, 4.0), s=st.floats(0.0, 4.0))
    def test_functional_equation(self, log_mag, angle, t, s):
        # phi(t + s, a) = phi(t, a) + e^(ta) phi(s, a); e^x carries the rounding
        # of its argument, so the bound grows with |(t + s) a|
        a = 10.0**log_mag * np.exp(1j * angle)
        first, growth, second = complex(phi(t, a)), np.exp(t * a), complex(phi(s, a))
        scale = abs(first) + abs(growth) * abs(second)
        defect = abs(complex(phi(t + s, a)) - first - growth * second)
        assert defect <= 4e-15 * (1.0 + abs((t + s) * a)) * scale


class TestApplyS:
    def test_time_zero_is_zero_operator(self, heat, gaussian):
        out = apply_S(heat, 1, 0.0, gaussian)
        assert lp_norm(out, 2) == 0.0

    def test_single_mode_rescaling(self, heat, grid):
        mode = GridFunction.fourier_mode(grid, 4)
        xi0 = 4 * grid.freq_spacing
        out = apply_S(heat, 1, 0.7, mode)
        expected = complex(phi(0.7, -xi0**2)) * mode.values
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_convolution_oracle(self):
        # S_n(t)u equals (F^-1 phi_t) * u computed by direct summation
        g = Grid(1, 4.0, 64)
        s = perturbed_heat_seq()
        x = g.coords()
        u = GridFunction(g, np.exp(-np.pi * x**2) * (1 + 0.3 * np.sin(np.pi * x / 4)))
        n, t = 3, 0.4
        direct = apply_S(s, n, t, u)
        kernel = inverse_transform(GridFunction(g, integrated_factor(s, n, t, g)))
        conv = np.zeros(64, dtype=complex)
        half = 32
        for j in range(64):
            acc = 0.0 + 0.0j
            for m in range(64):
                acc += kernel.values[m] * u.values[(j - m + half) % 64]
            conv[j] = acc * g.spacing
        assert lp_norm(direct - GridFunction(g, conv), 2) < 1e-9


@st.composite
def grid_fields(draw, grid, count):
    """``count`` complex fields on ``grid`` with magnitudes spanning 1e-8 to 1e8."""
    shape = (count,) + grid.shape
    log_mag = draw(arrays(np.float64, shape, elements=st.floats(-8.0, 8.0)))
    angle = draw(arrays(np.float64, shape, elements=st.floats(-np.pi, np.pi)))
    return 10.0 ** log_mag * np.exp(1j * angle)


class TestMultiplierNorms:
    @settings(max_examples=40, deadline=None)
    @given(grid=st.sampled_from([Grid(1, 4.0, 32), Grid(2, 3.0, 8)]),
           n_factors=st.integers(1, 3), zero_at=st.integers(0, 3), data=st.data())
    def test_equals_inverse_fft_norm(self, grid, n_factors, zero_at, data):
        factors = list(data.draw(grid_fields(grid, n_factors)))
        zero_at = min(zero_at, n_factors)
        factors.insert(zero_at, np.zeros(grid.shape, dtype=complex))
        us = [GridFunction(grid, v) for v in data.draw(grid_fields(grid, 2))]
        out = multiplier_norms(iter(factors), us)
        assert out.shape == (len(factors), len(us))
        assert np.all(out[zero_at] == 0.0)
        for i, d in enumerate(factors):
            for j, u in enumerate(us):
                ref = lp_norm(MultiplierOp(grid, d).apply(u), 2)
                assert out[i, j] == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_rejects_mismatched_shapes(self, grid, gaussian):
        with pytest.raises(ValueError, match="factor shape"):
            multiplier_norms([np.ones(7)], [gaussian])
        with pytest.raises(ValueError, match="different grids"):
            multiplier_norms([np.ones(grid.shape)],
                             [gaussian, GridFunction.gaussian(Grid(1, 4.0, 256))])


class TestResolvent:
    @settings(max_examples=100, deadline=None)
    @given(lam_re=st.floats(0.01, 100.0), lam_im=st.floats(-100.0, 100.0),
           mu_re=st.floats(0.01, 100.0), mu_im=st.floats(-100.0, 100.0))
    def test_pseudoresolvent_identity_per_mode(self, heat, grid, lam_re, lam_im,
                                               mu_re, mu_im):
        # R(lam) - R(mu) = (mu - lam) R(lam) R(mu), mode by mode
        lam, mu = complex(lam_re, lam_im), complex(mu_re, mu_im)
        rl = resolvent_factor(heat, 3, lam, grid)
        rm = resolvent_factor(heat, 3, mu, grid)
        defect = np.abs(rl - rm - (mu - lam) * rl * rm)
        scale = np.abs(rl) + np.abs(rm) + abs(mu - lam) * np.abs(rl * rm)
        assert np.all(defect <= 1e-15 * scale)

    def test_factor_on_single_mode(self, heat, grid):
        mode = GridFunction.fourier_mode(grid, 8)
        xi0 = 8 * grid.freq_spacing
        out = apply_resolvent(heat, 1, 1.0, mode)
        assert np.max(np.abs(out.values - mode.values / (1.0 + xi0**2))) < 1e-12

    def test_l2_operator_norm_is_inverse_lambda(self, heat, grid):
        for lam in (0.5, 2.0, 17.0):
            fac = resolvent_factor(heat, 1, lam, grid)
            assert np.max(np.abs(fac)) == pytest.approx(1.0 / lam, rel=1e-12)

    def test_exact_spectral_hit_raises(self, heat, grid, gaussian):
        xi_k = 16 * grid.freq_spacing
        with pytest.raises(ResolventSingularityError):
            apply_resolvent(heat, 1, -xi_k**2, gaussian)


class TestLaplaceIdentity:
    def test_heat_reference_lambda(self, heat, gaussian):
        res = laplace_identity_residual(heat, 1, 2.0, gaussian, T=20.0, panels=64)
        assert res < 1e-8

    def test_zero_input(self, heat, grid):
        res = laplace_identity_residual(heat, 1, 2.0, GridFunction.zero(grid),
                                        T=20.0, panels=64)
        assert res == 0.0

    def test_large_lambda(self, heat, gaussian):
        res = laplace_identity_residual(heat, 1, 1000.0, gaussian, T=0.04, panels=64)
        assert res < 1e-8

    def test_truncation_guard(self, heat, gaussian):
        with pytest.raises(ValueError, match="truncation"):
            laplace_identity_residual(heat, 1, 2.0, gaussian, T=1.0, panels=8)

    def test_quadrature_convergence_order(self, heat, gaussian):
        # composite Gauss-Legendre error drops at order >= 4 in the panel count
        errs = []
        for panels in (1, 2, 4):
            errs.append(laplace_identity_residual(heat, 1, 0.6, gaussian,
                                                  T=80.0, panels=panels))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert min(order1, order2) >= 4.0


class TestPseudoresolvent:
    def test_equal_arguments_exact_zero(self, heat, gaussian):
        assert pseudoresolvent_residual(heat, 1, 2.0, 2.0, gaussian) == 0.0

    def test_heat_random_input(self, heat, grid):
        rng = np.random.default_rng(7)
        u = GridFunction(grid, rng.standard_normal(256) + 1j * rng.standard_normal(256))
        assert pseudoresolvent_residual(heat, 1, 2.0, 5.0, u) < 1e-12

    def test_fractional_family(self, grid, gaussian):
        s = make_fractional_symbol_seq(lambda n: 1.0 + 1.0 / n, m=2.0, d=1)
        assert pseudoresolvent_residual(s, 2, 1.0 + 0.0j, 3.0, gaussian) < 1e-12


class TestBromwich:
    def test_matches_apply_S(self, heat, gaussian):
        direct = apply_S(heat, 1, 0.5, gaussian)
        [contour] = bromwich_S(heat, 1, [0.5], gaussian, alpha=2.0, r_max=200.0,
                               steps=20000)
        assert lp_norm(direct - contour, 2) < 1e-4

    def test_time_zero_within_truncation(self, heat, gaussian):
        [out] = bromwich_S(heat, 1, [0.0], gaussian, alpha=2.0, r_max=200.0, steps=20000)
        # truncation tail of the contour integral is O(1/(pi r_max))
        assert lp_norm(out, 2) < 5e-3

    def test_contour_must_clear_abscissa(self, heat, gaussian):
        with pytest.raises(ValueError):
            bromwich_S(heat, 1, [0.5], gaussian, alpha=-1.0, r_max=50.0, steps=1000)

    def test_all_times_match_per_time_sum(self, heat, grid, gaussian):
        # 8,001 nodes x 256 modes spans two blocks of the kernel
        times, alpha, r_max, steps = (0.0, 0.25, 1.0), 2.0, 50.0, 8000
        outs = bromwich_S(heat, 1, times, gaussian, alpha, r_max, steps)
        a = heat.on_grid(1, grid)
        r = np.linspace(-r_max, r_max, steps + 1)
        w = trapezoid_weights(steps + 1, r[1] - r[0])
        lam = alpha + 1j * r[:, None]
        assert len(outs) == len(times)
        for t, out in zip(times, outs):
            factor = np.sum(w[:, None] * np.exp(lam * t) / ((lam - a[None, :]) * lam),
                            axis=0) / (2.0 * np.pi)
            ref = GridFunction(grid, np.fft.ifft(factor * np.fft.fft(gaussian.values)))
            assert lp_norm(out - ref, 2) <= 1e-12 * lp_norm(ref, 2)

    def test_contour_through_spectrum_raises(self, heat, gaussian):
        # a(0) = 0 for heat and r = 0 is a node, so the gap is alpha < margin
        with pytest.raises(ResolventSingularityError):
            bromwich_S(heat, 1, [0.5], gaussian, alpha=5e-9, r_max=50.0, steps=1000)


class TestCommutation:
    def test_semigroup_commutes_with_resolvent(self, heat, grid, gaussian):
        s_op = MultiplierOp(grid, integrated_factor(heat, 1, 0.8, grid))
        r_op = MultiplierOp(grid, resolvent_factor(heat, 1, 3.0, grid))
        ab = s_op.apply(r_op.apply(gaussian))
        ba = r_op.apply(s_op.apply(gaussian))
        assert lp_norm(ab - ba, 2) < 1e-12


class TestGeneratorRelation:
    def test_time_derivative_richardson(self, heat):
        # d/dt phi(t, a) = a phi(t, a) + 1, checked at second order
        a = -2.3 + 1.1j
        t = 0.9
        exact = a * complex(phi(t, a)) + 1.0

        def fd(dt):
            return (complex(phi(t + dt, a)) - complex(phi(t - dt, a))) / (2 * dt)

        e1 = abs(fd(1e-3) - exact)
        e2 = abs(fd(5e-4) - exact)
        assert e1 / e2 == pytest.approx(4.0, rel=0.1)


class TestCertifyGrowth:
    def test_heat_bounds(self, heat, grid):
        lam_line = [1.5 + 1j * im for im in (0.0, 1.0, 5.0, 25.0)]
        cert = certify_growth(heat, [1, 2, 3, 4], omega=1.0, b=1.0,
                              lambda_samples=lam_line,
                              t_samples=list(np.logspace(-3, 2, 30)), grid=grid)
        for n in (1, 2, 3, 4):
            assert cert.resolvent_bounds[n] <= 2.0
            assert cert.semigroup_bounds[n] <= 1.0 + 1e-12

    def test_moderate_exponent_of_approaching_family(self, grid):
        # constants sigma_n = omega - 1/n approach the abscissa, so a sample
        # just right of omega sees the bound grow like n
        s = make_poly_symbol_seq(PolySymbolParams(
            rule=lambda n: (1.0 - 1.0 / n,), name="approaching"))
        cert = certify_growth(s, [4, 8, 16, 32, 64], omega=1.0, b=1.0,
                              lambda_samples=[1.001], t_samples=[1.0], grid=grid)
        assert cert.resolvent_fit.slope == pytest.approx(1.0, abs=0.1)

    def test_nan_bound_stays_nan(self, heat, grid):
        # t = 0.5, since 1.0 ** nan is 1.0
        cert = certify_growth(heat, [1], omega=1.0, b=float("nan"),
                              lambda_samples=[2.0], t_samples=[0.5], grid=grid)
        assert np.isnan(cert.resolvent_bounds[1])
        assert np.isnan(cert.semigroup_bounds[1])
        # a NaN after a finite sample is kept too
        cert = certify_growth(heat, [1], omega=1.0, b=1.0, lambda_samples=[2.0],
                              t_samples=[1.0, float("nan")], grid=grid)
        assert np.isfinite(cert.resolvent_bounds[1])
        assert np.isnan(cert.semigroup_bounds[1])

    def test_rejects_samples_left_of_omega(self, heat, grid):
        with pytest.raises(ValueError):
            certify_growth(heat, [1], omega=1.0, b=1.0,
                           lambda_samples=[0.5], t_samples=[1.0], grid=grid)
