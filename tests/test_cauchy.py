"""Mild solutions, integral-equation residuals, pairings, weak limits."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semigrouplab.cauchy import (ForcingSeq, SpaceTimeTestFunction, _phi_k,
                                 bump_test_function, duhamel_solve,
                                 integral_equation_residual, solve_sequence,
                                 very_weak_pairing, weak_limit_extract)
from semigrouplab.errors import OverflowGuardError, SpaceTimeSupportError
from semigrouplab.quadrature import trapezoid_weights
from semigrouplab.semigroup import MultiplierOp, phi
from semigrouplab.spectral import (DistributionRep, Grid, GridFunction,
                                   lp_norm, mollify, standard_bump, transform)
from semigrouplab.symbols import heat_symbol_seq, make_poly_symbol_seq


def tgrid(t_end, dt):
    return np.arange(0.0, t_end + 0.5 * dt, dt)


@pytest.fixture(scope="module")
def heat():
    return heat_symbol_seq()


@pytest.fixture(scope="module")
def grid():
    return Grid(1, 8.0, 512)


class TestPhiK:
    def test_accuracy_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2010)
        mag = 10.0 ** rng.uniform(-8.0, math.log10(300.0), 4000)
        z = mag * np.exp(1j * rng.uniform(-np.pi, np.pi, 4000))

        def reference(x, k):
            x = mpmath.mpc(x.real, x.imag)
            head = sum(x**j / mpmath.factorial(j) for j in range(k))
            return complex((mpmath.exp(x) - head) / x**k)

        # 60 digits leave 36 after the cancellation of k = 3 at |z| = 1e-8
        with mpmath.workdps(60):
            for k, limit in ((1, 1e-15), (2, 1e-15), (3, 2e-15)):
                ref = np.array([reference(x, k) for x in z])
                err = np.abs(_phi_k(z, k) - ref) / np.abs(ref)
                assert err.max() <= limit, (k, err.max(), abs(z[np.argmax(err)]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_overflow_raises_guard(self, k):
        with pytest.raises(OverflowGuardError):
            _phi_k(800.0 + 0j, k)

    @settings(max_examples=200, deadline=None)
    @given(r=st.floats(1.5, 2.5), angle=st.floats(-np.pi, np.pi), k=st.sampled_from([1, 2]))
    def test_recurrence_across_series_edge(self, r, angle, k):
        # phi_k(z) = 1/k! + z phi_(k+1)(z); phi_(k+1) switches branch at |z| = 2
        z = np.array([r * np.exp(1j * angle)])
        lhs = _phi_k(z, k)
        rhs = 1.0 / math.factorial(k) + z * _phi_k(z, k + 1)
        assert abs(lhs - rhs)[0] <= 1e-15 * (abs(lhs)[0] + 1.0 / math.factorial(k))


class TestDuhamelSolve:
    def test_heat_gaussian_closed_form(self, heat, grid):
        # free evolution of exp(-pi x^2) widens to
        # sqrt(pi/(pi+t)) exp(-pi^2 x^2/(pi+t))
        u0 = GridFunction.gaussian(grid)
        sol = duhamel_solve(heat, 1, u0, ForcingSeq.zero(grid), tgrid(1.0, 1 / 64))
        x = grid.axis_points()
        for t in (0.25, 0.5, 1.0):
            exact = np.sqrt(np.pi / (np.pi + t)) * np.exp(-np.pi**2 * x**2 / (np.pi + t))
            assert lp_norm(sol.w(1, t) - GridFunction(grid, exact), 2) < 1e-6

    def test_initial_values(self, heat, grid):
        u0 = GridFunction.gaussian(grid)
        sol = duhamel_solve(heat, 1, u0, ForcingSeq.zero(grid), tgrid(0.5, 1 / 32))
        assert lp_norm(sol.w(1, 0.0) - u0, 2) < 1e-10

    def test_constant_forcing_zero_mode(self, grid):
        # zero symbol: w_hat = f t per mode
        zero_sym = make_poly_symbol_seq(lambda n: (0.0,))
        shape = GridFunction.gaussian(grid)
        forcing = ForcingSeq(np.ones_like, lambda n: shape)
        sol = duhamel_solve(zero_sym, 1, GridFunction.zero(grid), forcing,
                            tgrid(1.0, 1 / 32))
        assert lp_norm(sol.w(1, 1.0) - shape, 2) < 1e-12

    def test_forced_solution_against_quadrature_oracle(self, heat, grid):
        # piecewise-linear forcing interpolation converges at second order
        forcing = ForcingSeq(np.cos, lambda n: GridFunction.gaussian(grid))
        u0 = GridFunction.gaussian(grid)
        t_star = 1.0
        a = heat.on_grid(1, grid)
        u0h = transform(u0).values
        fh = transform(GridFunction.gaussian(grid)).values
        # dense-quadrature oracle for w_hat(t*) = e^(t a) u0 + int e^((t-r)a) cos r f dr
        r_nodes = np.linspace(0.0, t_star, 4001)
        wq = trapezoid_weights(len(r_nodes), r_nodes[1] - r_nodes[0])
        duh = np.zeros_like(a, dtype=complex)
        for r, w in zip(r_nodes, wq):
            duh += w * np.exp((t_star - r) * a) * math.cos(r) * fh
        oracle = np.exp(t_star * a) * u0h + duh
        errs = []
        for dt in (1 / 64, 1 / 128):
            sol = duhamel_solve(heat, 1, u0, forcing, tgrid(t_star, dt))
            what = transform(sol.w(1, t_star)).values
            errs.append(float(np.max(np.abs(what - oracle))))
        assert errs[0] < 1e-4
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_forcing_is_transformed_once_per_index(self, heat, grid, monkeypatch):
        # a separable forcing costs one shape and one FFT per n, not one per time node
        shapes, ffts = [], []

        def shape(n):
            shapes.append(n)
            return GridFunction.gaussian(grid)

        fftn = np.fft.fftn

        def counted_fftn(*args, **kwargs):
            ffts.append(1)
            return fftn(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fftn", counted_fftn)
        duhamel_solve(heat, 3, GridFunction.gaussian(grid), ForcingSeq(np.cos, shape),
                      tgrid(1.0, 1 / 64))
        assert len(ffts) == 2  # u_0 and the forcing shape
        assert shapes == [3]

    def test_free_evolution_is_the_multiplier_on_any_spacing(self):
        # h = 6/64 is no power of two, so the transform's h and (-1)^k would not cancel
        # exactly: the solve uses plain FFT coefficients, as MultiplierOp.apply does
        g = Grid(1, 3.0, 64)
        s = make_poly_symbol_seq(lambda n: (-0.1, 0.3 + 0.2j, 1.0 / (4 * np.pi**2)))
        rng = np.random.default_rng(64)
        u0 = GridFunction(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        tg = tgrid(1.0, 1 / 16)
        sol = duhamel_solve(s, 2, u0, ForcingSeq.zero(g), tg)
        a = s.on_grid(2, g)
        for t in tg[1:]:
            ref = MultiplierOp(g, np.exp(t * a)).apply(u0)
            assert lp_norm(sol.w(2, t) - ref, 2) <= 1e-13 * lp_norm(ref, 2)

    def test_superposition(self, heat, grid):
        rng = np.random.default_rng(11)
        u1 = GridFunction(grid, rng.standard_normal(512))
        u2 = GridFunction(grid, rng.standard_normal(512))
        tg = tgrid(0.5, 1 / 32)
        z = ForcingSeq.zero(grid)
        w1 = duhamel_solve(heat, 1, u1, z, tg).w(1, 0.5)
        w2 = duhamel_solve(heat, 1, u2, z, tg).w(1, 0.5)
        w12 = duhamel_solve(heat, 1, u1 + u2, z, tg).w(1, 0.5)
        assert lp_norm(w12 - (w1 + w2), 2) < 1e-12 * max(1.0, lp_norm(w12, 2))

    def test_overflow_guard_names_growth_bound(self, grid):
        runaway = make_poly_symbol_seq(lambda n: (800.0,))
        with pytest.raises(OverflowGuardError, match="re_bound"):
            duhamel_solve(runaway, 1, GridFunction.gaussian(grid),
                          ForcingSeq.zero(grid), tgrid(1.0, 1 / 16))

    def test_nonuniform_grid_rejected(self, heat, grid):
        with pytest.raises(ValueError):
            duhamel_solve(heat, 1, GridFunction.gaussian(grid),
                          ForcingSeq.zero(grid), [0.0, 0.1, 0.3])


class TestIntegralEquationResidual:
    def test_zero_at_time_zero(self, heat, grid):
        u0 = GridFunction.gaussian(grid)
        f = ForcingSeq.zero(grid)
        sol = duhamel_solve(heat, 1, u0, f, tgrid(0.5, 1 / 64))
        assert integral_equation_residual(sol, heat, 1, f, 0.0) == 0.0

    def test_second_order_in_dt(self, heat, grid):
        u0 = GridFunction.gaussian(grid)
        f = ForcingSeq.zero(grid)
        res = []
        for dt in (1 / 128, 1 / 256):
            sol = duhamel_solve(heat, 1, u0, f, tgrid(0.5, dt))
            res.append(integral_equation_residual(sol, heat, 1, f, 0.5))
        assert res[0] < 1e-5
        assert res[0] / res[1] == pytest.approx(4.0, rel=0.15)

    def test_single_mode_matches_trapezoid_error_model(self, grid):
        # for one exponential mode the defect is exactly the trapezoid error
        # of int_0^t e^(r a) dr times |a|, so it shrinks at second order
        sym = make_poly_symbol_seq(lambda n: (-1.0,))
        u0 = GridFunction(grid, np.ones(grid.points))
        f = ForcingSeq.zero(grid)
        res = []
        for dt in (1 / 64, 1 / 128):
            sol = duhamel_solve(sym, 1, u0, f, tgrid(0.5, dt))
            res.append(integral_equation_residual(sol, sym, 1, f, 0.5))
        t, a = 0.5, -1.0
        dt = 1 / 64
        nodes = tgrid(t, dt)
        trap = np.sum(trapezoid_weights(len(nodes), dt) * np.exp(a * nodes))
        u0_norm = lp_norm(u0, 2)
        predicted = (abs(a) * abs(trap - complex(phi(t, a))) * u0_norm
                     / max(1.0, abs(np.exp(a * t)) * u0_norm))
        assert res[0] == pytest.approx(predicted, rel=1e-6)
        assert res[0] / res[1] == pytest.approx(4.0, rel=0.1)

    def test_off_grid_time_rejected(self, heat, grid):
        sol = duhamel_solve(heat, 1, GridFunction.gaussian(grid),
                            ForcingSeq.zero(grid), tgrid(0.5, 1 / 64))
        with pytest.raises(ValueError):
            integral_equation_residual(sol, heat, 1, ForcingSeq.zero(grid), 0.3333)


@pytest.fixture(scope="module")
def delta_solution(heat):
    g = Grid(1, 8.0, 2048)
    delta = DistributionRep.delta(g)
    return g, solve_sequence(heat, [4, 8, 16, 32],
                             lambda n: mollify(delta, n),
                             ForcingSeq.zero(g), tgrid(1.0, 1 / 128))


class TestVeryWeakPairing:
    def test_zero_test_function(self, heat, delta_solution):
        g, sol = delta_solution
        base = bump_test_function(g, 0.5, 0.3)
        zero_psi = SpaceTimeTestFunction(chi=base.chi, rho=GridFunction.zero(g),
                                         t_support=base.t_support)
        assert very_weak_pairing(sol, zero_psi, 4) == 0

    def test_converges_to_heat_kernel_oracle(self, delta_solution):
        # oracle: dense quadrature of chi(t) integral G_t rho dx with the
        # closed-form kernel G_t(x) = sqrt(pi/t) exp(-pi^2 x^2 / t)
        g, sol = delta_solution
        psi = bump_test_function(g, 0.5, 0.4, 0.0, 1.0)
        xf = np.linspace(-4.0, 4.0, 8001)
        rho_f = np.interp(xf, g.axis_points(), psi.rho.values.real)
        tg_ = sol.t_grid
        tw = trapezoid_weights(len(tg_), float(tg_[1] - tg_[0]))
        inner = np.zeros(len(tg_))
        for j, t in enumerate(tg_):
            if t == 0:
                continue
            kern = np.sqrt(np.pi / t) * np.exp(-np.pi**2 * xf**2 / t)
            inner[j] = np.trapezoid(kern * rho_f, xf)
        oracle = float(np.sum(tw * psi.chi(tg_) * inner))
        val = very_weak_pairing(sol, psi, 32)
        assert abs(val - oracle) < 1e-3

    def test_delta_prime_growth_exponent_reported(self, heat):
        # pairing magnitudes for delta'-data stay within a finite power of n
        g = Grid(1, 8.0, 2048)
        rep = DistributionRep.delta_derivative(g)
        sol = solve_sequence(heat, [4, 8, 16, 32],
                             lambda n: mollify(rep, n),
                             ForcingSeq.zero(g), tgrid(1.0, 1 / 128))
        psi = bump_test_function(g, 0.5, 0.4, 0.3, 1.0)
        vals = [abs(very_weak_pairing(sol, psi, n)) for n in (4, 8, 16, 32)]
        slope = np.polyfit(np.log([4, 8, 16, 32]), np.log(np.maximum(vals, 1e-300)), 1)[0]
        assert np.isfinite(slope)
        assert slope < 3.0

    def test_distributional_residual_small(self, heat, delta_solution):
        # <w, -d_t psi> - <a(D) w, psi> for psi = chi(t) rho(x); chi vanishes at
        # both ends of the time grid, so there are no boundary terms
        g, sol = delta_solution
        psi = bump_test_function(g, 0.5, 0.35, 0.0, 1.2)
        t = sol.t_grid
        y = (t - 0.5) / 0.35
        inside = np.abs(y) < 1.0
        chi_prime = np.zeros_like(t)
        yi = y[inside]
        chi_prime[inside] = standard_bump(yi) * (-2.0 * yi / (1.0 - yi**2) ** 2) / 0.35
        w = sol.w_values(8)
        aw = np.fft.ifft(heat.on_grid(8, g) * np.fft.fft(w, axis=1), axis=1)
        tw = trapezoid_weights(len(t), float(t[1] - t[0]))
        rho = psi.rho.values * g.cell_volume
        res = -np.sum(tw * chi_prime * (w @ rho)) - np.sum(tw * psi.chi(t) * (aw @ rho))
        assert abs(res) < 1e-3

    def test_support_violation_rejected(self, heat, delta_solution):
        g, sol = delta_solution
        psi = bump_test_function(g, 0.9, 0.5)  # sticks out past t_end
        with pytest.raises(SpaceTimeSupportError):
            very_weak_pairing(sol, psi, 4)

    def test_spatial_support_checked_on_every_face(self):
        # a bump centred on the y = -Lambda face: 0.37 there, 0 on both x faces
        g = Grid(2, 2.0, 32)
        r = np.sqrt(np.sum((g.coordinate_vectors() - (0.0, -2.0)) ** 2, axis=-1))
        psi = dataclasses.replace(bump_test_function(g, 0.5, 0.3),
                                  rho=GridFunction(g, standard_bump(r)))
        assert np.max(psi.rho.values[:, 0].real) == pytest.approx(np.exp(-1.0))
        assert not psi.rho.values[[0, -1], :].any()
        with pytest.raises(SpaceTimeSupportError, match="domain edge"):
            psi.check_support(1.0)


class TestWeakLimitExtract:
    def test_constant_sequences_converge(self):
        pairings = {(n, f"psi{i}"): 1.0 + 0j for n in (2, 4, 8, 16) for i in range(2)}
        report = weak_limit_extract(pairings, tol=1e-6)
        assert report.all_convergent()
        assert all(v == pytest.approx(1.0) for v in report.limits.values())

    def test_logarithmic_growth_flagged(self):
        pairings = {}
        for n in (2, 4, 8, 16, 32):
            pairings[(n, "psiA")] = complex(math.log(n))
            pairings[(n, "psiB")] = 1.0 + 0j
        report = weak_limit_extract(pairings, tol=1e-3)
        assert not report.convergent["psiA"]
        assert report.convergent["psiB"]

    def test_requires_two_test_functions(self):
        with pytest.raises(ValueError):
            weak_limit_extract({(n, "only"): 0j for n in (1, 2, 3, 4)}, tol=1e-3)

    def test_requires_four_indices(self):
        pairings = {(n, f"psi{i}"): 0j for n in (1, 2) for i in range(2)}
        with pytest.raises(ValueError):
            weak_limit_extract(pairings, tol=1e-3)


class TestModeratenessPropagation:
    def test_solution_exponent_bounded_by_data_exponents(self, heat):
        # theta_n data has L^2 exponent ~ 1/2; the damped solution stays below
        g = Grid(1, 8.0, 2048)
        delta = DistributionRep.delta(g)
        f = ForcingSeq(lambda t: np.exp(-t), lambda n: mollify(delta, n))
        tg_ = tgrid(1.0, 1 / 64)
        ns = [4, 8, 16, 32]
        sol = solve_sequence(heat, ns, lambda n: mollify(delta, n), f, tg_)
        a1 = np.polyfit(np.log(ns),
                        np.log([lp_norm(sol.initial_datum(n), 2) for n in ns]), 1)[0]
        a2 = np.polyfit(np.log(ns),
                        np.log([np.max(np.abs(f.profile(tg_))) * lp_norm(f.shape(n), 2)
                                for n in ns]), 1)[0]
        omega = 1.0
        sup_w = [max(math.exp(-omega * t) * lp_norm(sol.w(n, float(t)), 2) for t in tg_)
                 for n in ns]
        aw = np.polyfit(np.log(ns), np.log(sup_w), 1)[0]
        assert aw <= max(a1, a2) + 0.2
