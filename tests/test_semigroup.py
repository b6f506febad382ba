"""Integrated semigroup, resolvent, Laplace/Bromwich, and growth tests."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from semigrouplab import semigroup
from semigrouplab.errors import OverflowGuardError, ResolventSingularityError
from semigrouplab.semigroup import (TIME_INTEGRAL_LEVELS, Evaluations, MultiplierOp,
                                    block_rows, bromwich_S, certify_growth,
                                    laplace_identity_residual, multiplier_norms,
                                    phi, power_spectra, pseudoresolvent_residual,
                                    relative_defects, resolvent_factor,
                                    sample_axis, time_integral)
from semigrouplab.spectral import (Grid, GridFunction, inverse_transform,
                                   lp_norm)
from semigrouplab.quadrature import composite_gauss_points, trapezoid_weights
from semigrouplab.symbols import (SymbolSeq, perturbed_heat_seq, heat_symbol_seq,
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
        # the Taylor expansion and the expm1/sin/cos form both match a long series
        # reference near |ta| = 1e-6, so the crossover introduces no jump above 1e-13
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
        # Taylor entries (|ta| < 1e-6) among expm1/sin/cos ones, below and above
        # |ta| = 1 (the crossover of an earlier sinh branch); at -0.6+0.2j and
        # -0.05-0.0015j numpy's 0-d scalar arithmetic rounds differently from its
        # array loops, so a 0-d fast path would show here
        a = np.array([0.0, 3e-7j, -2e-7 + 1e-7j, 0.4 - 0.3j, -0.6 + 0.2j,
                      -0.05 - 0.0015j, 0.6j, -40.0 + 3.0j, 7.0, 25j])
        t = 1.3
        out = phi(t, a)
        assert out.shape == a.shape
        assert np.array_equal(out, np.array([complex(phi(t, x)) for x in a]))

    def test_time_axis_matches_scalar_calls(self):
        # each row of a batched call is bitwise the scalar-t call, with entries
        # one ulp either side of the Taylor crossover |ta| = 1e-6 and of |ta| = 1
        # (an earlier sinh branch's crossover, kept as a regression point) for every
        # nonzero time, and non-finite entries; a positive real part only where
        # e^(2a) stays finite
        times = np.array([0.0, 1e-7, 0.37, 1.0, 2.0])
        edges = [s * np.nextafter(edge / t, side) for t in times[1:] for edge in (1e-6, 1.0)
                 for side in (0.0, np.inf)
                 for s in (-1.0, 1j, -0.6 + 0.8j) + ((1.0, 0.6 + 0.8j) if t > 0.1 else ())]
        a = np.array(edges + [0.0, np.nan, complex(np.nan, 1.0), -40.0 + 3.0j, 25j])
        with np.errstate(invalid="ignore"):
            out = phi(times[:, None], a)
            stacked = np.stack([phi(t, a) for t in times])
            assert out.shape == (len(times), len(a))
            assert out.tobytes() == stacked.tobytes()

    def test_time_axis_on_a_two_dimensional_grid(self, heat):
        g2 = Grid(2, 3.0, 16)
        times = np.array([0.1, 0.5, 3.0])
        a = heat.on_grid(2, g2)
        out = phi(sample_axis(times, g2), a)
        assert out.shape == (3,) + g2.shape
        assert out.tobytes() == np.stack([phi(t, a) for t in times]).tobytes()

    def test_overflow_in_one_row_raises_naming_its_time(self):
        a = np.array([-1.0, 0.5j, 400.0, 1e-8])
        phi(1.0, a)  # e^400 is finite; only the t = 2.5 row overflows
        with pytest.raises(OverflowGuardError, match=r"t=2\.5"):
            phi(np.array([[0.5], [1.0], [2.5], [0.1]]), a)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_product_raises_naming_the_largest_time(self):
        # t a itself overflows at t = 2 and 5, in Im and in Re: the guard raises,
        # with no RuntimeWarning and no NaN from cos(inf)
        a = np.array([1e308j, -1e308, 1.0])
        assert np.isfinite(phi(1.0, a)).all()
        with pytest.raises(OverflowGuardError, match=r"t=5\.0$"):
            phi(np.array([[1.0], [5.0], [2.0]]), a)
        with pytest.raises(OverflowGuardError, match=r"t=1e\+308$"):
            phi(1e308, -2.0)

    def test_negative_time_in_a_batch_rejected(self):
        with pytest.raises(ValueError, match="-0.5"):
            phi(np.array([[1.0], [-0.5]]), np.array([1.0, 2.0]))

    def test_single_overflowing_entry_raises(self):
        with pytest.raises(OverflowGuardError):
            phi(1.0, np.array([-1.0, 0.5j, 800.0, 1e-8]))

    def test_every_entry_is_written(self):
        # non-finite entries, and at t = 1 |ta| just either side of the Taylor
        # crossover 1e-6 and of 1 (an earlier sinh branch's crossover): each entry of
        # the freshly allocated result holds the bytes of its one-entry call
        a = np.array([0.0, np.nan, -np.inf, complex(np.nan, 1.0), -2.0, 30j]
                     + [s * np.nextafter(edge, side) for edge in (1e-6, 1.0)
                        for side in (0.0, 2.0) for s in (1.0, -1.0, 1j)], dtype=complex)
        for t in (0.0, 1.0, 2.5):
            with np.errstate(invalid="ignore"):
                single = np.array([complex(phi(t, x)) for x in a])
                assert phi(t, a).tobytes() == single.tobytes()

    def test_overflow_threshold_is_where_e_to_the_ta_overflows(self):
        # no intermediate exceeds e^(Re ta): 2 e^x sin(y/2) would overflow at 709.5+3j
        for a, value in ((709.5 + 3j, -1.889490906250118e+305 + 2.77497044427683e+304j),
                         (709.78, 2.525885195968491e+305)):
            assert complex(phi(1.0, a)) == pytest.approx(value, rel=1e-15, abs=0.0)
        with pytest.raises(OverflowGuardError, match=r"t=1\.0"):
            phi(1.0, 709.8)

    def test_accuracy_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(25)
        a = 10.0 ** rng.uniform(-12.0, 3.0, 4000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 4000))
        t = rng.uniform(0.0, 4.0, 4000)
        ta = t * a
        # e^z - 1 vanishes at 2 pi i k, where the rounding of ta itself decides the
        # relative error, so draws within 0.1 of such a zero (k != 0) are skipped
        k = np.round(ta.imag / (2.0 * np.pi))
        keep = (ta.real < 700.0) & ((k == 0) | (np.abs(ta - 2j * np.pi * k) >= 0.1))
        a, t, ta = a[keep], t[keep], ta[keep]
        with mpmath.workprec(120):
            ref = np.array([complex(mpmath.expm1(mpmath.mpc(z.real, z.imag))
                                    / mpmath.mpc(x.real, x.imag)) for z, x in zip(ta, a)])
        err = np.abs(phi(t, a) - ref) / np.abs(ref)
        assert keep.sum() > 3500
        assert err.max() <= 2e-15, (err.max(), t[np.argmax(err)], a[np.argmax(err)])

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


def apply_S(s, n, t, u):
    """S_n(t) u: the multiplier phi(t, a_n) applied to u."""
    return MultiplierOp(u.grid, phi(t, s.on_grid(n, u.grid))).apply(u)


class TestApplyS:
    def test_time_zero_is_zero_operator(self, heat, gaussian):
        out = apply_S(heat, 1, 0.0, gaussian)
        assert lp_norm(out, 2) == 0.0

    def test_single_mode_rescaling(self, heat, grid):
        xi0 = 4 * grid.freq_spacing
        mode = GridFunction(grid, np.exp(2j * np.pi * xi0 * grid.axis_points()))
        out = apply_S(heat, 1, 0.7, mode)
        expected = complex(phi(0.7, -xi0**2)) * mode.values
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_convolution_oracle(self):
        # S_n(t)u equals (F^-1 phi_t) * u computed by direct summation
        g = Grid(1, 4.0, 64)
        s = perturbed_heat_seq()
        x = g.axis_points()
        u = GridFunction(g, np.exp(-np.pi * x**2) * (1 + 0.3 * np.sin(np.pi * x / 4)))
        n, t = 3, 0.4
        direct = apply_S(s, n, t, u)
        kernel = inverse_transform(GridFunction(g, phi(t, s.on_grid(n, g))))
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
        out = multiplier_norms(np.stack(factors), power_spectra(us))
        assert out.shape == (len(factors), len(us))
        assert np.all(out[zero_at] == 0.0)
        for i, d in enumerate(factors):
            for j, u in enumerate(us):
                ref = lp_norm(MultiplierOp(grid, d).apply(u), 2)
                assert out[i, j] == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_rejects_mismatched_shapes(self, grid, gaussian):
        with pytest.raises(ValueError, match="factor shape"):
            multiplier_norms(np.ones((1, 7)), power_spectra([gaussian]))
        with pytest.raises(ValueError, match="factor shape"):
            # one factor without the leading sample axis
            multiplier_norms(np.ones(grid.shape), power_spectra([gaussian]))
        with pytest.raises(ValueError, match="different grids"):
            power_spectra([gaussian, GridFunction.gaussian(Grid(1, 4.0, 256))])


class TestRelativeDefects:
    def test_equals_inverse_fft_norms_over_the_norm_of_u(self, grid):
        rng = np.random.default_rng(5)
        u = GridFunction(grid, rng.standard_normal(grid.shape)
                         + 1j * rng.standard_normal(grid.shape))
        defects = rng.standard_normal((3,) + grid.shape) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, (3,) + grid.shape))
        out = relative_defects(defects, u)
        assert out.shape == (3,)
        for d, value in zip(defects, out):
            ref = lp_norm(MultiplierOp(grid, d).apply(u), 2) / lp_norm(u, 2)
            assert value == pytest.approx(ref, rel=1e-12)

    def test_zero_input_gives_zeros(self, grid):
        zero = relative_defects(np.ones((2,) + grid.shape), GridFunction.zero(grid))
        assert zero.tolist() == [0.0, 0.0]


class TestResolvent:
    @settings(max_examples=100, deadline=None)
    @given(lam_re=st.floats(0.01, 100.0), lam_im=st.floats(-100.0, 100.0),
           mu_re=st.floats(0.01, 100.0), mu_im=st.floats(-100.0, 100.0))
    def test_pseudoresolvent_identity_per_mode(self, heat, grid, lam_re, lam_im,
                                               mu_re, mu_im):
        # R(lam) - R(mu) = (mu - lam) R(lam) R(mu), mode by mode
        lam, mu = complex(lam_re, lam_im), complex(mu_re, mu_im)
        rl = resolvent_factor(heat.on_grid(3, grid), lam, grid, 3)
        rm = resolvent_factor(heat.on_grid(3, grid), mu, grid, 3)
        defect = np.abs(rl - rm - (mu - lam) * rl * rm)
        scale = np.abs(rl) + np.abs(rm) + abs(mu - lam) * np.abs(rl * rm)
        assert np.all(defect <= 1e-15 * scale)

    def test_factor_on_single_mode(self, heat, grid):
        xi0 = 8 * grid.freq_spacing
        mode = GridFunction(grid, np.exp(2j * np.pi * xi0 * grid.axis_points()))
        out = MultiplierOp(grid, resolvent_factor(heat.on_grid(1, grid), 1.0, grid, 1)).apply(mode)
        assert np.max(np.abs(out.values - mode.values / (1.0 + xi0**2))) < 1e-12

    def test_l2_operator_norm_is_inverse_lambda(self, heat, grid):
        for lam in (0.5, 2.0, 17.0):
            fac = resolvent_factor(heat.on_grid(1, grid), lam, grid, 1)
            assert np.max(np.abs(fac)) == pytest.approx(1.0 / lam, rel=1e-12)

    def test_exact_spectral_hit_raises(self, heat, grid):
        xi_k = 16 * grid.freq_spacing
        with pytest.raises(ResolventSingularityError):
            resolvent_factor(heat.on_grid(1, grid), -xi_k**2, grid, 1)

    def test_lambda_axis_matches_scalar_calls(self, heat, grid):
        lams = [2.0, 0.5 + 3j, 17.0 - 1j]
        out = resolvent_factor(heat.on_grid(3, grid), lams, grid, 3)
        assert out.shape == (3,) + grid.shape
        assert out.tobytes() == np.stack([resolvent_factor(heat.on_grid(3, grid), lam, grid, 3)
                                          for lam in lams]).tobytes()

    def test_lambda_axis_names_the_offending_lambda(self, heat, grid):
        # a_4(0) = 0, so the second lambda hits the spectrum at xi = 0
        with pytest.raises(ResolventSingularityError,
                           match=r"lambda=0\.0 within .* xi=\[0\.\] \(n=4\)"):
            resolvent_factor(heat.on_grid(4, grid), [2.0, 0.0, 3.0], grid, 4)


class TestLaplaceIdentity:
    def test_heat_reference_lambda(self, heat, grid, gaussian):
        res = laplace_identity_residual(heat.on_grid(1, grid), 1, 2.0, gaussian, T=20.0)
        assert res < 1e-8

    def test_zero_input(self, heat, grid):
        res = laplace_identity_residual(heat.on_grid(1, grid), 1, 2.0, GridFunction.zero(grid),
                                        T=20.0)
        assert res == 0.0

    def test_large_lambda(self, heat, grid, gaussian):
        res = laplace_identity_residual(heat.on_grid(1, grid), 1, 1000.0, gaussian, T=0.04)
        assert res < 1e-8

    def test_complex_lambda(self, heat, grid, gaussian):
        a = heat.on_grid(1, grid)
        res = laplace_identity_residual(a, 1, 2.0 + 5j, gaussian, T=20.0)
        assert res < 1e-8
        assert res != laplace_identity_residual(a, 1, 2.0, gaussian, T=20.0)
        # Re lambda = 0 = sup Re a_1, so the transform does not converge
        with pytest.raises(ValueError, match="Re lambda"):
            laplace_identity_residual(a, 1, 5j, gaussian, T=20.0)

    def test_truncation_guard(self, heat, grid, gaussian):
        with pytest.raises(ValueError, match="truncation"):
            laplace_identity_residual(heat.on_grid(1, grid), 1, 2.0, gaussian, T=1.0)

    def test_overflow_raises_naming_lambda_n_and_T(self, grid, gaussian):
        # e^(-lambda s) overflows near s = T = 400 although e^((a - lambda) s) decays:
        # the kernel's FloatingPointError becomes the named guard error, never an inf
        s = make_poly_symbol_seq((-5.0, 0.0, 0.025))
        with pytest.raises(OverflowGuardError,
                           match=r"^Laplace identity at lambda=\(-4\.9\+0j\), n=1, T=400: "):
            laplace_identity_residual(s.on_grid(1, grid), 1, -4.9 + 0j, gaussian, T=400.0)
        # S(T) itself overflows: sup Re a_n T = 1.9 x 400 is past EXP_GUARD
        s = make_poly_symbol_seq((1.9, 0.0, 0.025))
        with pytest.raises(OverflowGuardError, match=r"n=1, T=400: T sup Re a_n = 760 "):
            laplace_identity_residual(s.on_grid(1, grid), 1, 2.0 + 0j, gaussian, T=400.0)

    def test_quadrature_convergence_order(self, heat, grid, gaussian):
        # composite Gauss-Legendre error drops at order >= 4 in the panel count; the
        # unfolded rule varies it, since time_integral has the one count 64
        a = heat.on_grid(1, grid)
        target = resolvent_factor(a, 0.6, grid, 1)
        errs = []
        for panels in (1, 2, 4):
            defect = target - 0.6 * plain_time_integral(80.0, a, 0.6, panels)[0]
            norms = multiplier_norms(np.stack([defect, np.ones(grid.shape)]),
                                     power_spectra([gaussian]))
            errs.append(norms[0, 0] / norms[1, 0])
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert min(order1, order2) >= 4.0


def plain_time_integral(T, a, lam, panels):
    """integral_0^T e^(-lambda s) phi(s, a) ds with every node of the composite rule.

    Returns the value and the sum of the magnitudes of its terms, per entry of a.
    """
    pts, wts = composite_gauss_points(0.0, T, panels)
    terms = (wts * np.exp(-lam * pts))[:, None] * phi(pts[:, None], np.ravel(a))
    return (terms.sum(axis=0).reshape(np.shape(a)),
            np.abs(terms).sum(axis=0).reshape(np.shape(a)))


@st.composite
def laplace_cases(draw, shape):
    # |a| <= 100 with Re a T <= 5, and Re lambda > 0 as the Laplace check needs; T <= 5
    # as for the perturbation oracle, since a node's rounding moves e^(s a) by |s a| ulps
    T = draw(st.floats(0.0, 5.0))
    size = int(np.prod(shape))
    mag = np.array(draw(st.lists(st.floats(0.0, 100.0), min_size=size, max_size=size)))
    ang = np.array(draw(st.lists(st.floats(-np.pi, np.pi), min_size=size, max_size=size)))
    a = (mag * np.exp(1j * ang)).reshape(shape)
    if T > 0:
        a = np.minimum(a.real, 5.0 / T) + 1j * a.imag
    lam = complex(draw(st.floats(0.01, 100.0)),
                  draw(st.just(0.0) | st.floats(-50.0, 50.0)))
    return T, a, lam


class TestTimeIntegral:
    def test_phi_runs_on_eighteen_levels(self, monkeypatch):
        # the 64 panel starts fold by doubling, as the sums of six two-point sets {0, 2^j h};
        # phi runs on those six points and the 12 offsets, not on the 768 nodes
        assert TIME_INTEGRAL_LEVELS == 18
        entries, kernel = [], semigroup.phi

        def counted(t, a):
            entries.append(np.broadcast(t, a).size)
            return kernel(t, a)

        monkeypatch.setattr(semigroup, "phi", counted)
        a = np.linspace(-3.0, 1.0, 5) + 2j
        time_integral(1.5, a, -0.5)
        assert entries == [TIME_INTEGRAL_LEVELS * a.size]

    @settings(max_examples=80, deadline=None)
    @given(shape=st.sampled_from([(), (3,), (2, 3)]), data=st.data())
    def test_matches_plain_quadrature(self, shape, data):
        # the Laplace check's integral, b = -lambda, against the unfolded 64-panel rule
        T, a, lam = data.draw(laplace_cases(shape))
        out = time_integral(T, a, -lam)
        assert out.shape == shape
        ref, magnitude = plain_time_integral(T, a, lam, 64)
        # the floor covers subnormal terms, whose rounding is absolute
        assert np.all(np.abs(out - ref) <= 1e-13 * magnitude + 1e-300)

    @settings(max_examples=200, deadline=None)
    @given(T=st.floats(0.0, 4.0), mag=st.floats(0.0, 100.0),
           angle=st.floats(0.5 * np.pi, 1.5 * np.pi))
    @example(T=1.2939525975499724e-160, mag=0.0, angle=2.0)
    def test_b_zero_matches_the_closed_form(self, T, mag, angle):
        # integral_0^T phi(s, a) ds = (phi(T, a) - T)/a, with Re a <= 0 as in the
        # functional-equation suite; where |T a| < 1 that form cancels, so the series
        # sum_k a^k T^(k+2)/(k+2)! = T^2/2 + a T^3/6 + ... stands in for it.  The
        # 1e-320 floor covers a subnormal T^2/2 (the pinned example), whose rounding
        # is absolute; it changes nothing where ref >= 1e-307
        a = complex(min(0.0, mag * np.cos(angle)), mag * np.sin(angle))
        if abs(a) >= 1.0 and abs(T * a) >= 1.0:
            ref = (complex(phi(T, a)) - T) / a
        else:
            ref, term = 0.0, T**2 / 2.0
            for k in range(30):
                ref, term = ref + term, term * a * T / (k + 3)
        assert abs(complex(time_integral(T, a, 0.0)) - ref) <= 1e-13 * abs(ref) + 1e-320


class TestPseudoresolvent:
    def test_equal_arguments_exact_zero(self, heat, grid, gaussian):
        assert pseudoresolvent_residual(heat.on_grid(1, grid), 1, 2.0, 2.0, gaussian) == 0.0

    @pytest.mark.parametrize("case", ["heat", "fractional", "heat-2d"])
    def test_pairs_match_scalar_calls(self, heat, grid, case):
        if case == "fractional":
            s = SymbolSeq("fractional", rate="one-plus-inverse", m=2.0)
        else:
            s = heat
        g = Grid(2, 3.0, 16) if case == "heat-2d" else grid
        rng = np.random.default_rng(11)
        u = GridFunction(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        lams = [2.0, 3.0 + 4j, 40.0 - 7j, 2.5 + 1j]
        mus = [5.0, 0.5 - 2j, 3.0 + 4j, 2.5 + 1j]
        a = s.on_grid(2, g)
        out = pseudoresolvent_residual(a, 2, lams, mus, u)
        assert out.shape == (len(lams),)
        assert out[-1] == 0.0
        for lam, mu, value in zip(lams, mus, out):
            assert value == pytest.approx(pseudoresolvent_residual(a, 2, lam, mu, u),
                                          rel=1e-14, abs=0.0)

    def test_pairs_on_zero_input_and_equal_arguments_are_exact_zeros(self, heat, grid,
                                                                    gaussian):
        lams, a = np.array([2.0, 3.0 + 4j, 40.0 - 7j]), heat.on_grid(1, grid)
        assert pseudoresolvent_residual(a, 1, 2.0, 5.0, GridFunction.zero(grid)) == 0.0
        zero = pseudoresolvent_residual(a, 1, lams, lams[::-1], GridFunction.zero(grid))
        assert zero.tolist() == [0.0, 0.0, 0.0]
        same = pseudoresolvent_residual(a, 1, lams, lams.copy(), gaussian)
        assert same.tolist() == [0.0, 0.0, 0.0]

    def test_pairs_need_equal_lengths(self, heat, grid, gaussian):
        with pytest.raises(ValueError, match="equal lengths"):
            pseudoresolvent_residual(heat.on_grid(1, grid), 1, [2.0, 3.0], [5.0], gaussian)

    def test_heat_random_input(self, heat, grid):
        rng = np.random.default_rng(7)
        u = GridFunction(grid, rng.standard_normal(256) + 1j * rng.standard_normal(256))
        assert pseudoresolvent_residual(heat.on_grid(1, grid), 1, 2.0, 5.0, u) < 1e-12

    def test_fractional_family(self, grid, gaussian):
        s = SymbolSeq("fractional", rate="one-plus-inverse", m=2.0)
        assert pseudoresolvent_residual(s.on_grid(2, grid), 2, 1.0 + 0.0j, 3.0, gaussian) < 1e-12


class TestBromwich:
    def test_matches_apply_S(self, heat, grid, gaussian):
        [contour] = bromwich_S(heat.on_grid(1, grid), 1, [0.5], alpha=2.0, r_max=200.0,
                               steps=20000)
        assert lp_norm(apply_S(heat, 1, 0.5, gaussian)
                       - MultiplierOp(grid, contour).apply(gaussian), 2) < 1e-4

    def test_time_zero_within_truncation(self, heat, grid, gaussian):
        [out] = bromwich_S(heat.on_grid(1, grid), 1, [0.0], alpha=2.0, r_max=200.0,
                           steps=20000)
        # truncation tail of the contour integral is O(1/(pi r_max))
        assert lp_norm(MultiplierOp(grid, out).apply(gaussian), 2) < 5e-3

    def test_contour_must_clear_abscissa(self, heat, grid):
        with pytest.raises(ValueError):
            bromwich_S(heat.on_grid(1, grid), 1, [0.5], alpha=-1.0, r_max=50.0, steps=1000)

    @staticmethod
    def assert_matches_per_time_sum(s, u):
        """Each time's contour against the direct complex sum over all nodes at once, as
        operators on u: ||(out - ref) u||_2 <= 1e-12 ||ref u||_2."""
        # 8,001 nodes x 256 modes spans many blocks of the kernel, the last one partial
        times, alpha, r_max, steps = (0.0, 0.25, 1.0), 2.0, 50.0, 8000
        a = s.on_grid(1, u.grid)
        outs = bromwich_S(a, 1, times, alpha, r_max, steps)
        r = np.linspace(-r_max, r_max, steps + 1)
        w = trapezoid_weights(steps + 1, r[1] - r[0])
        lam = alpha + 1j * r[:, None]
        assert outs.shape == (len(times),) + u.grid.shape
        for t, out in zip(times, outs):
            ref = (np.sum(w[:, None] * np.exp(lam * t) / ((lam - a.ravel()[None, :]) * lam),
                          axis=0) / (2.0 * np.pi)).reshape(u.grid.shape)
            norms = multiplier_norms(np.stack([out - ref, ref]), power_spectra([u]))[:, 0]
            assert norms[0] <= 1e-12 * norms[1]

    def test_all_times_match_per_time_sum(self, heat, gaussian):
        self.assert_matches_per_time_sum(heat, gaussian)

    @pytest.mark.parametrize("case", ["drift", "fractional", "drift-2d",
                                      "real-drift", "real-drift-2d"])
    def test_complex_symbols_match_per_time_sum(self, case, grid, gaussian):
        # Im a != 0, so the kernel's q = r - Im a is tested off the real axis too; the 2-D
        # grid has 256 modes as well.  A real drift c_1 makes a(-xi) = conj a(xi), so half
        # the factors are conjugates of folded columns; the complex c_1 of "drift" leaves
        # no conjugate pair in 1-D
        if case == "fractional":
            # i 1.5 |xi|^1.5, as the scale:1.5 comparison of the constant-rate family
            s = SymbolSeq("scaled", parts=(SymbolSeq("fractional", rate="constant", m=1.5),),
                          factor=1.5)
        elif case.startswith("real-drift"):
            s = make_poly_symbol_seq((-0.1, 0.4, 1.0 / (4 * np.pi**2)))
        else:
            s = make_poly_symbol_seq((0.3, 0.4 - 0.2j, 1.0 / (4 * np.pi**2)))
        u = GridFunction.gaussian(Grid(2, 3.0, 16)) if case.endswith("-2d") else gaussian
        a = s.on_grid(1, u.grid)
        assert np.ptp(a.imag) > 5.0
        assert np.any(a.imag < 0) == (case != "fractional")
        self.assert_matches_per_time_sum(s, u)

    @pytest.mark.parametrize("coeffs, dimension, points, columns", [
        ((-0.1, 0.4), 1, 256, 129),  # a real drift: a(-xi) = conj a(xi)
        ((0.0, 0.0), 2, 32, 147),  # heat: a depends on |xi|^2 only
        ((0.3, 0.4 - 0.2j), 1, 256, 256),  # a complex drift: nothing folds
    ], ids=["real-drift", "heat-2d", "complex-drift"])
    def test_kernel_runs_once_per_mode_value_up_to_conjugation(
            self, monkeypatch, coeffs, dimension, points, columns):
        # the kernel's blocks are block_rows(width) rows of width columns
        widths = []
        monkeypatch.setattr(semigroup, "block_rows",
                            lambda width: widths.append(width) or block_rows(width))
        s = make_poly_symbol_seq(coeffs + (1.0 / (4 * np.pi**2),))
        u = GridFunction.gaussian(Grid(dimension, 3.0, points))
        bromwich_S(s.on_grid(1, u.grid), 1, [0.5], alpha=2.0, r_max=50.0, steps=1000)
        assert widths == [columns]

    def test_contour_through_spectrum_raises(self, heat, grid):
        # a(0) = 0 for heat and r = 0 is a node, so the gap is alpha < margin
        with pytest.raises(ResolventSingularityError):
            bromwich_S(heat.on_grid(1, grid), 1, [0.5], alpha=5e-9, r_max=50.0, steps=1000)

    def test_contour_through_spectrum_off_the_real_axis_raises(self, grid):
        # a(0) = 1.3i is the only value with Re a = 0 (the others have Re a <= -|xi|^2), and
        # r = 1.3 is a node; alpha = 2e-9 clears sup Re a but not the margin
        a = make_poly_symbol_seq((1.3j, 0.0, 1.0 / (4 * np.pi**2))).on_grid(1, grid)
        with pytest.raises(ResolventSingularityError, match="numerical spectrum"):
            bromwich_S(a, 1, [0.5], alpha=2e-9, r_max=50.0, steps=1000)
        # at alpha = 2e-8, past the margin, the scan is skipped and the contour passes
        bromwich_S(a, 1, [0.5], alpha=2e-8, r_max=50.0, steps=1000)


class TestCommutation:
    def test_semigroup_commutes_with_resolvent(self, heat, grid, gaussian):
        s_op = MultiplierOp(grid, phi(0.8, heat.on_grid(1, grid)))
        r_op = MultiplierOp(grid, resolvent_factor(heat.on_grid(1, grid), 3.0, grid, 1))
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
                              t_samples=list(np.logspace(-3, 2, 30)), ev=Evaluations(grid))
        for n in (1, 2, 3, 4):
            assert cert.resolvent_bounds[n] <= 2.0
            assert cert.semigroup_bounds[n] <= 1.0 + 1e-12

    def test_moderate_exponent_of_approaching_family(self, grid):
        # constants sigma_n = omega - 1/n approach the abscissa, so a sample
        # just right of omega sees the bound grow like n
        s = make_poly_symbol_seq((1.0,), (-1.0,), "inverse")
        cert = certify_growth(s, [4, 8, 16, 32, 64], omega=1.0, b=1.0,
                              lambda_samples=[1.001], t_samples=[1.0], ev=Evaluations(grid))
        assert cert.resolvent_fit.slope == pytest.approx(1.0, abs=0.1)

    def test_nan_bound_stays_nan(self, heat, grid):
        # the sup keeps a NaN (the builtin max would drop one after a finite sample),
        # and the certificate refuses it, naming the bound and n; t = 0.5, since 1.0 ** nan is 1.0
        with pytest.raises(ValueError, match=r"^growth bound M_n at n=1 is nan$"):
            certify_growth(heat, [1], omega=1.0, b=float("nan"),
                           lambda_samples=[2.0], t_samples=[0.5], ev=Evaluations(grid))
        with pytest.raises(ValueError, match=r"^growth bound M'_n at n=1 is nan$"):
            certify_growth(heat, [1], omega=1.0, b=1.0, lambda_samples=[2.0],
                           t_samples=[1.0, float("nan")], ev=Evaluations(grid))

    def test_sample_on_spectrum_names_the_mode(self, heat, grid):
        # a_1(0) = 0, so lambda = 0 (right of omega = -1) hits the spectrum at xi = 0
        with pytest.raises(ResolventSingularityError, match=r"lambda=0j within .* xi=\[0\.\] \(n=1\)"):
            certify_growth(heat, [1], omega=-1.0, b=1.0, lambda_samples=[0.0],
                           t_samples=[1.0], ev=Evaluations(grid))

    def test_rejects_samples_left_of_omega(self, heat, grid):
        with pytest.raises(ValueError):
            certify_growth(heat, [1], omega=1.0, b=1.0,
                           lambda_samples=[0.5], t_samples=[1.0], ev=Evaluations(grid))
