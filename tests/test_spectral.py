"""Grid, transform, norm, mollifier, and regularization tests."""
import numpy as np
import pytest

from semigrouplab.cauchy import bump_test_function
from semigrouplab.errors import GridMismatchError, ResolutionError
from semigrouplab.spectral import (DistributionRep, Grid, GridFunction,
                                   mollifier, inverse_transform, lp_norm,
                                   mollify, standard_bump, transform)


def loglog_slope(ns, vals):
    x = np.log(np.asarray(ns, float))
    y = np.log(np.asarray(vals, float))
    return np.polyfit(x, y, 1)[0]


class TestGrid:
    def test_spacing_identity(self):
        g = Grid(1, 8.0, 256)
        assert g.spacing * g.points == 2.0 * g.half_width
        assert g.freq_spacing == 1.0 / (2.0 * g.half_width)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Grid(1, 8.0, 200)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            Grid(3, 8.0, 64)

    @pytest.mark.parametrize("d", [1, 2])
    def test_layout_matches_meshgrid_and_outer_forms(self, d):
        g = Grid(d, 2.0, 16)
        for vectors, axis in ((g.coordinate_vectors(), g.axis_points()),
                              (g.frequency_vectors(), g.axis_frequencies())):
            expected = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1)
            assert vectors.shape == g.shape + (d,)
            assert np.array_equal(vectors, expected)
        # (-1)^k for k = 0..7, -8..-1 in FFT layout alternates from +1
        p = np.array([1.0, -1.0] * 8)
        expected_phase = p if d == 1 else np.multiply.outer(p, p)
        assert np.array_equal(g.phase(), expected_phase)

    def test_1d_fields_equal_their_closed_forms(self):
        # the forms written for every d reduce bit for bit to the 1-D formulas
        g = Grid(1, 4.0, 256)
        x = g.axis_points()
        assert np.array_equal(GridFunction.gaussian(g, 1.8).values,
                              np.exp(-np.pi * (x / 1.8) ** 2))
        for n in (1, 4, 8):
            vals = n * standard_bump(n * np.abs(x))
            assert np.array_equal(mollifier(g, n).values, vals / (np.sum(vals) * g.spacing))
        rho = bump_test_function(g, 0.5, 0.3, x_center=-0.4, x_width=1.5).rho
        assert np.array_equal(rho.values, standard_bump((x + 0.4) / 1.5))

    @pytest.mark.parametrize("half_width", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_half_width(self, half_width):
        with pytest.raises(ValueError, match="half_width"):
            Grid(1, half_width, 64)


class TestTransform:
    def test_constant_concentrates_at_zero_mode(self):
        g = Grid(1, 4.0, 64)
        uhat = transform(GridFunction(g, np.ones(64)))
        vals = np.abs(uhat.values)
        assert vals[0] > 1.0
        assert np.max(vals[1:]) < 1e-12

    def test_gaussian_self_dual(self):
        g = Grid(1, 8.0, 256)
        uhat = transform(GridFunction.gaussian(g))
        expected = np.exp(-np.pi * g.axis_frequencies() ** 2)
        assert np.max(np.abs(uhat.values - expected)) < 1e-8

    def test_round_trip(self):
        g = Grid(1, 8.0, 256)
        rng = np.random.default_rng(0)
        u = GridFunction(g, rng.standard_normal(256) + 1j * rng.standard_normal(256))
        back = inverse_transform(transform(u))
        assert np.max(np.abs(back.values - u.values)) < 1e-12 * np.max(np.abs(u.values))

    def test_round_trip_2d(self):
        g = Grid(2, 4.0, 32)
        rng = np.random.default_rng(1)
        u = GridFunction(g, rng.standard_normal((32, 32)) * (1 + 0.5j))
        back = inverse_transform(transform(u))
        assert np.max(np.abs(back.values - u.values)) < 1e-12

    def test_parseval(self):
        g = Grid(1, 8.0, 512)
        rng = np.random.default_rng(2)
        u = GridFunction(g, rng.standard_normal(512) + 1j * rng.standard_normal(512))
        spectral = np.sqrt(np.sum(np.abs(transform(u).values) ** 2) * g.freq_spacing)
        assert lp_norm(u, 2) == pytest.approx(spectral, rel=1e-10)

    def test_impulse_has_flat_transform(self):
        g = Grid(1, 4.0, 128)
        uhat = transform(GridFunction.impulse(g))
        assert np.max(np.abs(uhat.values - 1.0)) < 1e-10

    def test_convolution_theorem_band_limited(self):
        g = Grid(1, 4.0, 128)
        rng = np.random.default_rng(3)
        # random band-limited pair: populate low frequencies only
        def band_limited():
            spec = np.zeros(128, dtype=complex)
            idx = list(range(0, 20)) + list(range(108, 128))
            spec[idx] = rng.standard_normal(40) + 1j * rng.standard_normal(40)
            return inverse_transform(GridFunction(g, spec))
        u, v = band_limited(), band_limited()
        # periodic Riemann sum (u * v)(x_k) = sum_j u(x_j) v(x_k - x_j) h, where
        # x_k - x_j = -Lambda + (k - j + N/2) h
        j = np.arange(128)
        conv = g.spacing * np.array([np.sum(u.values * v.values[(k - j + 64) % 128])
                                     for k in range(128)])
        lhs = transform(GridFunction(g, conv)).values
        rhs = transform(u).values * transform(v).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


class TestLpNorm:
    def test_unit_box(self):
        g = Grid(1, 4.0, 128)
        x = g.axis_points()
        box = GridFunction(g, (np.abs(x + 1e-9) < 0.5).astype(float))
        assert lp_norm(box, 2) == pytest.approx(1.0, abs=1e-12)

    def test_zero_function(self):
        g = Grid(1, 4.0, 64)
        assert lp_norm(GridFunction.zero(g), 3.0) == 0.0

    def test_max_norm(self):
        g = Grid(1, 4.0, 64)
        u = GridFunction(g, np.linspace(-2, 3, 64))
        assert lp_norm(u, np.inf) == pytest.approx(3.0)

    def test_rejects_p_below_one(self):
        g = Grid(1, 4.0, 64)
        with pytest.raises(ValueError):
            lp_norm(GridFunction.zero(g), 0.5)

    @pytest.mark.parametrize("q", [2.0, 4.0])
    def test_mollifier_scaling_exponent(self, q):
        # ||theta_n||_q grows like n^(d(1 - 1/q))
        g = Grid(1, 4.0, 1024)
        ns = [2, 4, 8, 16]
        vals = [lp_norm(mollifier(g, n), q) for n in ns]
        assert loglog_slope(ns, vals) == pytest.approx(1.0 - 1.0 / q, abs=0.05)


class TestMollifier:
    def test_unit_mass_and_nonnegative(self):
        g = Grid(1, 4.0, 1024)
        for n in (1, 2, 8, 32):
            th = mollifier(g, n)
            mass = np.sum(th.values.real) * g.spacing
            assert mass == pytest.approx(1.0, abs=1e-10)
            assert np.all(th.values.real >= 0)

    def test_resolution_guard_names_max_scale(self):
        g = Grid(1, 4.0, 256)  # h = 1/32, max n = 8
        with pytest.raises(ResolutionError, match="max usable n = 8"):
            mollify(DistributionRep.delta(g), 9)

    def test_unit_mass_2d(self):
        g = Grid(2, 2.0, 128)
        th = mollifier(g, 4)
        assert np.sum(th.values.real) * g.cell_volume == pytest.approx(1.0, abs=1e-10)


class TestMollify:
    def test_delta_gives_mollifier_back(self):
        g = Grid(1, 4.0, 1024)
        for n in (2, 8, 32):
            out = mollify(DistributionRep.delta(g), n)
            assert lp_norm(out - mollifier(g, n), 1) < 1e-6

    def test_delta_prime_scaling(self):
        # g * theta_n' norms grow like n^(1 + d(1-1/q))
        g = Grid(1, 4.0, 2048)
        rep = DistributionRep.delta_derivative(g)
        ns = [2, 4, 8, 16, 32]
        for q in (2.0, 4.0):
            vals = [lp_norm(mollify(rep, n), q) for n in ns]
            assert loglog_slope(ns, vals) == pytest.approx(1.0 + (1.0 - 1.0 / q), abs=0.1)

    def test_smooth_data_converges_monotonically(self):
        g = Grid(1, 8.0, 2048)
        u = GridFunction.gaussian(g)
        rep = DistributionRep.from_function(u)
        errs = [lp_norm(mollify(rep, n) - u, 2) for n in (2, 4, 8, 16, 32)]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    def test_linearity(self):
        g = Grid(1, 4.0, 512)
        rng = np.random.default_rng(4)
        g0 = GridFunction(g, rng.standard_normal(512))
        g1 = GridFunction(g, rng.standard_normal(512))
        a = mollify(DistributionRep([((0,), g0)]), 4)
        b = mollify(DistributionRep([((1,), g1)]), 4)
        ab = mollify(DistributionRep([((0,), g0), ((1,), g1)]), 4)
        assert lp_norm(ab - (a + b), 2) < 1e-12 * max(1.0, lp_norm(ab, 2))

    def test_young_inequality_for_derivative_terms(self):
        # ||g * theta_n^(alpha)||_p <= ||g||_p ||theta_n^(alpha)||_1
        g = Grid(1, 4.0, 1024)
        rng = np.random.default_rng(5)
        for alpha in ((0,), (1,)):
            dens = GridFunction(g, rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
            out = mollify(DistributionRep([(alpha, dens)]), 8)
            th_hat = transform(mollifier(g, 8)).values
            xi = g.axis_frequencies()
            deriv = inverse_transform(
                GridFunction(g, (2j * np.pi * xi) ** alpha[0] * th_hat))
            for p in (2.0, 4.0):
                assert lp_norm(out, p) <= lp_norm(dens, p) * lp_norm(deriv, 1) * (1 + 1e-12)

    def test_resolution_guard_via_mollify(self):
        g = Grid(1, 4.0, 128)  # h = 1/16, max n = 4
        with pytest.raises(ResolutionError):
            mollify(DistributionRep.delta(g), 8)


class TestPair:
    """The dual pairing <u, psi> = sum u psi h^d of grid functions."""

    def test_delta_sequence_pairing(self):
        # <theta_n, psi> -> psi(0)
        g = Grid(1, 8.0, 1024)
        psi = GridFunction.gaussian(g)
        val = np.sum(mollifier(g, 32).values * psi.values) * g.cell_volume
        assert abs(val - 1.0) < 1e-3

    def test_unit_mass_of_gaussian(self):
        g = Grid(1, 8.0, 512)
        mass = np.sum(GridFunction.gaussian(g).values) * g.cell_volume
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            GridFunction.zero(Grid(1, 4.0, 64)) - GridFunction.zero(Grid(1, 4.0, 128))


class TestGridFunction:
    def test_values_frozen(self):
        u = GridFunction.zero(Grid(1, 4.0, 64))
        with pytest.raises(ValueError):
            u.values[0] = 1.0

    def test_shape_checked(self):
        with pytest.raises(GridMismatchError):
            GridFunction(Grid(1, 4.0, 64), np.zeros(65))
