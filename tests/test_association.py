"""Moderateness fits, association verdicts, theorem cross-checks, derivative engine."""
import math

import numpy as np
import pytest

from semigrouplab.association import (AssociationReport, bundled_family_pairs,
                                      bundled_test_sequences, check_derivative_bounds,
                                      check_derivative_association, check_resolvent_norm_bounds,
                                      check_generator_association,
                                      check_semigroup_association, check_weighted_resolvent_association,
                                      check_resolvent_association,
                                      crosscheck_comparison_theorems, derivative_bound_quantity,
                                      fit_moderate,
                                      is_moderate_fit, make_association_report,
                                      max_keep_nan, resolvent_over_lambda_derivative)
from semigrouplab.errors import InsufficientDataError
from semigrouplab.spectral import Grid, GridFunction, Mollifier, lp_norm
from semigrouplab.symbols import (PolySymbolParams, perturbed_heat_seq,
                                  heat_symbol_seq, make_poly_symbol_seq,
                                  shifted_symbol_seq)


@pytest.fixture(scope="module")
def grid():
    return Grid(1, 4.0, 128)


@pytest.fixture(scope="module")
def heat():
    return heat_symbol_seq()


@pytest.fixture(scope="module")
def drifted():
    return perturbed_heat_seq()


@pytest.fixture(scope="module")
def gaussian_seq(grid):
    f = GridFunction.gaussian(grid)
    return lambda n: f


class TestFitModerate:
    def test_exact_power_law(self):
        fit = fit_moderate({n: float(n**2) for n in (2, 4, 8, 16)})
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_mollifier_l2_exponent(self):
        g = Grid(1, 4.0, 1024)
        theta = Mollifier()
        fit = fit_moderate({n: lp_norm(theta.sample(g, n), 2) for n in (2, 4, 8, 16)})
        assert fit.slope == pytest.approx(0.5, abs=0.05)

    def test_exponential_growth_flagged(self):
        fit = fit_moderate({n: math.exp(n) for n in (4, 8, 16, 32, 64)})
        assert not is_moderate_fit(fit)

    def test_bounded_family_not_flagged(self):
        fit = fit_moderate({n: 2.0 * (1 + 1.0 / n) for n in (4, 8, 16, 32, 64)})
        assert is_moderate_fit(fit)

    def test_needs_four_points(self):
        with pytest.raises(InsufficientDataError):
            fit_moderate({1: 1.0, 2: 1.0, 3: 1.0})

    def test_scale_equivariance(self):
        norms = {n: float(n) ** -1.3 for n in (2, 4, 8, 16, 32)}
        base = fit_moderate(norms)
        scaled = fit_moderate({n: 7.5 * v for n, v in norms.items()})
        assert scaled.slope == pytest.approx(base.slope, abs=1e-12)
        assert math.log(scaled.constant) == pytest.approx(
            math.log(base.constant) + math.log(7.5), abs=1e-12)

    def test_zero_values_floored_and_flagged(self):
        fit = fit_moderate({1: 0.0, 2: 1.0, 3: 1.0, 4: 1.0})
        assert fit.floored


class TestVerdictRule:
    def test_all_zero_is_associated(self):
        rep = make_association_report([4, 8, 16, 32], [0.0, 0.0, 0.0, 0.0])
        assert rep.verdict == "associated"

    def test_power_decay_is_associated(self):
        rep = make_association_report([4, 8, 16, 32, 64], [1 / math.sqrt(n) for n in (4, 8, 16, 32, 64)])
        assert rep.verdict == "associated"
        assert rep.slope == pytest.approx(-0.5, abs=1e-10)

    def test_constant_is_not_associated(self):
        rep = make_association_report([4, 8, 16, 32], [2.0, 2.0, 2.0, 2.0])
        assert rep.verdict == "not-associated"

    def test_log_decay_inconclusive_on_wide_range(self):
        ns = [4, 16, 64, 256, 1024]
        rep = make_association_report(ns, [1.0 / math.log(n) for n in ns])
        assert rep.verdict == "inconclusive"

    def test_noise_floor_sequence_is_associated(self):
        rep = make_association_report([4, 8, 16, 32], [1.0, 1e-15, 2e-15, 1.5e-15])
        assert rep.verdict == "associated"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_norm_raises(self, bad):
        with pytest.raises(ValueError, match="demo: norm at n=8"):
            make_association_report([4, 8, 16, 32], [1.0, bad, 0.5, 0.25], label="demo")

    def test_running_sup_keeps_nan(self):
        assert math.isnan(max_keep_nan(0.0, math.nan))
        assert math.isnan(max_keep_nan(math.nan, 1.0))
        assert max_keep_nan(0.5, 2.0) == 2.0
        assert max_keep_nan(2.0, 0.5) == 2.0


class TestG4:
    def test_stationary_family_has_unit_spread(self, heat, grid):
        reports = check_resolvent_norm_bounds(heat, [4, 8, 16, 32], [2.0], grid)
        assert reports[0].spread == pytest.approx(1.0)
        assert reports[0].bounded

    def test_drifted_family_spread_small(self, drifted, grid):
        reports = check_resolvent_norm_bounds(drifted, [4, 8, 16, 32, 64], [2.0], grid)
        assert reports[0].spread < 1.5

    def test_growing_family_flagged(self, grid):
        s = make_poly_symbol_seq(PolySymbolParams(
            rule=lambda n: (1.0 - 1.0 / n,), name="approach"))
        reports = check_resolvent_norm_bounds(s, [4, 8, 16, 32, 64], [1.001], grid)
        assert not reports[0].bounded


class TestGeneratorAssociation:
    def test_identical_families_zero(self, heat, grid, gaussian_seq):
        rep = check_generator_association(heat, heat_symbol_seq(), [gaussian_seq],
                                          grid, [4, 8, 16, 32])
        assert rep.verdict == "associated"
        assert max(rep.norms) == 0.0

    def test_drifted_pair_fixed_gaussian(self, heat, drifted, grid, gaussian_seq):
        rep = check_generator_association(heat, drifted, [gaussian_seq], grid,
                                          [4, 8, 16, 32, 64])
        assert rep.verdict == "associated"
        assert rep.slope == pytest.approx(-1.0, abs=0.1)

    def test_constant_shift_not_associated(self, heat, grid, gaussian_seq):
        shifted = shifted_symbol_seq(heat, lambda n, v: np.ones(v.shape[:-1]),
                                     re_bound_shift=1.0)
        rep = check_generator_association(heat, shifted, [gaussian_seq], grid,
                                          [4, 8, 16, 32])
        assert rep.verdict == "not-associated"

    def test_symmetry_in_the_pair(self, heat, drifted, grid, gaussian_seq):
        ab = check_generator_association(heat, drifted, [gaussian_seq], grid, [4, 8, 16, 32])
        ba = check_generator_association(drifted, heat, [gaussian_seq], grid, [4, 8, 16, 32])
        assert ab.norms == ba.norms


class TestResolventAssociation:
    def test_identical_zero(self, heat, grid, gaussian_seq):
        rep = check_resolvent_association(heat, heat_symbol_seq(), [2.0],
                                          [gaussian_seq], grid, [4, 8, 16, 32])
        assert max(rep.norms) == 0.0

    def test_drifted_pair(self, heat, drifted, grid):
        wide = GridFunction.gaussian(grid, width=1.8)
        rep = check_resolvent_association(heat, drifted, [2.0], [lambda n: wide],
                                          grid, [4, 8, 16, 32, 64])
        assert rep.verdict == "associated"
        assert -1.2 < rep.slope < -0.7

    def test_divergent_pair(self, heat, grid, gaussian_seq):
        scaled = shifted_symbol_seq(heat, lambda n, v: -np.sum(v * v, axis=-1))
        rep = check_resolvent_association(heat, scaled, [2.0], [gaussian_seq],
                                          grid, [4, 8, 16, 32])
        assert rep.verdict == "not-associated"


class TestGeisAndGE4:
    t_samples = list(np.linspace(0.25, 5.0, 12))

    def test_identical_zero(self, heat, grid, gaussian_seq):
        rep = check_semigroup_association(heat, heat_symbol_seq(), 1.0, self.t_samples,
                                     [gaussian_seq], grid, [4, 8, 16, 32])
        assert max(rep.norms) == 0.0

    def test_drifted_pair_associated_with_companion(self, heat, drifted, grid, gaussian_seq):
        rep = check_semigroup_association(heat, drifted, 1.0, self.t_samples,
                                     [gaussian_seq], grid, [4, 8, 16, 32, 64])
        assert rep.verdict == "associated"
        assert rep.companion_agrees

    @pytest.mark.parametrize("t_samples", [[math.nan], [0.5, math.nan]])
    def test_nan_time_sample_is_not_a_zero_norm(self, heat, drifted, grid, gaussian_seq,
                                                t_samples):
        with pytest.raises(ValueError, match="n=4 is nan"):
            check_semigroup_association(heat, drifted, 1.0, t_samples,
                                        [gaussian_seq], grid, [4, 8, 16, 32, 64])

    def test_shifted_pair_not_associated(self, heat, grid, gaussian_seq):
        shifted = shifted_symbol_seq(heat, lambda n, v: np.ones(v.shape[:-1]),
                                     re_bound_shift=1.0)
        rep = check_semigroup_association(heat, shifted, 2.0, self.t_samples,
                                     [gaussian_seq], grid, [4, 8, 16, 32])
        assert rep.verdict == "not-associated"

    def test_weighted_drifted_pair(self, heat, drifted, grid, gaussian_seq):
        rep = check_weighted_resolvent_association(heat, drifted, 1.0, 1.0, [2.0, 2.0 + 5j, 11.0],
                        [gaussian_seq], grid, [4, 8, 16, 32, 64])
        assert rep.verdict == "associated"
        assert rep.companion_agrees

    def test_weighted_sqrt_decay(self, heat, grid, gaussian_seq):
        slow = shifted_symbol_seq(
            heat, lambda n, v: np.exp(-np.sum(v * v, axis=-1)) / math.sqrt(n),
            re_bound_shift=1.0)
        rep = check_weighted_resolvent_association(heat, slow, 1.0, 1.0, [2.0, 11.0], [gaussian_seq], grid,
                        [4, 8, 16, 32, 64], rerun_semigroup=False)
        assert rep.verdict == "associated"
        assert rep.slope == pytest.approx(-0.5, abs=0.1)

    def test_weighted_rejects_samples_in_half_plane(self, heat, drifted, grid, gaussian_seq):
        with pytest.raises(ValueError):
            check_weighted_resolvent_association(heat, drifted, 1.0, 1.0, [0.5], [gaussian_seq], grid, [4, 8, 16, 32])


N_LIST = [4, 8, 16, 32]


#: each check run with an empty sample list (test sequences, for the generator)
EMPTY_SAMPLE_CHECKS = {
    "generator": lambda s, st, g, x: check_generator_association(
        s, st, [], g, N_LIST, label="generator"),
    "resolvent": lambda s, st, g, x: check_resolvent_association(
        s, st, [], [x], g, N_LIST, label="resolvent"),
    "weighted": lambda s, st, g, x: check_weighted_resolvent_association(
        s, st, 1.0, 1.0, [], [x], g, N_LIST, label="weighted"),
    "semigroup": lambda s, st, g, x: check_semigroup_association(
        s, st, 1.0, [], [x], g, N_LIST, label="semigroup"),
    "derivative": lambda s, st, g, x: check_derivative_association(
        s, st, N_LIST, 1.0, 3, [], [x], g, label="derivative"),
}


@pytest.mark.parametrize("label", list(EMPTY_SAMPLE_CHECKS))
def test_no_samples_is_not_a_verdict(label, heat, drifted, grid, gaussian_seq):
    # a sup over nothing is not a zero difference
    with pytest.raises(ValueError, match=f"^{label}: no "):
        EMPTY_SAMPLE_CHECKS[label](heat, drifted, grid, gaussian_seq)


class TestCrosscheck:
    def test_bundled_suite_has_no_disagreements(self, grid):
        pairs = bundled_family_pairs(grid)
        assert len(pairs) >= 8
        checks = crosscheck_comparison_theorems(pairs, [2.0], grid)
        characters = {c.character for c in checks}
        assert characters == {"associated", "not-associated", "borderline"}
        for c in checks:
            assert c.disagreements() == []

    def test_borderline_pair_recorded_as_agreement(self, grid):
        pairs = [p for p in bundled_family_pairs(grid) if p.character == "borderline"]
        checks = crosscheck_comparison_theorems(pairs, [2.0], grid)
        assert checks[0].generator == "inconclusive"
        assert checks[0].resolvent == "inconclusive"
        assert checks[0].disagreements() == []

    def test_empty_pair_list(self, grid):
        assert crosscheck_comparison_theorems([], [2.0], grid) == []


class TestDerivativeEngine:
    def test_zero_symbol_closed_form(self):
        # modes with a = 0: quantity is (k+1)/lambda when omega = 0
        a = np.array([0.0], dtype=complex)
        for k in (0, 1, 2, 5):
            for lam in (0.5, 2.0, 10.0):
                q = derivative_bound_quantity(lam, 0.0, a, k)[0]
                assert q == pytest.approx((k + 1) / lam, rel=1e-12)

    def test_heat_mode_reference_value(self):
        # a = -1, lambda = 2, omega = 0, k = 0:
        # (lambda - omega) |R(lambda)/lambda| = 2 / (2 * 3) = 1/3
        q = derivative_bound_quantity(2.0, 0.0, np.array([-1.0 + 0j]), 0)[0]
        assert q == pytest.approx(1.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_partial_fractions_match_finite_differences(self, k):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(100):
            lam = rng.uniform(1.5, 20.0)
            a = complex(-rng.uniform(0.0, 50.0), rng.uniform(-50.0, 50.0))

            def g(x):
                return 1.0 / (x * (x - a))

            h = 1e-2 * max(1.0, abs(lam))

            def fd(hh):
                if k == 1:
                    return (g(lam + hh) - g(lam - hh)) / (2 * hh)
                if k == 2:
                    return (g(lam + hh) - 2 * g(lam) + g(lam - hh)) / hh**2
                return (g(lam + 2 * hh) - 2 * g(lam + hh) + 2 * g(lam - hh)
                        - g(lam - 2 * hh)) / (2 * hh**3)

            rich = (4.0 * fd(h / 2) - fd(h)) / 3.0
            kfact = math.factorial(k)
            exact = kfact * resolvent_over_lambda_derivative(lam, np.array([a]), k)[0]
            worst = max(worst, abs(rich - exact) / abs(exact))
        assert worst < 1e-6

    def test_check_derivative_bounds_reports_and_guard(self, heat, grid):
        lams = list(1.0 + np.logspace(-2, 4, 25))
        report = check_derivative_bounds(heat, [4, 8, 16, 32], omega=1.0, k_max=20,
                          lambda_list=lams, grid=grid)
        assert all(np.isfinite(v) for v in report.bounds.values())
        assert report.fit is not None
        with pytest.raises(ValueError, match="k_max"):
            check_derivative_bounds(heat, [4], omega=1.0, k_max=61, lambda_list=lams, grid=grid)

    def test_k_zero_consistent_with_resolvent_norm(self, heat, grid):
        # (lambda - omega)^1 (R/lambda) at k=0 equals (lambda-omega)/lambda * R
        lam, omega = 3.0, 1.0
        a = heat.on_grid(1, grid)
        q = derivative_bound_quantity(lam, omega, a, 0)
        direct = (lam - omega) / lam * np.abs(1.0 / (lam - a))
        assert np.max(np.abs(q - direct)) < 1e-14

    def test_check_derivative_association_drifted_pair(self, heat, drifted, grid, gaussian_seq):
        rep = check_derivative_association(heat, drifted, [4, 8, 16, 32, 64], omega=1.0, k_max=10,
                       lambda_list=[1.5, 2.0, 4.0], test_seqs=[gaussian_seq],
                       grid=grid)
        assert isinstance(rep, AssociationReport)
        assert rep.verdict == "associated"


class TestBundledSequences:
    def test_spike_norm_growth(self, grid):
        seqs = bundled_test_sequences(grid)
        fit = fit_moderate({n: lp_norm(seqs["spike"](n), 2) for n in (4, 8, 16, 32)})
        assert fit.slope == pytest.approx(0.5, abs=1e-9)

    def test_growing_norm_growth(self, grid):
        seqs = bundled_test_sequences(grid)
        fit = fit_moderate({n: lp_norm(seqs["growing"](n), 2) for n in (4, 8, 16, 32)})
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
