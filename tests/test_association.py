"""Moderateness fits, association verdicts, theorem cross-checks, derivative engine."""
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semigrouplab import association, semigroup
from semigrouplab.association import (CROSSCHECK_LEVELS, SUITE_T_SAMPLES, AssociationReport,
                                      PairCrossCheck, bundled_family_pairs,
                                      bundled_test_sequences, check_association,
                                      check_resolvent_norm_bounds,
                                      crosscheck_comparison_theorems, fit_moderate,
                                      is_moderate_fit, make_association_report)
from semigrouplab.errors import InsufficientDataError, ResolventSingularityError
from semigrouplab.semigroup import (certify_growth, derivative_level, generator_level,
                                    multiplier_norms, operator_sups, phi, power_spectra,
                                    resolvent_factor, resolvent_level,
                                    resolvent_over_lambda_derivative, semigroup_level)
from semigrouplab.spectral import Grid, GridFunction, mollifier, lp_norm
from semigrouplab.symbols import (NORM_FLOOR, SymbolSeq, perturbed_heat_seq,
                                  heat_symbol_seq, make_fractional_symbol_seq,
                                  make_poly_symbol_seq, summed_symbol_seq)


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


def single(s, s_tilde, level, test_seqs, grid, n_list):
    """The report of one level run alone through the kernel."""
    return check_association(s, s_tilde, {"level": level}, test_seqs, grid, n_list)["level"]


class TestFitModerate:
    def test_exact_power_law(self):
        fit = fit_moderate({n: float(n**2) for n in (2, 4, 8, 16)})
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_mollifier_l2_exponent(self):
        g = Grid(1, 4.0, 1024)
        fit = fit_moderate({n: lp_norm(mollifier(g, n), 2) for n in (2, 4, 8, 16)})
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

    @pytest.mark.parametrize("n_list", [(1, 2, 4, 8), (4, 8, 16, 32), (3, 5, 9, 17)])
    @pytest.mark.parametrize("rate", [1.0, 0.5])
    def test_exponential_growth_refused_on_four_indices(self, n_list, rate):
        # e^n on four doubling indices fits a power law with R^2 above 0.9; its
        # log-log profile bends upward, and that refuses it
        assert not is_moderate_fit(fit_moderate({n: math.exp(rate * n) for n in n_list}))

    @pytest.mark.parametrize("n_list", [(4, 8, 16, 32, 64), tuple(2**k for k in range(2, 11)),
                                        tuple(range(4, 65))])
    @pytest.mark.parametrize("profile", [lambda n: n**0.5, lambda n: float(n) ** 10,
                                         lambda n: n**3 * math.log(n), lambda n: 1.0 / n,
                                         lambda n: 0.9],
                             ids=["sqrt", "n^10", "n^3 log n", "1/n", "constant"])
    def test_polynomial_profiles_accepted(self, n_list, profile):
        assert is_moderate_fit(fit_moderate({n: profile(n) for n in n_list}))

    @pytest.mark.parametrize("n_list", [(4, 8, 16, 32, 64), tuple(2**k for k in range(2, 11))])
    def test_bundled_test_sequences_accepted(self, n_list):
        for name, seq in bundled_test_sequences(Grid(1, 4.0, 128)).items():
            assert is_moderate_fit(fit_moderate({n: lp_norm(seq(n), 2) for n in n_list})), name

    @pytest.mark.parametrize("value", [0.9, 5.7])
    def test_constant_sequence_fits_exactly(self, value):
        # the float mean of these equal logs is off by one rounding
        fit = fit_moderate({n: value for n in (4, 8, 16, 32, 64)})
        assert (fit.slope, fit.r_squared) == (0.0, 1.0)
        assert fit.constant == pytest.approx(value, rel=1e-15)


#: index lists the verdict properties are drawn on
PROPERTY_N_LISTS = st.sampled_from([(4, 8, 16, 32), (4, 8, 16, 32, 64), (3, 5, 7, 11, 13)])


class TestVerdictProperties:
    """The verdict rule on exact power laws, constants (exponent 0) among them."""

    @settings(max_examples=300, deadline=None)
    @given(value=st.floats(1e-250, 1e250),
           exponent=st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0]),
           scale=st.floats(1e-6, 1e6), n_list=PROPERTY_N_LISTS)
    def test_verdict_invariant_under_a_common_scale(self, value, exponent, scale, n_list):
        norms = [value * n**exponent for n in n_list]
        scaled = [scale * v for v in norms]
        assert min(norms + scaled) > NORM_FLOOR
        assert (make_association_report(n_list, scaled).verdict
                == make_association_report(n_list, norms).verdict)

    @settings(max_examples=300, deadline=None)
    @given(value=st.floats(1e-250, 1e250), ulps=st.integers(-4, 4), n_list=PROPERTY_N_LISTS)
    def test_constant_verdict_invariant_under_a_few_ulp(self, value, ulps, n_list):
        # a constant that does not decay is not associated, whatever its last bits
        for v in (value, value + ulps * math.ulp(value)):
            assert make_association_report(n_list, [v] * len(n_list)).verdict == "not-associated"


    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_list=PROPERTY_N_LISTS)
    def test_constant_verdict_invariant_under_independent_ulp_noise(self, data, n_list):
        ulps = data.draw(st.lists(st.integers(-4, 4), min_size=len(n_list),
                                  max_size=len(n_list)))
        norms = [0.9 + k * math.ulp(0.9) for k in ulps]
        assert make_association_report(n_list, norms).verdict == "not-associated"

    @settings(max_examples=300, deadline=None)
    @given(value=st.floats(1e-200, 1e200),
           exponent=st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
           n_list=PROPERTY_N_LISTS)
    def test_verdict_invariant_under_doubled_indices(self, value, exponent, n_list):
        # relabelling n as 2n turns c n^a into (c 2^-a) n^a, the same exponent
        norms = dict(zip(n_list, (value * n**exponent for n in n_list)))
        doubled = {2 * n: v for n, v in norms.items()}
        assert (make_association_report(list(doubled), list(doubled.values())).verdict
                == make_association_report(list(norms), list(norms.values())).verdict)
        assert is_moderate_fit(fit_moderate(doubled)) == is_moderate_fit(fit_moderate(norms))


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


class TestG4:
    def test_stationary_family_has_unit_spread(self, heat, grid):
        reports = check_resolvent_norm_bounds(heat, [4, 8, 16, 32], [2.0], grid)
        assert reports[0].spread == pytest.approx(1.0)
        assert reports[0].bounded

    def test_drifted_family_spread_small(self, drifted, grid):
        reports = check_resolvent_norm_bounds(drifted, [4, 8, 16, 32, 64], [2.0], grid)
        assert reports[0].spread < 1.5

    def test_growing_family_flagged(self, grid):
        s = make_poly_symbol_seq(lambda n: (1.0 - 1.0 / n,), name="approach")
        reports = check_resolvent_norm_bounds(s, [4, 8, 16, 32, 64], [1.001], grid)
        assert not reports[0].bounded


class TestGeneratorAssociation:
    def test_identical_families_zero(self, heat, grid, gaussian_seq):
        rep = single(heat, heat_symbol_seq(), generator_level, [gaussian_seq],
                     grid, [4, 8, 16, 32])
        assert rep.verdict == "associated"
        assert max(rep.norms) == 0.0

    def test_drifted_pair_fixed_gaussian(self, heat, drifted, grid, gaussian_seq):
        rep = single(heat, drifted, generator_level, [gaussian_seq], grid,
                     [4, 8, 16, 32, 64])
        assert rep.verdict == "associated"
        assert rep.slope == pytest.approx(-1.0, abs=0.1)

    def test_constant_shift_not_associated(self, heat, grid, gaussian_seq):
        shifted = summed_symbol_seq(heat, SymbolSeq(lambda n, v: np.ones(v.shape[:-1]),
                                                    re_bound=1.0))
        rep = single(heat, shifted, generator_level, [gaussian_seq], grid,
                     [4, 8, 16, 32])
        assert rep.verdict == "not-associated"

    def test_symmetry_in_the_pair(self, heat, drifted, grid, gaussian_seq):
        ab = single(heat, drifted, generator_level, [gaussian_seq], grid, [4, 8, 16, 32])
        ba = single(drifted, heat, generator_level, [gaussian_seq], grid, [4, 8, 16, 32])
        assert ab.norms == ba.norms


class TestResolventAssociation:
    def test_identical_zero(self, heat, grid, gaussian_seq):
        rep = single(heat, heat_symbol_seq(), resolvent_level([2.0], grid),
                     [gaussian_seq], grid, [4, 8, 16, 32])
        assert max(rep.norms) == 0.0

    def test_drifted_pair(self, heat, drifted, grid):
        wide = GridFunction.gaussian(grid, width=1.8)
        rep = single(heat, drifted, resolvent_level([2.0], grid), [lambda n: wide],
                     grid, [4, 8, 16, 32, 64])
        assert rep.verdict == "associated"
        assert -1.2 < rep.slope < -0.7

    def test_divergent_pair(self, heat, grid, gaussian_seq):
        scaled = summed_symbol_seq(heat, SymbolSeq(lambda n, v: -np.sum(v * v, axis=-1),
                                                   re_bound=0.0))
        rep = single(heat, scaled, resolvent_level([2.0], grid), [gaussian_seq],
                     grid, [4, 8, 16, 32])
        assert rep.verdict == "not-associated"


class TestGeisAndGE4:
    t_samples = list(np.linspace(0.25, 5.0, 12))

    def test_identical_zero(self, heat, grid, gaussian_seq):
        rep = single(heat, heat_symbol_seq(), semigroup_level(1.0, self.t_samples, grid),
                     [gaussian_seq], grid, [4, 8, 16, 32])
        assert max(rep.norms) == 0.0

    def test_drifted_pair_associated(self, heat, drifted, grid, gaussian_seq):
        rep = single(heat, drifted, semigroup_level(1.0, self.t_samples, grid),
                     [gaussian_seq], grid, [4, 8, 16, 32, 64])
        assert rep.verdict == "associated"

    @pytest.mark.parametrize("t_samples", [[math.nan], [0.5, math.nan]])
    def test_nan_time_sample_is_not_a_zero_norm(self, heat, drifted, grid, gaussian_seq,
                                                t_samples):
        with pytest.raises(ValueError, match="n=4 is nan"):
            single(heat, drifted, semigroup_level(1.0, t_samples, grid),
                   [gaussian_seq], grid, [4, 8, 16, 32, 64])

    def test_shifted_pair_not_associated(self, heat, grid, gaussian_seq):
        shifted = summed_symbol_seq(heat, SymbolSeq(lambda n, v: np.ones(v.shape[:-1]),
                                                    re_bound=1.0))
        rep = single(heat, shifted, semigroup_level(2.0, self.t_samples, grid),
                     [gaussian_seq], grid, [4, 8, 16, 32])
        assert rep.verdict == "not-associated"

    def test_weighted_drifted_pair(self, heat, drifted, grid, gaussian_seq):
        rep = single(heat, drifted, resolvent_level([2.0, 2.0 + 5j, 11.0], grid, 1.0, 1.0),
                     [gaussian_seq], grid, [4, 8, 16, 32, 64])
        assert rep.verdict == "associated"

    def test_weighted_sqrt_decay(self, heat, grid, gaussian_seq):
        slow = summed_symbol_seq(heat, SymbolSeq(
            lambda n, v: np.exp(-np.sum(v * v, axis=-1)) / math.sqrt(n), re_bound=1.0))
        rep = single(heat, slow, resolvent_level([2.0, 11.0], grid, 1.0, 1.0), [gaussian_seq],
                     grid, [4, 8, 16, 32, 64])
        assert rep.verdict == "associated"
        assert rep.slope == pytest.approx(-0.5, abs=0.1)

    def test_weighted_rejects_samples_in_half_plane(self, grid):
        with pytest.raises(ValueError, match="Re <= omega"):
            resolvent_level([0.5], grid, 1.0, 1.0)


N_LIST = [4, 8, 16, 32]


#: each level with an empty sample list (test sequences, for the generator): (level, seqs)
EMPTY_SAMPLE_CHECKS = {
    "generator": lambda g, x: (generator_level, []),
    "resolvent": lambda g, x: (resolvent_level([], g), [x]),
    "weighted": lambda g, x: (resolvent_level([], g, 1.0, 1.0), [x]),
    "semigroup": lambda g, x: (semigroup_level(1.0, [], g), [x]),
    "derivative": lambda g, x: (derivative_level(1.0, 3, [], g), [x]),
}

#: each level with samples
LEVELS = {
    "generator": lambda g: generator_level,
    "resolvent": lambda g: resolvent_level([2.0], g),
    "weighted": lambda g: resolvent_level([2.0, 11.0], g, 1.0, 1.0),
    "semigroup": lambda g: semigroup_level(1.0, [0.5], g),
    "derivative": lambda g: derivative_level(1.0, 3, [2.0], g),
}


@pytest.mark.parametrize("label", list(EMPTY_SAMPLE_CHECKS))
def test_no_samples_is_not_a_verdict(label, heat, drifted, grid, gaussian_seq):
    # a sup over nothing is not a zero difference
    level, test_seqs = EMPTY_SAMPLE_CHECKS[label](grid, gaussian_seq)
    with pytest.raises(ValueError, match=f"^{label}: no "):
        check_association(heat, drifted, {label: level}, test_seqs, grid, N_LIST)


def test_an_empty_level_among_several_is_named(heat, drifted, grid, gaussian_seq):
    levels = {"generator": generator_level,
              "resolvent": resolvent_level([], grid),
              "semigroup": semigroup_level(1.0, [0.5], grid)}
    with pytest.raises(ValueError, match="^resolvent: no samples$"):
        check_association(heat, drifted, levels, [gaussian_seq], grid, N_LIST)


#: e^n on four doubling indices fits a power law with R^2 = 0.92, which the moderateness
#: heuristic accepts; on five (R^2 = 0.87) it is refused
EXPLODING_N_LIST = [4, 8, 16, 32, 64]


@pytest.mark.parametrize("label", list(LEVELS))
def test_every_level_refuses_a_sequence_that_is_not_moderate(label, heat, drifted, grid):
    gauss = GridFunction.gaussian(grid)
    with pytest.raises(ValueError, match="not moderate"):
        check_association(heat, drifted, {label: LEVELS[label](grid)},
                          [lambda n: math.exp(n) * gauss], grid, EXPLODING_N_LIST)


def test_test_sequence_on_another_grid_is_named(heat, drifted, grid):
    other = GridFunction.gaussian(Grid(1, 8.0, grid.points))
    with pytest.raises(ValueError, match=r"^test sequence 1 at n=4 lives on Grid"):
        check_association(heat, drifted, {"generator": generator_level},
                          [lambda n: GridFunction.gaussian(grid), lambda n: other], grid,
                          N_LIST)


def test_crosscheck_refuses_a_sequence_that_is_not_moderate(monkeypatch, grid):
    gauss = GridFunction.gaussian(grid)
    exploding = {name: (lambda n: math.exp(n) * gauss) for name in bundled_test_sequences(grid)}
    monkeypatch.setattr(association, "bundled_test_sequences", lambda g: exploding)
    with pytest.raises(ValueError, match="not moderate"):
        crosscheck_comparison_theorems(bundled_family_pairs()[:1], [2.0], grid)


class TestBlockKernel:
    """Each association sup is one (samples x modes) factor block per index."""

    def test_semigroup_check_makes_one_block_per_index(self, monkeypatch, heat, drifted, grid,
                                                       gaussian_seq):
        counts = Counter()

        def counting(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        # the semigroup level's factor calls phi in its own module
        counting(semigroup, "phi")
        counting(association, "multiplier_norms")
        single(heat, drifted, semigroup_level(1.0, SUITE_T_SAMPLES, grid), [gaussian_seq], grid,
               N_LIST)
        assert counts == {"phi": 2 * len(N_LIST), "multiplier_norms": len(N_LIST)}

    def test_two_dimensional_blocks_match_per_sample_norms(self):
        g2 = Grid(2, 3.0, 64)
        s = make_fractional_symbol_seq(lambda n: 1.0 + 1.0 / n, m=2.0, bound=2.0)
        s_tilde = summed_symbol_seq(s, SymbolSeq(
            lambda n, v: np.exp(-np.sum(v * v, axis=-1)) / n, re_bound=1.0))
        x = GridFunction.gaussian(g2)
        n_list, omega, b = [2, 4, 8, 16], 3.0, 1.0
        times, lams = [0.25, 1.0, 3.0], [4.0, 4.0 + 5j, 13.0]

        def per_sample(factor, samples):
            return [max(multiplier_norms(factor(n, sample)[None], power_spectra([x]))[0, 0]
                        for sample in samples) for n in n_list]

        def diff(n, lam):
            return (resolvent_factor(s.on_grid(n, g2), lam, g2, n)
                    - resolvent_factor(s_tilde.on_grid(n, g2), lam, g2, n))

        reports = check_association(s, s_tilde, {
            "generator": generator_level, "resolvent": resolvent_level(lams, g2),
            "weighted": resolvent_level(lams, g2, b, omega),
            "semigroup": semigroup_level(omega, times, g2)}, [lambda n: x], g2, n_list)
        expected = {
            "generator": per_sample(lambda n, _: s.on_grid(n, g2) - s_tilde.on_grid(n, g2),
                                    [None]),
            "resolvent": per_sample(diff, lams),
            "weighted": per_sample(lambda n, lam: lam**b * diff(n, lam), lams),
            "semigroup": per_sample(lambda n, t: math.exp(-omega * t)
                                    * (phi(t, s.on_grid(n, g2)) - phi(t, s_tilde.on_grid(n, g2))),
                                    times),
        }
        for label, report in reports.items():
            assert report.norms == pytest.approx(expected[label], rel=1e-14, abs=0.0), label
        cert = certify_growth(s, n_list, omega, b, lams, times, g2)
        for n in n_list:
            assert cert.resolvent_bounds[n] == max(
                abs(lam) ** b * np.max(np.abs(resolvent_factor(s.on_grid(n, g2), lam, g2, n)))
                for lam in lams)
            assert cert.semigroup_bounds[n] == max(
                np.exp(-omega * t) * t ** (-b) * np.max(np.abs(phi(t, s.on_grid(n, g2))))
                for t in times)


class TestCrosscheck:
    def test_bundled_suite_has_no_disagreements(self, grid):
        pairs = bundled_family_pairs()
        assert len(pairs) >= 8
        checks = crosscheck_comparison_theorems(pairs, [2.0], grid)
        characters = {c.character for c in checks}
        assert characters == {"associated", "not-associated", "borderline"}
        for c in checks:
            assert c.disagreements() == []

    def test_borderline_pair_recorded_as_agreement(self, grid):
        pairs = [p for p in bundled_family_pairs() if p.character == "borderline"]
        checks = crosscheck_comparison_theorems(pairs, [2.0], grid)
        assert checks[0].generator == "inconclusive"
        assert checks[0].resolvent == "inconclusive"
        assert checks[0].disagreements() == []

    def test_contradictions_are_opposite_verdicts_only(self):
        # inconclusive reads and a borderline character contradict nothing
        check = PairCrossCheck("p", "associated", "not-associated", "inconclusive",
                               "associated", "not-associated")
        assert check.contradictions() == ["generator", "semigroup"]
        check = PairCrossCheck("p", "not-associated", "associated", "inconclusive",
                               "not-associated", "inconclusive")
        assert check.contradictions() == ["generator"]
        for verdict in ("associated", "not-associated", "inconclusive"):
            assert PairCrossCheck("p", "borderline", *[verdict] * 4).contradictions() == []

    def test_empty_pair_list(self, grid):
        assert crosscheck_comparison_theorems([], [2.0], grid) == []

    def test_one_pass_matches_the_single_level_checks(self, grid, monkeypatch):
        # the cross-check runs all four levels of a pair in one kernel call; each
        # level must give the verdict and envelope of that level run alone
        kernel_reports = []
        kernel = association.check_association

        def recording(*args, **kwargs):
            kernel_reports.append(kernel(*args, **kwargs))
            return kernel_reports[-1]

        monkeypatch.setattr(association, "check_association", recording)
        pairs, lams = bundled_family_pairs(), [2.0, 10.0]
        checks = crosscheck_comparison_theorems(pairs, lams, grid)
        monkeypatch.undo()
        assert len(kernel_reports) == len(pairs)
        seqs_all = bundled_test_sequences(grid)
        for pr, check, reports in zip(pairs, checks, kernel_reports):
            seqs = [seqs_all[name] for name in pr.seq_names]
            args = (seqs, grid, pr.n_list)
            alone = {
                "generator": single(pr.s, pr.s_tilde, generator_level, *args),
                "resolvent": single(pr.s, pr.s_tilde, resolvent_level(lams, grid), *args),
                "weighted": single(pr.s, pr.s_tilde,
                                   resolvent_level([3.0, 3.0 + 5j, 12.0], grid, 1.0, 2.0), *args),
                "semigroup": single(pr.s, pr.s_tilde,
                                    semigroup_level(2.0, SUITE_T_SAMPLES, grid), *args),
            }
            assert list(reports) == [f"{pr.name}/{level}" for level in alone]
            for (level, expected), report in zip(alone.items(), reports.values()):
                assert getattr(check, level) == report.verdict == expected.verdict, level
                assert report.norms == pytest.approx(expected.norms, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("grid", [Grid(1, 4.0, 128), Grid(2, 4.0, 16)], ids=["1d", "2d"])
    def test_shared_pass_equals_standalone_checks_bitwise(self, grid, monkeypatch):
        # the cross-check shares spectra, moderateness fits and the base family's
        # blocks between pairs; each pair must read exactly as its own call does
        calls = []
        kernel = association.check_association

        def recording(*args, **kwargs):
            calls.append((args, kernel(*args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(association, "check_association", recording)
        pairs = bundled_family_pairs()
        checks = crosscheck_comparison_theorems(pairs, [2.0, 10.0], grid)
        monkeypatch.undo()
        assert len(calls) == len(pairs)
        for pr, check, (args, reports) in zip(pairs, checks, calls):
            assert args[:2] == (pr.s, pr.s_tilde)
            alone = check_association(*args)
            assert list(reports) == list(alone)
            for (label, report), expected in zip(reports.items(), alone.values()):
                assert np.array(report.norms).tobytes() == np.array(expected.norms).tobytes()
                assert (report.verdict, report.slope, report.r_squared, report.tol_assoc,
                        report.label) == (expected.verdict, expected.slope, expected.r_squared,
                                          expected.tol_assoc, expected.label), label
            assert [getattr(check, level) for level in CROSSCHECK_LEVELS] == [
                report.verdict for report in alone.values()]
            assert check.contradictions() == []

    def test_lambda_on_spectrum_names_the_mode(self, grid):
        # a_n(0) = 0 for the heat family, so lambda = 0 hits the spectrum at xi = 0
        with pytest.raises(ResolventSingularityError,
                           match=r"lambda=0\.0 within .* xi=\[0\.\] \(n=4\)"):
            crosscheck_comparison_theorems(bundled_family_pairs()[:2], [0.0], grid)


class TestDerivativeEngine:
    """The Arendt derivative bound as a level, through the operator-norm kernel."""

    def test_zero_symbol_closed_form(self, grid):
        # modes with a = 0: quantity is (k+1)/lambda when omega = 0
        zero = make_poly_symbol_seq(lambda n: (0.0,), name="zero")
        lams, k_max = [0.5, 2.0, 10.0], 5
        sups = operator_sups(zero, {"d": derivative_level(0.0, k_max, lams, grid)}, grid, [1])
        expected = [(k + 1) / lam for lam in lams for k in range(k_max + 1)]
        assert sups["d"][0] == pytest.approx(expected, rel=1e-12)

    def test_heat_mode_reference_value(self, grid):
        # a = -1, lambda = 2, omega = 0, k = 0:
        # (lambda - omega) |R(lambda)/lambda| = 2 / (2 * 3) = 1/3
        minus_one = make_poly_symbol_seq(lambda n: (-1.0,), name="-1")
        sups = operator_sups(minus_one, {"d": derivative_level(0.0, 0, [2.0], grid)}, grid, [1])
        assert sups["d"][0, 0] == pytest.approx(1.0 / 3.0, rel=1e-14)

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

    def test_derivative_sups_argmax_and_guard(self, heat, grid):
        lams, k_max, n_list = list(1.0 + np.logspace(-2, 4, 25)), 20, [4, 8, 16, 32]
        sups = operator_sups(heat, {"arendt": derivative_level(1.0, k_max, lams, grid)}, grid,
                             n_list)["arendt"]
        assert sups.shape == (len(n_list), len(lams) * (k_max + 1))
        assert np.all(np.isfinite(sups))
        # the sup and where it was reached: the rows run over (lambda, k), k fastest
        for n, row in zip(n_list, sups):
            j, k = divmod(int(np.argmax(row)), k_max + 1)
            a = heat.on_grid(n, grid)
            direct = (lams[j] - 1.0) ** (k + 1) * np.max(
                np.abs(resolvent_over_lambda_derivative(lams[j], a, k)))
            assert np.max(row) == pytest.approx(direct, rel=1e-14)
        assert is_moderate_fit(fit_moderate(dict(zip(n_list, np.max(sups, axis=1)))))
        with pytest.raises(ValueError, match="k_max"):
            derivative_level(1.0, 61, lams, grid)
        with pytest.raises(ValueError, match="must exceed omega"):
            derivative_level(1.0, 3, [1.0], grid)

    def test_k_zero_consistent_with_resolvent_norm(self, heat, grid):
        # (lambda - omega)^1 (R/lambda) at k=0 equals (lambda-omega)/lambda * R
        lam, omega = 3.0, 1.0
        sups = operator_sups(heat, {"d": derivative_level(omega, 0, [lam], grid),
                                    "r": resolvent_level([lam], grid)}, grid, [1])
        assert abs(sups["d"][0, 0] - (lam - omega) / lam * sups["r"][0, 0]) < 1e-14

    def test_check_derivative_association_drifted_pair(self, heat, drifted, grid, gaussian_seq):
        rep = single(heat, drifted, derivative_level(1.0, 10, [1.5, 2.0, 4.0], grid),
                     [gaussian_seq], grid, [4, 8, 16, 32, 64])
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
