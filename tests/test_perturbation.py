"""Commuting bounded perturbation tests: the quadrature construction and claims."""
import numpy as np
import pytest

from semigrouplab.perturbation import (BoundedMultiplierSeq, constant_coefficient_example,
                                       perturbed_factor, perturbed_factor_closed,
                                       perturbed_S, perturbation_claims_suite,
                                       summed_symbol_seq)
from semigrouplab.quadrature import composite_gauss_points
from semigrouplab.semigroup import MultiplierOp, apply_S, phi, resolvent_factor
from semigrouplab.spectral import Grid, GridFunction, lp_norm
from semigrouplab.symbols import perturbed_heat_seq, heat_symbol_seq

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
    def test_zero_perturbation_reproduces_semigroup(self, heat, grid, gaussian):
        out = perturbed_S(heat, BoundedMultiplierSeq.zero(), 1, 0.7, gaussian)
        ref = apply_S(heat, 1, 0.7, gaussian)
        assert lp_norm(out - ref, 2) < 1e-12

    def test_factor_matches_summed_symbol(self, heat, grid):
        # the central oracle: quadrature form equals phi(t, a + b) per mode
        B = BoundedMultiplierSeq.constant(0.4 - 0.9j)
        for t in (0.2, 1.0, 3.0):
            quad = perturbed_factor(heat, B, 2, t, grid)
            closed = perturbed_factor_closed(heat, B, 2, t, grid)
            assert np.max(np.abs(quad - closed)) < 1e-10

    def test_imaginary_constant_magnitudes(self, heat, grid):
        kappa = 2.5
        B = BoundedMultiplierSeq.constant(1j * kappa)
        a = heat.on_grid(1, grid)
        fac = perturbed_factor(heat, B, 1, 0.8, grid)
        direct = phi(0.8, a + 1j * kappa)
        assert np.max(np.abs(np.abs(fac) - np.abs(direct))) < 1e-10

    def test_linearity_in_input(self, heat, grid):
        B = BoundedMultiplierSeq.constant(0.3j)
        rng = np.random.default_rng(31)
        u = GridFunction(grid, rng.standard_normal(128))
        v = GridFunction(grid, rng.standard_normal(128))
        both = perturbed_S(heat, B, 1, 0.5, u + v)
        split = perturbed_S(heat, B, 1, 0.5, u) + perturbed_S(heat, B, 1, 0.5, v)
        assert lp_norm(both - split, 2) < 1e-12

    def test_time_zero(self, heat, grid, gaussian):
        B = BoundedMultiplierSeq.constant(1.0j)
        assert lp_norm(perturbed_S(heat, B, 1, 0.0, gaussian), 2) == 0.0

    def test_laplace_identity_for_perturbed_family(self, heat, grid):
        # lambda int e^(-lambda t) S^B(t) dt = R(lambda, a + b) per mode
        B = BoundedMultiplierSeq.constant(-0.5 + 0.7j)
        summed = summed_symbol_seq(heat, B)
        lam, n = 2.0, 3
        pts, wts = composite_gauss_points(0.0, 40.0 / lam, 64)
        quad = np.zeros(grid.shape, dtype=complex)
        for p, w in zip(pts, wts):
            quad += w * np.exp(-lam * p) * perturbed_factor_closed(heat, B, n, p, grid)
        target = resolvent_factor(summed, n, lam, grid)
        assert np.max(np.abs(lam * quad - target)) < 1e-8

    def test_bound_validation(self, grid):
        B = BoundedMultiplierSeq(eval=lambda n, v: np.full(v.shape[:-1], 2.0),
                                 c_bound=1.0)
        with pytest.raises(ValueError, match="exceeds its bound"):
            B.validate_on(grid, [1, 2])


class TestProposition49Suite:
    def test_vanishing_inverse_rate(self, heat, grid):
        B = BoundedMultiplierSeq.constant(0.5j, name="B")
        C = BoundedMultiplierSeq.vanishing(lambda n: 1.0 / n, name="C")
        rep = perturbation_claims_suite(heat, perturbed_heat_seq(), B, C,
                                    grid, [4, 8, 16, 32, 64], omega=1.5)
        assert rep.verdicts["perturbed-pair"] == "associated"
        assert rep.pair_association.slope == pytest.approx(-1.0, abs=0.1)
        assert rep.verdicts["base-weighted"] == "associated"
        assert rep.verdicts["transported"] == "associated"
        assert rep.verdicts["growth-moderate"]

    def test_zero_c_sequence_gives_identical_pairs(self, heat, grid):
        B = BoundedMultiplierSeq.constant(0.5j, name="B")
        C = BoundedMultiplierSeq.vanishing(lambda n: 0.0, name="0")
        rep = perturbation_claims_suite(heat, heat, B, C, grid, [4, 8, 16, 32],
                                    omega=1.5)
        assert max(rep.pair_association.norms) == 0.0

    def test_identical_base_families_transport_trivially(self, heat, grid):
        B = BoundedMultiplierSeq.constant(0.25j, name="B")
        C = BoundedMultiplierSeq.vanishing(lambda n: 1.0 / n, name="C")
        rep = perturbation_claims_suite(heat, heat, B, C, grid, [4, 8, 16, 32],
                                    omega=1.5)
        assert max(rep.transported_association.norms) == 0.0
        assert rep.verdicts["transported"] == "associated"

    def test_claim_norms_match_quadrature_factors(self, heat, grid, gaussian):
        # the suite works in closed form; the quadrature factors are the oracle
        B = BoundedMultiplierSeq.constant(0.5j, name="B")
        C = BoundedMultiplierSeq.vanishing(lambda n: 1.0 / n, name="C")
        drifted = perturbed_heat_seq()
        n_list, ts, omega = [4, 8, 16, 32], [0.5, 1.5, 3.0], 1.5
        rep = perturbation_claims_suite(heat, drifted, B, C, grid, n_list,
                                        omega=omega, t_samples=ts)

        def quadrature_norms(s_other, B_other):
            norms = []
            for n in n_list:
                weighted = []
                for t in ts:
                    d = (perturbed_factor(heat, B, n, t, grid)
                         - perturbed_factor(s_other, B_other, n, t, grid))
                    x = MultiplierOp(grid, d).apply(gaussian)
                    weighted.append(np.exp(-omega * t) * lp_norm(x, 2))
                norms.append(max(weighted))
            return norms

        assert rep.pair_association.norms == pytest.approx(
            quadrature_norms(heat, B.plus(C)), rel=1e-10)
        assert rep.transported_association.norms == pytest.approx(
            quadrature_norms(drifted, B), rel=1e-10)

    def test_non_vanishing_c_rejected(self, heat, grid):
        B = BoundedMultiplierSeq.constant(0.5j, name="B")
        C = BoundedMultiplierSeq.vanishing(lambda n: 1.0, name="const")
        with pytest.raises(ValueError, match="vanish"):
            perturbation_claims_suite(heat, heat, B, C, grid, [4, 8, 16, 32], omega=1.5)


class TestClosingExample:
    def test_heat_coefficients_associated_with_unit_slope(self, grid):
        f = GridFunction.gaussian(grid, width=1.8)
        rep = constant_coefficient_example(f, (0.0, 0.0, HEAT_C2), [4, 8, 16, 32, 64], t_max=5.0)
        assert rep.verdict == "associated"
        assert rep.slope == pytest.approx(-1.0, abs=0.1)

    def test_tail_norm_drops_by_at_least_eight(self, grid):
        f = GridFunction.gaussian(grid)
        rep = constant_coefficient_example(f, (0.0, 0.0, HEAT_C2), [4, 8, 16, 32, 64], t_max=5.0)
        assert rep.norms[0] / rep.norms[-1] >= 8.0

    def test_zero_data_gives_zero_norms(self, grid):
        rep = constant_coefficient_example(GridFunction.zero(grid), (0.0, 0.0, HEAT_C2),
                              [4, 8, 16, 32], t_max=5.0)
        assert max(rep.norms) == 0.0
        assert rep.verdict == "associated"

    def test_unstable_coefficients_rejected(self, grid):
        with pytest.raises(ValueError):
            constant_coefficient_example(GridFunction.gaussian(grid), (0.0, 0.0, -1.0),
                            [4, 8], t_max=1.0)
