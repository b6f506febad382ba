"""Commuting bounded perturbation tests: the quadrature construction and claims."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semigrouplab.errors import OverflowGuardError
from semigrouplab.perturbation import (PERTURBATION_PANELS, BoundedMultiplierSeq,
                                       constant_coefficient_example,
                                       perturbation_quadrature, perturbed_factor,
                                       perturbed_S,
                                       perturbation_claims_suite, summed_symbol_seq)
from semigrouplab.quadrature import composite_gauss_points
from semigrouplab.semigroup import (MultiplierOp, apply_S, integrated_factor, phi,
                                    phi_at_times, resolvent_factor)
from semigrouplab.spectral import Grid, GridFunction, lp_norm
from semigrouplab.symbols import (PolySymbolParams, heat_symbol_seq, make_poly_symbol_seq,
                                  perturbed_heat_seq)

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
        summed = summed_symbol_seq(heat, B)
        for t in (0.2, 1.0, 3.0):
            quad = perturbed_factor(heat, B, 2, t, grid)
            closed = integrated_factor(summed, 2, t, grid)
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
            quad += w * np.exp(-lam * p) * integrated_factor(summed, n, p, grid)
        target = resolvent_factor(summed, n, lam, grid)
        assert np.max(np.abs(lam * quad - target)) < 1e-8

    def test_bound_validation(self, grid):
        B = BoundedMultiplierSeq(eval=lambda n, v: np.full(v.shape[:-1], 2.0),
                                 c_bound=1.0)
        with pytest.raises(ValueError, match="exceeds its bound"):
            B.validate_on(grid, [1, 2])


def plain_quadrature(t, a, b):
    """The 768-node composite rule on scalars, every node evaluated directly.

    Returns the value and the sum of the magnitudes of its terms; the terms
    cancel down to phi(t, a + b), so rounding is relative to that sum.
    """
    pts, wts = composite_gauss_points(0.0, t, PERTURBATION_PANELS)
    terms = wts * np.exp(pts * b) * phi_at_times(pts, a)
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
            perturbed_factor(heat, BoundedMultiplierSeq.constant(800.0), 1, 1.0, grid)

        def constant_family(c0):
            return make_poly_symbol_seq(PolySymbolParams(rule=lambda n: (c0, 0.0, 0.0)))

        # past the guard: Re a t > 709 overflows phi(t, a)
        with pytest.raises(OverflowGuardError):
            perturbed_factor(constant_family(720.0), BoundedMultiplierSeq.constant(-30.0),
                             1, 1.0, grid)
        # past the guard: e^(s b) phi(s, 0) = e^700 s overflows at s near t = 1e6
        cases = [(constant_family(0.0), 0.0007, 1e6)]
        cases += [(constant_family(c0), b, 1.0) for c0 in (690.0, 705.0, 709.0, 712.0)
                  for b in (-60.0, -30.0 + 2j, -5.0, 0.0)]
        for s, b, t in cases:
            try:
                out = perturbed_factor(s, BoundedMultiplierSeq.constant(b), 1, t, grid)
            except OverflowGuardError:
                continue
            assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_zeros_at_time_zero(self, heat, dimension):
        g = Grid(dimension, 4.0, 16)
        out = perturbed_factor(heat, BoundedMultiplierSeq.constant(0.4 - 0.9j), 2, 0.0, g)
        assert out.shape == g.shape and out.dtype == complex
        assert not np.any(out)


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
