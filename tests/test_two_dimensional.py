"""Two-dimensional grid coverage: transforms, mollification, solve, symbols."""
import numpy as np
import pytest

from semigrouplab.cauchy import ForcingSeq, duhamel_solve
from semigrouplab.semigroup import MultiplierOp, phi, resolvent_factor
from semigrouplab.spectral import (DistributionRep, Grid, GridFunction,
                                   mollifier, lp_norm, mollify, transform)
from semigrouplab.symbols import make_fractional_symbol_seq


@pytest.fixture(scope="module")
def grid2():
    return Grid(2, 4.0, 64)


@pytest.fixture(scope="module")
def schrodinger2():
    return make_fractional_symbol_seq("one-plus-inverse", m=2.0)


def test_gaussian_self_dual_2d(grid2):
    uhat = transform(GridFunction.gaussian(grid2))
    fx, fy = np.moveaxis(grid2.frequency_vectors(), -1, 0)
    expected = np.exp(-np.pi * (fx**2 + fy**2))
    assert np.max(np.abs(uhat.values - expected)) < 1e-8


def test_parseval_2d(grid2):
    rng = np.random.default_rng(9)
    u = GridFunction(grid2, rng.standard_normal((64, 64)) * (1 + 1j))
    spectral = np.sqrt(np.sum(np.abs(transform(u).values) ** 2) * grid2.freq_spacing ** 2)
    assert lp_norm(u, 2) == pytest.approx(spectral, rel=1e-10)


def test_mollify_delta_2d(grid2):
    out = mollify(DistributionRep.delta(grid2), 2)
    assert lp_norm(out - mollifier(grid2, 2), 1) < 1e-6
    # crude delta approximation at n=2: pairing within the second-moment error
    pairing = np.sum(out.values * GridFunction.gaussian(grid2, width=2.0).values)
    assert pairing * grid2.cell_volume == pytest.approx(1.0, abs=0.1)


def test_free_evolution_2d(schrodinger2, grid2):
    # diagonal application matches the per-mode factor on a pure mode
    u = GridFunction.gaussian(grid2)
    S = MultiplierOp(grid2, phi(0.3, schrodinger2.on_grid(2, grid2)))
    uhat = transform(u).values
    fx, fy = np.moveaxis(grid2.frequency_vectors(), -1, 0)
    a = 1j * 1.5 * (fx**2 + fy**2)
    expected = transform(S.apply(u)).values
    assert np.max(np.abs(expected - phi(0.3, a) * uhat)) < 1e-10
    resolvent = MultiplierOp(grid2, resolvent_factor(schrodinger2.on_grid(2, grid2), 2.0, grid2, 2))
    assert lp_norm(resolvent.apply(u), 2) > 0


def test_duhamel_solve_2d(schrodinger2, grid2):
    u0 = GridFunction.gaussian(grid2)
    tg = np.arange(0.0, 0.25 + 1e-9, 1 / 32)
    *_, last = duhamel_solve(schrodinger2.on_grid(2, grid2), 2, u0, ForcingSeq.zero(grid2), tg)
    # unitary evolution conserves the L^2 norm of w per mode
    assert lp_norm(GridFunction(grid2, last), 2) == pytest.approx(lp_norm(u0, 2), rel=1e-10)
