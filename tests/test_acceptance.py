"""Acceptance suite: every bundled scenario at its frozen tolerance.

Each test prints one pass/fail line (visible with pytest -s) and asserts the
criterion.  Scenario parameters are fixed here, nothing is calibrated at
run time.
"""
import filecmp
import math
from pathlib import Path

import numpy as np

from semigrouplab.association import (bundled_family_pairs, check_association,
                                      crosscheck_comparison_theorems, fit_moderate)
from semigrouplab.cauchy import (ForcingSeq, bump_test_function,
                                 integral_equation_residual, solve_sequence,
                                 very_weak_pairing, weak_limit_extract)
from semigrouplab.cli import main
from semigrouplab.config import default_config, serialize_config
from semigrouplab.perturbation import perturbation_claims_suite
from semigrouplab.quadrature import composite_gauss_points, trapezoid_weights
from semigrouplab.semigroup import (apply_S, bromwich_S,
                                    laplace_identity_residual, phi,
                                    pseudoresolvent_residual, resolvent_over_lambda_derivative,
                                    semigroup_level)
from semigrouplab.spectral import (DistributionRep, Grid, GridFunction,
                                   lp_norm, mollify)
from semigrouplab.symbols import (constant_symbol_seq, heat_symbol_seq,
                                  make_fractional_symbol_seq, make_poly_symbol_seq,
                                  perturbed_heat_seq)

HEAT_C2 = 1.0 / (4.0 * np.pi**2)


def record(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_laplace_identity():
    grid = Grid(1, 8.0, 256)
    heat = heat_symbol_seq()
    u = GridFunction.gaussian(grid)
    omega = 0.0
    worst = 0.0
    for lam in (2.0, 10.0, 1000.0):
        worst = max(worst, laplace_identity_residual(
            heat, 1, lam, u, T=40.0 / (lam - omega)))
    record("01 Laplace identity", worst < 1e-8, f"max relative residual {worst:.3e}")


def test_criterion_02_pseudoresolvent_identity():
    grid = Grid(1, 8.0, 256)
    families = [heat_symbol_seq(),
                make_fractional_symbol_seq(lambda n: 1.0 + 1.0 / n, m=2.0, bound=2.0)]
    rng = np.random.default_rng(42)
    u = GridFunction.gaussian(grid)
    worst = 0.0
    for _ in range(100):
        lam = 1.0 + rng.uniform(0.5, 50.0) + 1j * rng.uniform(-20.0, 20.0)
        mu = 1.0 + rng.uniform(0.5, 50.0) + 1j * rng.uniform(-20.0, 20.0)
        for fam in families:
            worst = max(worst, pseudoresolvent_residual(fam, 3, lam, mu, u))
    record("02 pseudoresolvent identity", worst < 1e-12, f"max residual {worst:.3e}")


def test_criterion_03_functional_equation():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(1000):
        t = rng.uniform(0.05, 2.0)
        s = rng.uniform(0.05, 2.0)
        radius = rng.uniform(0.0, 100.0)
        angle = rng.uniform(0.5 * np.pi, 1.5 * np.pi)  # Re a <= 0
        a = radius * np.exp(1j * angle)
        lhs = complex(phi(t, a) * phi(s, a))
        pts, wts = composite_gauss_points(0.0, s, panels=64)
        rhs = complex(np.sum(wts * (phi(t + pts, a) - phi(pts, a))))
        worst = max(worst, abs(lhs - rhs))
    record("03 functional equation", worst < 1e-8, f"max residual {worst:.3e}")


def test_criterion_04_bromwich_oracle():
    grid = Grid(1, 8.0, 256)
    heat = heat_symbol_seq()
    u = GridFunction.gaussian(grid)
    times = (0.25, 0.5, 1.0)
    direct = [apply_S(heat, 1, t, u) for t in times]
    errs_200 = [lp_norm(d - c, 2)
                for d, c in zip(direct, bromwich_S(heat, 1, times, u, 2.0, 200.0, 20000))]
    errs_400 = [lp_norm(d - c, 2)
                for d, c in zip(direct, bromwich_S(heat, 1, times, u, 2.0, 400.0, 40000))]
    worst = max(errs_200)
    agg = math.sqrt(sum(e * e for e in errs_200)) / math.sqrt(sum(e * e for e in errs_400))
    ok = worst < 1e-4 and 1.0 <= agg <= 4.0
    record("04 Bromwich oracle", ok,
           f"max distance {worst:.3e}; doubling ratio {agg:.2f} (halving within x2)")


def test_criterion_05_mild_solution_residual():
    grid = Grid(1, 8.0, 512)
    heat = heat_symbol_seq()
    u0 = GridFunction.gaussian(grid)
    f = ForcingSeq.zero(grid)
    res = []
    for dt in (1 / 128, 1 / 256):
        tg = np.arange(0.0, 0.5 + 0.5 * dt, dt)
        sol = solve_sequence(heat, [1], lambda n: u0, f, tg)
        res.append(integral_equation_residual(sol, heat, 1, f, 0.5))
    order = math.log2(res[0] / res[1])
    ok = res[0] < 1e-5 and 1.8 <= order <= 2.2
    record("05 mild-solution residual", ok,
           f"residual {res[0]:.3e} at dt=1/128; observed order {order:.3f}")


def test_criterion_06_very_weak_to_weak():
    grid = Grid(1, 8.0, 2048)
    heat = heat_symbol_seq()
    delta = DistributionRep.delta(grid)
    n_list = [4, 8, 16, 32]
    tg = np.arange(0.0, 1.0 + 1e-9, 1 / 128)
    sol = solve_sequence(heat, n_list, lambda n: mollify(delta, n),
                         ForcingSeq.zero(grid), tg)
    tests = [bump_test_function(grid, 0.5, 0.4, 0.0, 1.0, "psi0"),
             bump_test_function(grid, 0.45, 0.35, 0.5, 1.2, "psi1"),
             bump_test_function(grid, 0.55, 0.4, -0.4, 1.5, "psi2")]

    # independent oracle: dense quadrature of the closed-form heat kernel
    xf = np.linspace(-4.0, 4.0, 8001)
    tw = trapezoid_weights(len(tg), float(tg[1] - tg[0]))
    oracles = {}
    for psi in tests:
        rho_f = np.interp(xf, grid.axis_points(), psi.rho.values.real)
        inner = np.zeros(len(tg))
        for j, t in enumerate(tg):
            if t > 0:
                kern = np.sqrt(np.pi / t) * np.exp(-np.pi**2 * xf**2 / t)
                inner[j] = np.trapezoid(kern * rho_f, xf)
        oracles[psi.label] = float(np.sum(tw * psi.chi(tg) * inner))

    pairings = {(n, psi.label): very_weak_pairing(sol, psi, n)
                for n in n_list for psi in tests}
    report = weak_limit_extract(pairings, tol=1e-3)
    worst = max(abs(report.limits[psi.label] - oracles[psi.label]) for psi in tests)
    ok = worst < 1e-3 and report.all_convergent()
    record("06 very weak -> weak", ok,
           f"max oracle deviation {worst:.3e}; all pairings convergent "
           f"{report.all_convergent()}")


def test_criterion_07_mollifier_scaling():
    grid = Grid(1, 4.0, 2048)
    ns = [2, 4, 8, 16, 32]
    worst = 0.0
    for alpha in (0, 1):
        rep = (DistributionRep.delta(grid) if alpha == 0
               else DistributionRep.delta_derivative(grid))
        for q in (2.0, 4.0):
            fit = fit_moderate({n: lp_norm(mollify(rep, n), q) for n in ns})
            expected = alpha + (1.0 - 1.0 / q)
            worst = max(worst, abs(fit.slope - expected))
    record("07 mollifier scaling", worst < 0.1,
           f"max exponent deviation {worst:.3e}")


def test_criterion_08_constant_coefficient_example():
    grid = Grid(1, 4.0, 128)
    f = GridFunction.gaussian(grid, width=1.8)
    # c_0 and c_2 perturbed by 1/n; sup over 50 times in (0, 5] at omega = 0, as `associate` runs it
    coeffs = (0.0, 0.0, HEAT_C2)
    level = semigroup_level(0.0, np.linspace(0, 5.0, 51)[1:], grid)
    rep = check_association(perturbed_heat_seq(coeffs), make_poly_symbol_seq(lambda n: coeffs),
                            {"drift": level}, [lambda n: f], grid, [4, 8, 16, 32, 64])["drift"]
    ok = rep.verdict == "associated" and abs(rep.slope + 1.0) <= 0.1
    record("08 coefficient-drift example", ok,
           f"verdict {rep.verdict}; slope {rep.slope:.3f}")


def test_criterion_09_theorem_agreement_suite():
    grid = Grid(1, 4.0, 128)
    pairs = bundled_family_pairs()
    checks = crosscheck_comparison_theorems(pairs, [2.0], grid)
    characters = {c.character for c in checks}
    disagreements = sum(len(c.disagreements()) for c in checks)
    ok = (len(pairs) >= 8 and disagreements == 0
          and characters == {"associated", "not-associated", "borderline"})
    record("09 theorem agreement", ok,
           f"{len(pairs)} pairs, {disagreements} disagreements, mixed verdicts "
           f"{sorted(characters)}")


def test_criterion_10_perturbation_oracle():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(1000):
        ra, rb = rng.uniform(0.0, 100.0, size=2)
        ta, tb = rng.uniform(0.5 * np.pi, 1.5 * np.pi, size=2)
        a = ra * np.exp(1j * ta)
        b = rb * np.exp(1j * tb)
        t = rng.uniform(0.01, 5.0)
        pts, wts = composite_gauss_points(0.0, t, panels=64)
        integral = np.sum(wts * np.exp(pts * b) * phi(pts, a))
        quad = np.exp(t * b) * phi(t, a) - b * integral
        worst = max(worst, abs(complex(quad) - complex(phi(t, a + b))))

    grid = Grid(1, 4.0, 128)
    heat = heat_symbol_seq()
    B = constant_symbol_seq(lambda n: 0.5j, "B")
    C = constant_symbol_seq(lambda n: 1.0 / n, "C")
    suite = perturbation_claims_suite(heat, heat, B, C, grid, [4, 8, 16, 32, 64],
                                  omega=1.5)
    slope = suite.pair_association.slope
    ok = worst < 1e-10 and abs(slope + 1.0) <= 0.1
    record("10 perturbation oracle", ok,
           f"max oracle deviation {worst:.3e}; claim-2 slope {slope:.3f}")


def test_criterion_11_derivative_engine():
    rng = np.random.default_rng(45)
    worst = 0.0
    for _ in range(100):
        lam = rng.uniform(1.5, 20.0)
        a = complex(-rng.uniform(0.0, 50.0), rng.uniform(-50.0, 50.0))

        def g(x):
            return 1.0 / (x * (x - a))

        for k in (1, 2, 3):
            h = 1e-2 * max(1.0, abs(lam))

            def fd(hh):
                if k == 1:
                    return (g(lam + hh) - g(lam - hh)) / (2 * hh)
                if k == 2:
                    return (g(lam + hh) - 2 * g(lam) + g(lam - hh)) / hh**2
                return (g(lam + 2 * hh) - 2 * g(lam + hh) + 2 * g(lam - hh)
                        - g(lam - 2 * hh)) / (2 * hh**3)

            rich = (4.0 * fd(h / 2) - fd(h)) / 3.0
            exact = math.factorial(k) * resolvent_over_lambda_derivative(
                lam, np.array([a]), k)[0]
            worst = max(worst, abs(rich - exact) / abs(exact))
    record("11 derivative engine", worst < 1e-6, f"max relative error {worst:.3e}")


def test_criterion_12_determinism(tmp_path: Path):
    cfg = default_config("verify")
    cfg_path = tmp_path / "default.cfg"
    cfg_path.write_text(serialize_config(cfg))
    outs = []
    for run in ("run1", "run2"):
        out = tmp_path / run
        code = main(["verify", "--config", str(cfg_path), "--out", str(out),
                     "--no-plots"])
        assert code == 0
        outs.append(out)
    csvs = sorted(p.name for p in outs[0].glob("*.csv"))
    identical = all(filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)
                    for name in csvs)
    record("12 determinism", identical and len(csvs) > 0,
           f"{len(csvs)} CSV file(s) byte-identical across runs: {identical}")
