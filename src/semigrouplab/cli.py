"""Experiment harness: scenario execution, verification suites, CSV emission.

Subcommands: verify | solve | associate | perturb | growth.  Exit codes:
0 on success, 1 when an enabled suite misses its tolerance, 2 on usage or
configuration errors.  The outputs are deterministic CSVs and text summaries.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import csvio
from .association import (bundled_family_pairs, bundled_test_sequences, check_association,
                          check_resolvent_norm_bounds, crosscheck_comparison_theorems)
from .cauchy import (ForcingSeq, SliceSums, bump_test_function, duhamel_solve,
                     integral_equation_residual, very_weak_pairing, weak_limit_extract)
from .config import (PERTURB_ORACLE_T_MAX, ExperimentConfig, comparison_operand, default_config,
                     load_config, serialize_config, time_grid)
from .errors import (ConfigError, OverflowGuardError, ResolutionError, SemigroupLabError,
                     SpaceTimeSupportError)
from .perturbation import perturbation_claims_suite, perturbation_quadrature, perturbed_factor
from .semigroup import (LAPLACE_STEP_MAX, TIME_INTEGRAL_PANELS, Evaluations, bromwich_S,
                        certify_growth, generator_level, laplace_identity_residual, phi,
                        pseudoresolvent_residual, relative_defects, resolvent_level,
                        sample_axis, semigroup_level, time_integral)
from .spectral import DistributionRep, Grid, GridFunction, lp_norm, mollify
from .symbols import (MIN_FIT_INDICES, SymbolSeq, constant_symbol_seq, make_poly_symbol_seq,
                      perturbed_heat_seq, summed_symbol_seq)

#: subcommands that judge a decay rate or a weak limit over the indices of n_list
FIT_COMMANDS = ("solve", "associate", "perturb")
#: time samples of the growth certificate: log-spaced, reaching t -> 0 and large t
GROWTH_T_SAMPLES = list(np.logspace(-3, np.log10(50.0), 40))
#: the very-weak pairing test functions of ``solve``: label, time center and half-width in
#: units of t_end, center on x_1 and radius in space; the supports reach |x| = 1.9
PAIRING_BUMPS = (("psi0", 0.5, 0.4, 0.0, 1.0), ("psi1", 0.45, 0.35, 0.5, 1.2),
                 ("psi2", 0.55, 0.4, -0.4, 1.5))
#: largest gap, in grid spacings, between a data file's coordinates and its grid point
DATA_COORD_TOL = 1e-3


def build_grid(cfg: ExperimentConfig) -> Grid:
    return Grid(cfg.dimension, cfg.half_width, cfg.points)


def build_family(cfg: ExperimentConfig) -> SymbolSeq:
    if cfg.family_kind == "poly":
        return make_poly_symbol_seq(cfg.coeffs)
    return SymbolSeq("fractional", rate=cfg.fractional_c_rate, m=cfg.fractional_m)


def build_perturbations(cfg: ExperimentConfig) -> tuple[SymbolSeq, SymbolSeq]:
    """The perturbation B = perturb_b and the vanishing family C at perturb_c_rate."""
    return constant_symbol_seq(cfg.perturb_b), constant_symbol_seq(0.0, cfg.perturb_c_rate)


def build_comparison_family(cfg: ExperimentConfig, base: SymbolSeq) -> Optional[SymbolSeq]:
    mode = cfg.comparison
    if mode == "none":
        return None
    if mode == "drift":
        if cfg.family_kind != "poly":
            raise ConfigError(f"comparison = drift needs family_kind = poly, "
                              f"got {cfg.family_kind}")
        return perturbed_heat_seq(cfg.coeffs)
    if mode.startswith("shift:"):
        return summed_symbol_seq(base, constant_symbol_seq(comparison_operand(mode)))
    if mode.startswith("scale:"):
        return SymbolSeq("scaled", n_min=base.n_min, parts=(base,),
                         factor=comparison_operand(mode))
    raise ConfigError(f"unknown comparison '{mode}'")


def build_data(cfg: ExperimentConfig, grid: Grid) -> DistributionRep:
    if cfg.data_kind == "zero":
        return DistributionRep.from_function(GridFunction.zero(grid))
    if cfg.data_kind == "delta":
        return DistributionRep.delta(grid)
    if cfg.data_kind == "delta_prime":
        return DistributionRep.delta_derivative(grid)
    if cfg.data_kind == "gaussian":
        return DistributionRep.from_function(GridFunction.gaussian(grid, cfg.data_width))
    if cfg.data_kind == "file":
        try:  # a solution.csv row without n and t; too few columns raise IndexError
            raw = np.loadtxt(cfg.data_path, delimiter=",", skiprows=1)
            vals = (raw[:, grid.dimension] + 1j * raw[:, grid.dimension + 1]).reshape(grid.shape)
        except (OSError, ValueError, IndexError) as exc:
            columns = ", ".join(csvio.coordinate_names(grid.dimension) + ["re", "im"])
            raise ConfigError(
                f"data_path {cfg.data_path!r} must hold a header line and one row "
                f"{columns} per grid point ({grid.points ** grid.dimension}): {exc}") from exc
        coords = grid.coordinate_vectors().reshape(-1, grid.dimension)
        # a NaN coordinate fails the <= as well
        bad = np.flatnonzero(~np.all(np.abs(raw[:, :grid.dimension] - coords)
                                     <= DATA_COORD_TOL * grid.spacing, axis=1))
        if bad.size:
            i = int(bad[0])
            raise ConfigError(
                f"data_path {cfg.data_path!r} row {i + 1} after the header has coordinates "
                f"{raw[i, :grid.dimension].tolist()}, but grid point {i + 1} in C order is "
                f"{coords[i].tolist()} (tolerance {DATA_COORD_TOL} x spacing {grid.spacing})")
        return DistributionRep.from_function(GridFunction(grid, vals))
    raise ConfigError(f"unknown data kind '{cfg.data_kind}'")


def build_forcing(cfg: ExperimentConfig, grid: Grid) -> ForcingSeq:
    if cfg.forcing_kind == "none":
        return ForcingSeq.zero(grid)
    shape = cfg.forcing_amplitude * GridFunction.gaussian(grid)
    return ForcingSeq(profile=np.cos, shape=lambda n: shape)


def _require_omega_bound(cfg: ExperimentConfig, *families: SymbolSeq) -> None:
    """The weighted-resolvent and growth samples omega + c need omega >= every sup Re a_n."""
    bound = max(fam.re_bound for fam in families)
    if cfg.omega < bound:
        raise ConfigError(f"omega = {cfg.omega} is below sup Re a_n = {bound} of the families")


def box_points(lo: Sequence[float], hi: Sequence[float], count: int) -> np.ndarray:
    """``count`` points of the R_d low-discrepancy sequence in the box [lo, hi), one row each.

    The Kronecker sequence u_k = frac(1/2 + k alpha), k = 1 ... count, with alpha_j = g^-j
    and g the positive root of g^(d+1) = g + 1, mapped to lo + (hi - lo) u_k.  It is the
    fixed sample set of the oracle suites: deterministic without a random generator, and
    more even than uniform draws of the same count.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    g = 1.0
    for _ in range(64):  # g = (1 + g)^(1/(d+1)) contracts to the root
        g = (1.0 + g) ** (1.0 / (lo.size + 1))
    alpha = g ** -np.arange(1.0, lo.size + 1)
    u = (0.5 + np.arange(1.0, count + 1)[:, None] * alpha) % 1.0
    return lo + (hi - lo) * u


class SuiteResult:
    def __init__(self, name: str, worst: float, tol: float):
        self.name = name
        self.worst = worst
        self.tol = tol
        self.passed = worst <= tol

    def row(self):
        # the note column of verify.csv is kept, empty
        return (self.name, self.worst, self.tol, "pass" if self.passed else "FAIL", "")


def _suite_laplace(cfg: ExperimentConfig, ev: Evaluations, s: SymbolSeq) -> SuiteResult:
    u = GridFunction.gaussian(ev.grid)
    omega = max(0.0, s.re_bound)
    residuals = [laplace_identity_residual(ev.values(s, n), n, lam, u, 40.0 / (lam.real - omega))
                 for lam in map(complex, cfg.lambda_samples)
                 for n in cfg.n_list[:2]]
    # np.max keeps a NaN, which the builtin max would drop
    return SuiteResult("laplace-identity", float(np.max(residuals)), cfg.tol_laplace)


def _suite_pseudoresolvent(cfg: ExperimentConfig, ev: Evaluations, s: SymbolSeq,
                           s_tilde: Optional[SymbolSeq]) -> SuiteResult:
    """R(lambda) - R(mu) = (mu - lambda) R(lambda) R(mu) on 50 ``box_points`` pairs: Re
    lambda, Re mu in floor + [0.5, 50), Im lambda, Im mu in [-20, 20)."""
    u = GridFunction.gaussian(ev.grid)
    families = [s] + ([s_tilde] if s_tilde is not None else [])
    floor = max(1.0, s.re_bound) + 0.5
    lr, li, mr, mi = box_points([0.5, -20.0, 0.5, -20.0], [50.0, 20.0, 50.0, 20.0], 50).T
    lams, mus = floor + lr + 1j * li, floor + mr + 1j * mi
    residuals = [pseudoresolvent_residual(ev.values(fam, n), n, lams, mus, u)
                 for fam in families for n in cfg.n_list[:2]]
    return SuiteResult("pseudoresolvent", float(np.max(residuals)), cfg.tol_pseudoresolvent)


def _suite_functional_equation(cfg: ExperimentConfig) -> SuiteResult:
    """phi(t, a) phi(s, a) = integral_0^s (phi(t + r, a) - phi(r, a)) dr on 1,000
    ``box_points`` samples: t, s in [0.05, 2), a = r e^(i theta) with r in [0, 100) and
    theta in [pi/2, 3 pi/2), so Re a <= 0.  The right side is I(t + s) - I(t) - I(s),
    I(T) = ``time_integral(T, a, 0)``, from one call on the three rows of times."""
    t, sdur, r, ang = box_points([0.05, 0.05, 0.0, 0.5 * np.pi],
                                 [2.0, 2.0, 100.0, 1.5 * np.pi], 1000).T
    a = r * np.exp(1j * ang)
    lhs = phi(t, a) * phi(sdur, a)
    i_ts, i_t, i_s = time_integral(np.stack([t + sdur, t, sdur]), a, 0.0)
    return SuiteResult("functional-equation", float(np.max(np.abs(lhs - (i_ts - i_t - i_s)))),
                       cfg.tol_functional_equation)


def _suite_bromwich(cfg: ExperimentConfig, ev: Evaluations, s: SymbolSeq) -> SuiteResult:
    """The vertical-line contour against phi(t, a) at t = 0.25, 0.5 and 1, relative on u.

    The contour sits at alpha = max(2, sup Re a + 0.5).  Its error, truncated at
    r_max = 200, grows like e^(alpha t), and the step-0.02 trapezoid rule needs only
    a strip of about 0.25 to the spectrum for round-off-level discretization error.
    So coeffs = (1, 0, c2) and (1.5, 0, c2) pass (5.1e-5), but from sup Re a of about
    2.1 on the error nears the 1e-4 gate again (9.3e-5 at 2.1, 1.03e-4 at 2.2).
    """
    u = GridFunction.gaussian(ev.grid)
    alpha = max(2.0, s.re_bound + 0.5)
    times = (0.25, 0.5, 1.0)
    a = ev.values(s, cfg.n_list[0])
    defects = bromwich_S(a, cfg.n_list[0], times, alpha=alpha, r_max=200.0, steps=20000)
    np.subtract(phi(sample_axis(times, ev.grid), a), defects, out=defects)  # phi - contour
    errors = relative_defects(defects, u)
    return SuiteResult("bromwich-oracle", float(np.max(errors)), cfg.tol_bromwich)


def _suite_perturbation_oracle(cfg: ExperimentConfig) -> SuiteResult:
    """The perturbation quadrature against phi(t, a + b) on 1,000 ``box_points`` samples:
    a = r_a e^(i theta_a), b = r_b e^(i theta_b) with r in [0, 100) and theta in
    [pi/2, 3 pi/2), and t in [0.01, 5)."""
    ra, rb, ta, tb, t = box_points([0.0, 0.0, 0.5 * np.pi, 0.5 * np.pi, 0.01],
                                   [100.0, 100.0, 1.5 * np.pi, 1.5 * np.pi, 5.0], 1000).T
    a, b = ra * np.exp(1j * ta), rb * np.exp(1j * tb)
    deviation = np.abs(perturbation_quadrature(t, a, b) - phi(t, a + b))
    return SuiteResult("perturbation-oracle", float(np.max(deviation)),
                       cfg.tol_perturbation_oracle)


def run_verify(cfg: ExperimentConfig, out_dir: Path) -> int:
    ev = Evaluations(build_grid(cfg))
    s = build_family(cfg)
    s_tilde = build_comparison_family(cfg, s)
    # the Laplace suite integrates up to T = 40 / (Re lambda - omega) on 64 panels
    omega = max(0.0, s.re_bound)
    left = [l for l in cfg.lambda_samples if not complex(l).real > omega]
    if left:
        raise ConfigError(f"lambda_samples {left} need a real part above omega = {omega} "
                          f"for the Laplace suite")
    for lam in map(complex, cfg.lambda_samples):
        step = abs(lam.imag) * 40.0 / (lam.real - omega) / TIME_INTEGRAL_PANELS
        if step > LAPLACE_STEP_MAX:
            raise ConfigError(f"lambda_samples: the sample {lam} has the Laplace step |Im "
                              f"lambda| T / {TIME_INTEGRAL_PANELS} = {step:.4g}, above the "
                              f"{LAPLACE_STEP_MAX:g} its rule resolves")
    tasks: List[Callable[[], SuiteResult]] = [
        lambda: _suite_laplace(cfg, ev, s),
        lambda: _suite_pseudoresolvent(cfg, ev, s, s_tilde),
        lambda: _suite_functional_equation(cfg),
        lambda: _suite_bromwich(cfg, ev, s),
        lambda: _suite_perturbation_oracle(cfg),
    ]
    results: List[SuiteResult] = []
    failures: List[str] = []
    for t in tasks:
        try:
            results.append(t())
        except SemigroupLabError as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
    csvio.write_rows(out_dir / "verify.csv",
                     ["suite", "worst", "tolerance", "status", "note"],
                     [r.row() for r in results])
    lines = [f"{r.name}: {'pass' if r.passed else 'FAIL'} "
             f"(worst {r.worst:.3e} vs tol {r.tol:.1e})" for r in results]
    lines += [f"error: {f}" for f in failures]
    (out_dir / "verify_summary.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    ok = all(r.passed for r in results) and not failures
    return 0 if ok else 1


def run_solve(cfg: ExperimentConfig, out_dir: Path) -> int:
    grid = build_grid(cfg)
    ev = Evaluations(grid)
    s = build_family(cfg)
    data = build_data(cfg, grid)
    forcing = build_forcing(cfg, grid)
    tg = time_grid(cfg)
    tests = [bump_test_function(grid, tc * cfg.t_end, tw * cfg.t_end, xc, radius, label)
             for label, tc, tw, xc, radius in PAIRING_BUMPS]
    try:
        for psi in tests:
            psi.check_support(float(tg[-1]))
    except SpaceTimeSupportError as exc:
        reach = max(abs(xc) + radius for *_, xc, radius in PAIRING_BUMPS)
        raise ConfigError(
            f"half_width = {cfg.half_width} is too narrow for the pairing test functions "
            f"psi0-psi2, whose supports reach |x| = {reach}: {exc}") from exc
    residuals, pairings, moderate_rows = [], {}, []
    stride = max(1, len(tg) // 16)

    def kept_slices():
        """Solve each index in one pass over its time slices: every slice feeds the
        index's sums, every ``stride``-th goes on to the writer; then record the index's
        residual, pairings and moderateness row, and check them."""
        for n in cfg.n_list:
            u0n = mollify(data, n)
            a = ev.values(s, n)
            sums = SliceSums(grid, tg, tests)
            for j, w in enumerate(duhamel_solve(a, n, u0n, forcing, tg)):
                sums.add(w)
                if j % stride == 0:
                    yield n, tg[j], w
            with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, refused below
                residual = integral_equation_residual(sums, a, n, forcing)
                pairs = {(n, psi.label): very_weak_pairing(sums, psi) for psi in tests}
                # per-slice L^2 norms weighted by e^(-omega t); np.max keeps a NaN
                sup = float(np.max(np.sqrt(sums.sq * grid.cell_volume) * np.exp(-cfg.omega * tg)))
            # a non-finite sample makes these non-finite, so no CSV is written from an overflow
            for quantity, value in ([("residual", residual)]
                                    + [(f"pairing {label}", v) for (_, label), v in pairs.items()]
                                    + [("sup_weighted_l2", sup)]):
                if np.isfinite(value):
                    continue
                # with every slice finite, a non-finite residual is a_n(D) int_0^t w overflowing
                family = "coeffs" if cfg.family_kind == "poly" else "fractional_m"
                fault = (f"{family} = {getattr(cfg, family)} must keep a_n(D) int_0^t w"
                         if quantity == "residual" and np.all(np.isfinite(sums.sq)) else
                         f"forcing_amplitude = {cfg.forcing_amplitude} and omega = {cfg.omega} "
                         f"must keep the solution and its weight e^(-omega t)")
                raise ConfigError(f"{quantity} at n = {n} is {value}, not finite: {fault} finite")
            residuals.append((n, residual))
            pairings.update(pairs)
            moderate_rows.append((n, lp_norm(u0n, 2), sup))

    try:
        csvio.write_solution(out_dir / "solution.csv", grid, kept_slices())
    except ResolutionError as exc:
        raise ConfigError(
            f"n_list {list(cfg.n_list)} needs n * 2 half_width / points <= 1/4 for every n "
            f"(points = {cfg.points}, half_width = {cfg.half_width}): {exc}") from exc
    except OverflowGuardError as exc:
        raise ConfigError(
            f"coeffs = {cfg.coeffs} and t_end = {cfg.t_end} take S_n(t), t <= t_end, past "
            f"the overflow guard: {exc}") from exc
    csvio.write_rows(out_dir / "residuals.csv", ["n", "residual"], residuals)
    csvio.write_pairings(out_dir / "pairings.csv", pairings)
    csvio.write_rows(out_dir / "moderateness.csv",
                     ["n", "initial_l2", "sup_weighted_l2"], moderate_rows)

    report = weak_limit_extract(pairings, tol=cfg.tol_pairing)
    rows = [(label, report.convergent[label], report.limits[label].real,
             report.limits[label].imag, ";".join(str(n) for n in report.subsequences[label]))
            for label in sorted(report.limits)]
    csvio.write_rows(out_dir / "weak_limits.csv",
                     ["psi_id", "convergent", "re_limit", "im_limit", "subsequence"], rows)

    print(f"solved {len(cfg.n_list)} regularized problems; "
          f"all pairings convergent: {report.all_convergent()}")
    return 0


def run_associate(cfg: ExperimentConfig, out_dir: Path) -> int:
    grid = build_grid(cfg)
    ev = Evaluations(grid)
    s = build_family(cfg)
    s_tilde = build_comparison_family(cfg, s)
    if s_tilde is None:
        raise ConfigError("associate needs a comparison family (section [comparison])")
    _require_omega_bound(cfg, s, s_tilde)
    lam_list = [complex(l) for l in cfg.lambda_samples if complex(l).imag == 0][:2]
    if not lam_list:
        raise ConfigError("associate needs a real lambda in lambda_samples")
    pairs = bundled_family_pairs()
    bound = max(fam.re_bound for p in pairs for fam in (s, s_tilde, p.s, p.s_tilde))
    if min(lam.real for lam in lam_list) <= bound:
        raise ConfigError(f"lambda_samples: the real samples {[lam.real for lam in lam_list]} "
                          f"that associate uses must lie above sup Re a_n = {bound} of the "
                          f"scenario and bundled families")
    f = GridFunction.gaussian(grid, cfg.data_width)
    n_list = cfg.n_list

    # drift is the constant-coefficient example: c_0 and c_2 perturbed by 1/n, at omega = 0
    label, omega, times = (("coefficient-perturbation", 0.0, 50) if cfg.comparison == "drift"
                           else ("semigroup-difference", cfg.omega, 20))
    level = semigroup_level(omega, np.linspace(0, cfg.t_max, times + 1)[1:], grid)
    # the scenario's symbols a_n and a~_n are set by these two fields
    symbols = f"coeffs = {cfg.coeffs} and comparison = {cfg.comparison}"
    try:
        rep = check_association(s, s_tilde, {label: level}, [lambda n: f], ev, n_list)[label]
    except OverflowGuardError as exc:
        raise ConfigError(f"t_max = {cfg.t_max} takes the {label} samples S_n(t), t <= t_max, "
                          f"of {symbols} past the overflow guard: {exc}") from exc

    levels = {"generator": generator_level, "resolvent": resolvent_level(lam_list, grid),
              "weighted": resolvent_level([cfg.omega + 2.0, cfg.omega + 2.0 + 5j], grid,
                                          cfg.b, cfg.omega + 1.0)}
    try:
        reports = check_association(s, s_tilde, levels,
                                    [bundled_test_sequences(grid)["gaussian"]], ev, n_list)
    except ValueError as exc:  # a non-finite norm
        raise ConfigError(f"{symbols} give a non-finite norm: {exc}") from exc
    csvio.write_association(out_dir / "association.csv", rep)
    for name, r in reports.items():
        csvio.write_association(out_dir / f"association_{name}.csv", r)

    bounds = check_resolvent_norm_bounds(s, n_list, lam_list, ev)
    csvio.write_rows(out_dir / "resolvent_bounds.csv",
                     ["lambda", "c1", "c2", "spread", "bounded"],
                     [(r.lambda_value, r.lower, r.upper, r.spread, r.bounded)
                      for r in bounds])

    checks = crosscheck_comparison_theorems(pairs, lam_list, ev)
    csvio.write_rows(out_dir / "theorem_agreement.csv",
                     ["pair", "character", "generator", "resolvent", "weighted",
                      "semigroup", "disagreements"],
                     [(c.name, c.character, c.generator, c.resolvent, c.weighted,
                       c.semigroup, ";".join(c.disagreements())) for c in checks])
    disagreements = sum(len(c.disagreements()) for c in checks)
    # a bundled pair that reads the opposite of its designed character fails the suite,
    # whether or not the theorem agreements between its levels hold
    contradictions = [f"{c.name} reads {getattr(c, level)} at the {level} level, "
                      f"against its character {c.character}"
                      for c in checks for level in c.contradictions()]

    print(f"scenario verdict: {rep.verdict} (slope {rep.slope:.3f}); "
          f"suite disagreements: {disagreements}")
    for line in contradictions:
        print(f"character contradiction: {line}", file=sys.stderr)
    return 0 if disagreements == 0 and not contradictions else 1


def run_perturb(cfg: ExperimentConfig, out_dir: Path) -> int:
    ev = Evaluations(build_grid(cfg))
    s = build_family(cfg)
    s_tilde = build_comparison_family(cfg, s) or s
    _require_omega_bound(cfg, s, s_tilde)
    B, C = build_perturbations(cfg)
    report = perturbation_claims_suite(s, s_tilde, B, C, ev, cfg.n_list,
                                   omega=cfg.omega + abs(cfg.perturb_b), b=cfg.b)

    # 200 box_points (i, t): i in [0, len(n_list)) picks the index n_list[floor(i)]
    samples = [(cfg.n_list[int(i)], float(t)) for i, t in
               box_points([0.0, 0.1], [len(cfg.n_list), PERTURB_ORACLE_T_MAX], 200)]
    deviations = []
    for n in sorted({n for n, _ in samples}):
        ts = np.array([t for m, t in samples if m == n])
        a, b = ev.values(s, n), ev.values(B, n)
        # a + b is the value of the summed family a_n + b_n, bit for bit; neither block
        # outlives its index, so the next index's quadrature runs without them
        deviations.append(np.max(np.abs(perturbed_factor(a, b, ts)
                                        - phi(sample_axis(ts, ev.grid), a + b))))
    worst = float(np.max(deviations))

    csvio.write_certificate(out_dir / "perturbed_growth.csv", report.growth)
    csvio.write_association(out_dir / "perturbed_pair.csv", report.pair_association)
    csvio.write_association(out_dir / "transported_pair.csv",
                            report.transported_association)
    lines = [f"oracle max deviation: {worst:.3e} (tol {cfg.tol_perturbation_oracle:.1e})",
             f"claim 1 growth moderate: {report.verdicts['growth-moderate']}",
             f"claim 2 perturbed pair: {report.verdicts['perturbed-pair']}",
             f"claim 3 base weighted-resolvent / transported: {report.verdicts['base-weighted']} / "
             f"{report.verdicts['transported']}"]
    (out_dir / "perturb_summary.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0 if worst <= cfg.tol_perturbation_oracle else 1


def run_growth(cfg: ExperimentConfig, out_dir: Path) -> int:
    ev = Evaluations(build_grid(cfg))
    s = build_family(cfg)
    omega = max(cfg.omega, s.re_bound + 0.5)
    lam = [omega + 1.0, omega + 1.0 + 5j, omega + 1.0 + 50j, omega + 10.0, omega + 100.0]
    cert = certify_growth(s, cfg.n_list, omega, cfg.b, lam, GROWTH_T_SAMPLES, ev)
    csvio.write_certificate(out_dir / "growth.csv", cert)
    print(f"certified {len(cfg.n_list)} indices at omega={omega}, b={cfg.b}")
    return 0


#: subcommand -> its runner; each writes its outputs to out_dir and returns the exit code
RUNNERS: dict[str, Callable[[ExperimentConfig, Path], int]] = {
    "verify": run_verify, "solve": run_solve, "associate": run_associate,
    "perturb": run_perturb, "growth": run_growth}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="semigrouplab",
        description="numerical laboratory for multiplier generator families")
    parser.add_argument("command", choices=RUNNERS)
    parser.add_argument("--config", type=str, default=None,
                        help="scenario file; a built-in default is used when omitted")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    # accepted and ignored: perfbench/run.py and perfbench/make_reference.py still pass it
    parser.add_argument("--no-plots", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            cfg = load_config(args.config)
        else:
            cfg = default_config(args.command)
        if args.command in FIT_COMMANDS and len(cfg.n_list) < MIN_FIT_INDICES:
            raise ConfigError(f"n_list needs at least {MIN_FIT_INDICES} indices for "
                              f"{args.command}, which judges a rate or a limit over n; "
                              f"got {list(cfg.n_list)}")
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"usage error: --config {args.config} is not a readable UTF-8 file: {exc}",
              file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out) if args.out else Path(cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config_used.txt").write_text(serialize_config(cfg))
    except OSError as exc:
        source = "usage error: --out" if args.out else "config error: output_dir"
        print(f"{source} {out_dir} is not a writable directory: {exc}", file=sys.stderr)
        return 2

    try:
        return RUNNERS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SemigroupLabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
