"""Moderateness fits, association verdicts, and theorem cross-checks.

Association between two operator families means the norm of their difference
applied to moderate test sequences tends to zero.  Finite computations cannot
certify limits, so verdicts are three-way:

* ``associated``   - the difference norms end below the relative floor, or
  they decay along a clean power law (fitted slope <= -SLOPE_MIN, straight
  fit R^2 >= R2_MIN, and at least a factor-two drop across the range);
* ``not-associated`` - the norms do not decay at all (slope >= 0) and stay
  well above the floor;
* ``inconclusive`` - everything else, in particular logarithmic-type decay
  whose log-log profile is visibly curved.

Domain and range identities between two multiplier families on a shared grid
hold by construction; they are recorded as structural facts and only the
quantitative decay conditions are measured.

Every check is a sup over sampled t, lambda or k of ||F^-1(d F x_n)||_2 for the
difference factors d of the two families.  The norms come from Parseval
(:func:`semigroup.multiplier_norms`), with one FFT per (test sequence, n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from .errors import InsufficientDataError
from .semigroup import multiplier_norms, phi, resolvent_factor
from .spectral import TWO_PI, Grid, GridFunction, lp_norm
from .symbols import SymbolSeq, heat_symbol_seq, perturbed_heat_seq, shifted_symbol_seq

# verdict thresholds (documented in the module docstring)
TOL_ASSOC_REL = 1e-3
SLOPE_MIN = 0.2
DECAY_FACTOR = 0.5
R2_MIN = 0.97
NORM_FLOOR = 1e-300

VERDICT_ASSOCIATED = "associated"
VERDICT_NOT = "not-associated"
VERDICT_INCONCLUSIVE = "inconclusive"
_SEVERITY = {VERDICT_ASSOCIATED: 0, VERDICT_INCONCLUSIVE: 1, VERDICT_NOT: 2}


def max_keep_nan(best: float, value: float) -> float:
    """Running sup that keeps a NaN from either side.

    ``max(0.0, nan)`` is 0.0, which would read a NaN norm as a zero
    difference; here a NaN, once seen, is the result.
    """
    return value if math.isnan(value) or value > best else best


@dataclass(frozen=True)
class ModerateSeq:
    """Least-squares log-log fit of a positive sequence over its indices."""

    indices: tuple
    values: tuple
    slope: float
    constant: float
    r_squared: float
    floored: bool = False


def fit_moderate(norms: Mapping[int, float]) -> ModerateSeq:
    """Fit ||x_n|| ~ C n^a by least squares in log-log coordinates.

    Requires at least four indices; zero values are replaced by a tiny
    machine floor and flagged.
    """
    if len(norms) < 4:
        raise InsufficientDataError(f"need >= 4 indices for a fit, got {len(norms)}")
    ns = sorted(norms)
    vals = np.array([float(norms[n]) for n in ns], dtype=float)
    if np.any(vals < 0):
        raise ValueError("norms must be nonnegative")
    floored = bool(np.any(vals == 0))
    vals = np.maximum(vals, NORM_FLOOR)
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(vals)
    xm, ym = x.mean(), y.mean()
    var = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / var)
    intercept = ym - slope * xm
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ModerateSeq(indices=tuple(ns), values=tuple(float(v) for v in vals),
                       slope=slope, constant=float(math.exp(intercept)),
                       r_squared=r2, floored=floored)


def is_moderate_fit(fit: ModerateSeq, max_exponent: float = 50.0) -> bool:
    """Heuristic moderateness flag.

    Non-moderate when the exponent is huge, or when the sequence grows with
    a poor, upward-curving power-law fit (the signature of faster-than-
    polynomial growth on a finite index range).  Decreasing sequences are
    always moderate.
    """
    if fit.slope > max_exponent:
        return False
    if fit.slope > 0 and fit.r_squared < 0.9:
        y = np.log(np.asarray(fit.values))
        if len(y) >= 3 and float(np.mean(np.diff(y, 2))) > 0:
            return False
    return True


@dataclass
class AssociationReport:
    """Difference norms over n with a three-way decay verdict.

    ``norms`` is the per-n envelope (max over test sequences); per-sequence
    sub-reports are kept when several sequences were tested, and the overall
    verdict is the most severe of the per-sequence verdicts.
    """

    indices: list
    norms: list
    verdict: str
    slope: float
    r_squared: float
    tol_assoc: float
    slope_min: float = SLOPE_MIN
    label: str = ""
    per_sequence: list = field(default_factory=list)
    companion_agrees: Optional[bool] = None

    def is_associated(self) -> bool:
        return self.verdict == VERDICT_ASSOCIATED


def make_association_report(indices: Sequence[int], norms: Sequence[float],
                            label: str = "", tol_rel: float = TOL_ASSOC_REL) -> AssociationReport:
    """Apply the verdict rule to one difference-norm sequence.

    A non-finite norm raises ``ValueError`` naming the label and the index.
    """
    indices = list(indices)
    norms = [float(v) for v in norms]
    for n, v in zip(indices, norms):
        if not math.isfinite(v):
            raise ValueError(f"{label or 'association'}: norm at n={n} is {v}")
    initial = norms[0]
    final = norms[-1]
    tol_assoc = tol_rel * initial
    if max(norms) <= NORM_FLOOR:
        return AssociationReport(indices, norms, VERDICT_ASSOCIATED,
                                 slope=0.0, r_squared=1.0, tol_assoc=tol_assoc, label=label)
    fit = fit_moderate(dict(zip(indices, norms)))
    rel_final = final / max(initial, NORM_FLOOR)
    if final < tol_assoc or (fit.slope <= -SLOPE_MIN and rel_final <= DECAY_FACTOR
                             and fit.r_squared >= R2_MIN):
        verdict = VERDICT_ASSOCIATED
    elif fit.slope >= 0.0 and final > 10.0 * tol_assoc:
        verdict = VERDICT_NOT
    else:
        verdict = VERDICT_INCONCLUSIVE
    return AssociationReport(indices, norms, verdict, slope=fit.slope,
                             r_squared=fit.r_squared, tol_assoc=tol_assoc, label=label)


def _combine_reports(reports: List[AssociationReport], label: str) -> AssociationReport:
    """Envelope norms plus the most severe per-sequence verdict."""
    if len(reports) == 1:
        out = reports[0]
        out.label = label or out.label
        return out
    indices = reports[0].indices
    envelope = [max(r.norms[i] for r in reports) for i in range(len(indices))]
    worst = max(reports, key=lambda r: _SEVERITY[r.verdict])
    env_fit = fit_moderate(dict(zip(indices, np.maximum(envelope, NORM_FLOOR)))) \
        if max(envelope) > NORM_FLOOR else None
    return AssociationReport(
        indices=list(indices), norms=envelope, verdict=worst.verdict,
        slope=env_fit.slope if env_fit else 0.0,
        r_squared=env_fit.r_squared if env_fit else 1.0,
        tol_assoc=TOL_ASSOC_REL * envelope[0], label=label, per_sequence=reports)


TestSequence = Callable[[int], GridFunction]


def _sup_association(factors_for: Callable[[int], Iterable[np.ndarray]],
                     test_seqs: Sequence[TestSequence], n_list: Sequence[int],
                     label: str) -> AssociationReport:
    """Verdict on sup over ``factors_for(n)`` of ||F^-1(d F x_n)||_2 per test sequence.

    Each n's factors are built once for all test sequences.  A NaN norm is
    kept, so :func:`make_association_report` rejects it.
    """
    if not test_seqs:
        raise ValueError(f"{label}: no test sequences")
    sups = []
    for n in n_list:
        norms = multiplier_norms(factors_for(n), [seq(n) for seq in test_seqs])
        if not len(norms):
            raise ValueError(f"{label}: no samples")
        sups.append(np.max(norms, axis=0))  # np.max keeps a NaN
    reports = [make_association_report(n_list, [sup[i] for sup in sups],
                                       label=f"{label}/seq{i}")
               for i in range(len(test_seqs))]
    return _combine_reports(reports, label)


@dataclass
class ResolventBoundReport:
    """Per-lambda two-sided resolvent-norm bounds over the family."""

    lambda_value: complex
    lower: float
    upper: float
    spread: float
    growth_slope: Optional[float]
    bounded: bool


def check_resolvent_norm_bounds(s: SymbolSeq, n_list: Sequence[int], lambda_list: Sequence[complex],
             grid: Grid) -> List[ResolventBoundReport]:
    """Two-sided bounds c_1 < ||R(lambda, A_n)|| < c_2 over the sampled family.

    On a grid the norms are always finite and positive, so the report gives
    the spread c_2/c_1 and flags families whose norms grow with n.
    """
    reports = []
    for lam in lambda_list:
        vals = {}
        for n in n_list:
            fac = resolvent_factor(s, n, lam, grid)
            vals[n] = float(np.max(np.abs(fac)))
        lo, hi = min(vals.values()), max(vals.values())
        slope = fit_moderate(vals).slope if len(vals) >= 4 else None
        reports.append(ResolventBoundReport(lambda_value=complex(lam), lower=lo, upper=hi,
                                spread=hi / lo, growth_slope=slope,
                                bounded=(slope is None or slope <= SLOPE_MIN)))
    return reports


def verify_moderate_sequences(test_seqs: Sequence[TestSequence],
                              n_list: Sequence[int]) -> None:
    """Precondition of the association checks: test sequences are moderate.

    Domain and range identities hold structurally for multiplier families on
    a shared grid, so moderateness of the data is the only quantitative
    membership condition left to verify.
    """
    if len(n_list) < 4:
        return
    for i, seq in enumerate(test_seqs):
        fit = fit_moderate({n: max(lp_norm(seq(n), 2), NORM_FLOOR) for n in n_list})
        if not is_moderate_fit(fit):
            raise ValueError(f"test sequence {i} is not moderate "
                             f"(fitted exponent {fit.slope:.2f})")


def check_generator_association(s: SymbolSeq, s_tilde: SymbolSeq,
                                test_seqs: Sequence[TestSequence], grid: Grid,
                                n_list: Sequence[int], label: str = "") -> AssociationReport:
    """Decay of ||(Op a_n - Op a~_n) x_n||_2 over the test sequences."""
    verify_moderate_sequences(test_seqs, n_list)
    return _sup_association(lambda n: [s.on_grid(n, grid) - s_tilde.on_grid(n, grid)],
                            test_seqs, n_list, label or "generator")


def check_resolvent_association(s: SymbolSeq, s_tilde: SymbolSeq,
                                lambda_list: Sequence[complex],
                                test_seqs: Sequence[TestSequence], grid: Grid,
                                n_list: Sequence[int], label: str = "") -> AssociationReport:
    """Decay of sup over lambda of ||(R(lambda,A_n) - R(lambda,A~_n)) x_n||_2."""
    return _sup_association(
        lambda n: (resolvent_factor(s, n, lam, grid) - resolvent_factor(s_tilde, n, lam, grid)
                   for lam in lambda_list),
        test_seqs, n_list, label or "resolvent")


def check_semigroup_association(s: SymbolSeq, s_tilde: SymbolSeq, omega: float,
                                t_samples: Sequence[float],
                                test_seqs: Sequence[TestSequence], grid: Grid,
                                n_list: Sequence[int], label: str = "",
                                rerun_resolvent: bool = True,
                                lambda_list: Sequence[complex] = (2.0,)
                                ) -> AssociationReport:
    """Decay of sup over t of e^(-omega t) ||(S_n(t) - S~_n(t)) x_n||_2.

    When the verdict is ``associated`` the companion resolvent check is run
    and its agreement recorded (the generator direction of the semigroup
    comparison theorem).
    """
    def factors_for(n):
        a = s.on_grid(n, grid)
        at = s_tilde.on_grid(n, grid)
        return (math.exp(-omega * t) * (phi(t, a) - phi(t, at)) for t in map(float, t_samples))

    report = _sup_association(factors_for, test_seqs, n_list, label or "semigroup")
    if rerun_resolvent and report.is_associated():
        companion = check_resolvent_association(s, s_tilde, lambda_list, test_seqs,
                                                grid, n_list, label=f"{label}/companion")
        report.per_sequence.append(companion)
        report.companion_agrees = companion.is_associated()
    return report


def check_weighted_resolvent_association(s: SymbolSeq, s_tilde: SymbolSeq,
                                         omega: float, b: float,
                                         lambda_samples: Sequence[complex],
                                         test_seqs: Sequence[TestSequence],
                                         grid: Grid, n_list: Sequence[int],
                                         label: str = "",
                                         rerun_semigroup: bool = True,
                                         t_samples: Sequence[float] = ()
                                         ) -> AssociationReport:
    """Decay of sup over lambda of ||lambda^b (R(lambda,A_n) - R(lambda,A~_n)) x_n||.

    When associated, the semigroup-level check is rerun as the companion
    (the forward direction of the strong-generator comparison theorem).
    """
    for lam in lambda_samples:
        if not complex(lam).real > omega:
            raise ValueError(f"lambda sample {lam} has Re <= omega {omega}")
    report = _sup_association(
        lambda n: (lam**b * (resolvent_factor(s, n, lam, grid)
                             - resolvent_factor(s_tilde, n, lam, grid))
                   for lam in map(complex, lambda_samples)),
        test_seqs, n_list, label or "weighted-resolvent")
    if rerun_semigroup and report.is_associated():
        ts = list(t_samples) or list(np.linspace(0.25, 5.0, 12))
        companion = check_semigroup_association(
            s, s_tilde, omega + 1.0, ts, test_seqs, grid, n_list,
            label=f"{label}/companion", rerun_resolvent=False)
        report.per_sequence.append(companion)
        report.companion_agrees = companion.is_associated()
    return report


# ---------------------------------------------------------------------------
# derivative engine for the densely-defined generation condition


def resolvent_over_lambda_derivative(lam: float, a: np.ndarray, k: int) -> np.ndarray:
    """k-th lambda-derivative of 1/(lambda (lambda - a)), by partial fractions.

    For a != 0:  (1/a) (-1)^k k! ((lambda-a)^(-k-1) - lambda^(-k-1)); the
    a = 0 modes reduce to (-1)^k (k+1)! lambda^(-k-2).  The k! cancels in
    the certified quantity, so everything is computed through the stable
    ratio form without explicit factorials.
    """
    a = np.asarray(a, dtype=complex)
    sign = -1.0 if k % 2 else 1.0
    safe = np.where(a == 0, 1.0, a)
    general = sign / safe * ((lam - a) ** (-k - 1) - lam ** (-k - 1))
    zero_mode = sign * (k + 1) * lam ** (-k - 2)
    return np.where(a == 0, zero_mode, general)
    # note: values here are derivative / k!


def derivative_bound_quantity(lam: float, omega: float, a: np.ndarray, k: int) -> np.ndarray:
    """|(lambda-omega)^(k+1) (R/lambda)^(k) / k!| per mode, in ratio form."""
    d = resolvent_over_lambda_derivative(lam, a, k)
    return np.abs((lam - omega) ** (k + 1) * d)


@dataclass
class DerivativeBoundReport:
    """Sampled suprema of the derivative-bound quantity per family index."""

    omega: float
    k_max: int
    lambda_list: list
    bounds: dict = field(default_factory=dict)
    argmax: dict = field(default_factory=dict)
    fit: Optional[ModerateSeq] = None


def check_derivative_bounds(s: SymbolSeq, n_list: Sequence[int], omega: float, k_max: int,
             lambda_list: Sequence[float], grid: Grid) -> DerivativeBoundReport:
    """Sampled sup over (k <= k_max, lambda) of the derivative-bound quantity.

    The partial-fraction form keeps all powers as ratios, so no factorial
    ever materializes; k_max beyond 60 is still refused to honor the
    documented envelope of the check.
    """
    if k_max > 60:
        raise ValueError("k_max > 60 exceeds the factorial-overflow guard")
    report = DerivativeBoundReport(omega=omega, k_max=k_max, lambda_list=list(lambda_list))
    for n in n_list:
        a = s.on_grid(n, grid)
        best, arg = 0.0, None
        for lam in lambda_list:
            if not lam > omega:
                raise ValueError(f"lambda={lam} must exceed omega={omega}")
            for k in range(k_max + 1):
                q = float(np.max(derivative_bound_quantity(float(lam), omega, a, k)))
                if q > best:
                    best, arg = q, (k, float(lam))
        report.bounds[n] = best
        report.argmax[n] = arg
    if len(n_list) >= 4:
        report.fit = fit_moderate(report.bounds)
    return report


def check_derivative_association(s: SymbolSeq, s_tilde: SymbolSeq, n_list: Sequence[int], omega: float,
             k_max: int, lambda_list: Sequence[float],
             test_seqs: Sequence[TestSequence], grid: Grid,
             label: str = "") -> AssociationReport:
    """Association in the derivative-bound metric: the same quantity on the
    resolvent difference, applied to test sequences."""
    if k_max > 60:
        raise ValueError("k_max > 60 exceeds the factorial-overflow guard")

    def factors_for(n):
        a = s.on_grid(n, grid)
        at = s_tilde.on_grid(n, grid)
        return ((lam - omega) ** (k + 1) * (resolvent_over_lambda_derivative(float(lam), a, k)
                                            - resolvent_over_lambda_derivative(float(lam), at, k))
                for lam in lambda_list for k in range(k_max + 1))

    return _sup_association(factors_for, test_seqs, n_list, label or "derivative-association")


# ---------------------------------------------------------------------------
# bundled test sequences and family pairs


def bundled_test_sequences(grid: Grid) -> Dict[str, TestSequence]:
    """The documented finite surrogate for "all moderate sequences".

    A fixed Gaussian, shrinking Gaussian spikes (norm ~ n^(1/2), probing
    ever higher frequencies), an oscillatory packet at a fixed grid
    frequency, and a growing sequence ~ n^(1/2) times a fixed profile.
    """
    gauss = GridFunction.gaussian(grid)

    def spike(n: int) -> GridFunction:
        # Gaussian spike rescaled to L^2 norm exactly sqrt(n); keeps the
        # documented n^(1/2) growth even past the grid resolution scale
        if grid.dimension == 1:
            x = grid.coords()
            raw = GridFunction(grid, np.exp(-np.pi * (n * x) ** 2))
        else:
            x, y = grid.coords()
            raw = GridFunction(grid, np.exp(-np.pi * n**2 * (x * x + y * y)))
        return (math.sqrt(n) / lp_norm(raw, 2)) * raw

    xi_c = (grid.points // 8) * grid.freq_spacing
    if grid.dimension == 1:
        packet = GridFunction(grid, gauss.values * np.exp(TWO_PI * 1j * xi_c * grid.coords()))
    else:
        packet = GridFunction(grid, gauss.values * np.exp(TWO_PI * 1j * xi_c * grid.coords()[0]))

    def grow(n: int) -> GridFunction:
        return math.sqrt(n) * gauss

    return {"gaussian": lambda n: gauss, "spike": spike,
            "oscillatory": lambda n: packet, "growing": grow}


@dataclass(frozen=True)
class FamilyPair:
    """A bundled comparison scenario for the theorem cross-checks.

    ``character`` documents the designed behavior ("associated",
    "not-associated", "borderline"); pairs whose symbol difference is an
    unbounded multiplier carry only fixed-data test sequences, matching the
    fixed-datum statements they are built from.
    """

    name: str
    s: SymbolSeq
    s_tilde: SymbolSeq
    n_list: tuple
    seq_names: tuple
    character: str


def bundled_family_pairs(grid: Grid) -> List[FamilyPair]:
    heat = heat_symbol_seq()
    drifted = perturbed_heat_seq()
    std = (4, 8, 16, 32, 64)
    wide = (4, 16, 64, 256, 1024)
    full = ("gaussian", "spike", "oscillatory", "growing")
    fixed = ("gaussian",)

    def bounded_shape(xi_vectors):
        mag2 = np.sum(xi_vectors * xi_vectors, axis=-1)
        return np.exp(-mag2)

    pairs = [
        FamilyPair("identical", heat, heat_symbol_seq(), std, full, "associated"),
        FamilyPair("perturbed-coefficients", heat, drifted, std, fixed, "associated"),
        FamilyPair("bounded-1/n", heat,
                   shifted_symbol_seq(heat, lambda n, v: bounded_shape(v) / n,
                                      name="heat+b/n", re_bound_shift=1.0),
                   std, full, "associated"),
        # a 1/sqrt(n) difference is defeated by the sqrt(n)-growing witnesses
        # (their product does not decay), so this pair is compared on data of
        # bounded norm only
        FamilyPair("bounded-1/sqrt", heat,
                   shifted_symbol_seq(heat, lambda n, v: bounded_shape(v) / math.sqrt(n),
                                      name="heat+b/sqrt(n)", re_bound_shift=1.0),
                   std, ("gaussian", "oscillatory"), "associated"),
        FamilyPair("quadratic-decay", heat,
                   shifted_symbol_seq(heat, lambda n, v: bounded_shape(v) / n**2,
                                      name="heat+b/n^2", re_bound_shift=1.0),
                   std, full, "associated"),
        FamilyPair("real-shift", heat,
                   shifted_symbol_seq(heat, lambda n, v: np.ones(v.shape[:-1]),
                                      name="heat+1", re_bound_shift=1.0),
                   std, full, "not-associated"),
        FamilyPair("imaginary-shift", heat,
                   shifted_symbol_seq(heat, lambda n, v: 1j * np.ones(v.shape[:-1]),
                                      name="heat+i"),
                   std, full, "not-associated"),
        FamilyPair("rescaled", heat,
                   shifted_symbol_seq(heat, lambda n, v: -0.5 * np.sum(v * v, axis=-1),
                                      name="1.5*heat"),
                   std, fixed, "not-associated"),
        FamilyPair("log-decay", heat,
                   shifted_symbol_seq(heat, lambda n, v: bounded_shape(v) / math.log(n),
                                      name="heat+b/log", re_bound_shift=1.0),
                   wide, fixed, "borderline"),
    ]
    return pairs


@dataclass
class PairCrossCheck:
    """Verdicts of all four association checks for one family pair."""

    name: str
    character: str
    generator: str
    resolvent: str
    weighted: str
    semigroup: str

    def theorem_agreements(self) -> Dict[str, bool]:
        """Every implication direction stated by the comparison theorems.

        generator <=> resolvent; semigroup-associated => resolvent-associated;
        weighted-resolvent plus generator association => semigroup-associated.
        """
        return {
            "generator<=>resolvent": self.generator == self.resolvent,
            "semigroup=>resolvent": (self.semigroup != VERDICT_ASSOCIATED
                                or self.resolvent == VERDICT_ASSOCIATED),
            "weighted=>semigroup": (not (self.weighted == VERDICT_ASSOCIATED
                               and self.generator == VERDICT_ASSOCIATED)
                          or self.semigroup == VERDICT_ASSOCIATED),
        }

    def disagreements(self) -> List[str]:
        return [k for k, ok in self.theorem_agreements().items() if not ok]


def crosscheck_comparison_theorems(pairs: Sequence[FamilyPair],
                                   lambda_list: Sequence[complex], grid: Grid,
                                   omega: float = 2.0, b: float = 1.0,
                                   t_samples: Sequence[float] = ()
                                   ) -> List[PairCrossCheck]:
    """Run all four association checks per pair and list verdict conflicts.

    Disagreements indicate tolerance artifacts; on the bundled suite there
    are none.
    """
    ts = list(t_samples) or list(np.linspace(0.25, 5.0, 12))
    seqs_all = None
    out = []
    for pr in pairs:
        if seqs_all is None:
            seqs_all = bundled_test_sequences(grid)
        seqs = [seqs_all[name] for name in pr.seq_names]
        for rep in check_resolvent_norm_bounds(pr.s, pr.n_list, list(lambda_list), grid):
            if not math.isfinite(rep.spread):
                raise ValueError(f"pair {pr.name}: degenerate resolvent norms")
        gen = check_generator_association(pr.s, pr.s_tilde, seqs, grid, pr.n_list,
                                          label=f"{pr.name}/gen")
        res = check_resolvent_association(pr.s, pr.s_tilde, lambda_list, seqs, grid,
                                          pr.n_list, label=f"{pr.name}/res")
        weighted = check_weighted_resolvent_association(
            pr.s, pr.s_tilde, omega, b,
            [omega + 1.0, omega + 1.0 + 5j, omega + 10.0], seqs, grid,
            pr.n_list, label=f"{pr.name}/weighted", rerun_semigroup=False)
        semigroup = check_semigroup_association(
            pr.s, pr.s_tilde, omega, ts, seqs, grid, pr.n_list,
            label=f"{pr.name}/semigroup", rerun_resolvent=False)
        out.append(PairCrossCheck(name=pr.name, character=pr.character,
                                  generator=gen.verdict, resolvent=res.verdict,
                                  weighted=weighted.verdict, semigroup=semigroup.verdict))
    return out
