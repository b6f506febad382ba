"""Association verdicts and theorem cross-checks.

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

Every association check is a sup over sampled t, lambda or k of ||F^-1(d F x_n)||_2
for the difference factors d = w (F(a_n) - F(a~_n)) of a :class:`semigroup.Level`
(``generator_level``, ``resolvent_level``, with ``b`` and ``omega`` the weighted
resolvent level, ``semigroup_level`` and ``derivative_level``).
:func:`check_association` is the one entry point: it takes a pair, a mapping of labels
to levels, the moderate test sequences and the run's :class:`semigroup.Evaluations`, and
makes one pass per n for all levels: the blocks of a_n and a~_n, the power spectra of the
test sequences (:func:`semigroup.power_spectra`) and one Parseval product
(:func:`semigroup.multiplier_norms`).  The evaluations carry what does not depend on the
pair across the calls of one run: a_n, the test spectra and fits, and the blocks F(a_n)
asked for twice, as the cross-check's base family's are.  The operator-norm sups of one
family, such as :func:`check_resolvent_norm_bounds`, are :func:`semigroup.operator_sups`.
The verdict rule is :func:`association_reports`, over every row of one check at once:
each call of :func:`check_association` gathers its per-sequence and envelope rows into one
:func:`symbols.fit_moderate_rows` fit, and :func:`make_association_report` is the rule's
one-row case.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

import numpy as np

from .semigroup import (Evaluations, Level, TestSequence, generator_level, multiplier_norms,
                        operator_sups, resolvent_level, semigroup_level)
from .spectral import TWO_PI, Grid, GridFunction, lp_norm
from .symbols import (MIN_FIT_INDICES, NORM_FLOOR, SymbolSeq, constant_symbol_seq,
                      fit_moderate_rows, heat_symbol_seq, perturbed_heat_seq, summed_symbol_seq)

# verdict thresholds (documented in the module docstring)
TOL_ASSOC_REL = 1e-3
SLOPE_MIN = 0.2
DECAY_FACTOR = 0.5
R2_MIN = 0.97

VERDICT_ASSOCIATED = "associated"
VERDICT_NOT = "not-associated"
VERDICT_INCONCLUSIVE = "inconclusive"
_SEVERITY = {VERDICT_ASSOCIATED: 0, VERDICT_INCONCLUSIVE: 1, VERDICT_NOT: 2}

#: time samples of the semigroup checks in the theorem cross-check and the
#: perturbation claims suite
SUITE_T_SAMPLES = tuple(np.linspace(0.25, 5.0, 12))


@dataclass
class AssociationReport:
    """Difference norms over n with a three-way decay verdict.

    ``norms`` is the per-n envelope (max over test sequences), and ``slope``
    and ``r_squared`` are its fit; when several sequences were tested the
    verdict is the most severe of the per-sequence verdicts.
    """

    indices: list
    norms: list
    verdict: str
    slope: float
    r_squared: float
    tol_assoc: float
    label: str = ""

    def is_associated(self) -> bool:
        return self.verdict == VERDICT_ASSOCIATED


def association_reports(indices: Sequence[int], rows, labels: Sequence[str]
                        ) -> List[AssociationReport]:
    """Apply the verdict rule to each row of a (rows x indices) difference-norm matrix,
    labelled by ``labels``, with one :func:`symbols.fit_moderate_rows` fit for every row
    above the floor.

    A non-finite norm raises ``ValueError`` naming the first such row's label and index.
    """
    indices = list(indices)
    rows = [[float(v) for v in row] for row in rows]
    for norms, label in zip(rows, labels):
        for n, v in zip(indices, norms):
            if not math.isfinite(v):
                raise ValueError(f"{label or 'association'}: norm at n={n} is {v}")
    live = [i for i, norms in enumerate(rows) if max(norms) > NORM_FLOOR]
    # a row at the floor reads associated unfitted, on any number of indices
    fits = dict(zip(live, fit_moderate_rows(indices, [rows[i] for i in live]))) if live else {}
    reports = []
    for i, (norms, label) in enumerate(zip(rows, labels)):
        initial, final = norms[0], norms[-1]
        tol_assoc = TOL_ASSOC_REL * initial
        if i not in fits:
            reports.append(AssociationReport(indices, norms, VERDICT_ASSOCIATED, slope=0.0,
                                             r_squared=1.0, tol_assoc=tol_assoc, label=label))
            continue
        fit = fits[i]
        rel_final = final / max(initial, NORM_FLOOR)
        if final < tol_assoc or (fit.slope <= -SLOPE_MIN and rel_final <= DECAY_FACTOR
                                 and fit.r_squared >= R2_MIN):
            verdict = VERDICT_ASSOCIATED
        elif fit.slope >= 0.0 and final > 10.0 * tol_assoc:
            verdict = VERDICT_NOT
        else:
            verdict = VERDICT_INCONCLUSIVE
        reports.append(AssociationReport(indices, norms, verdict, slope=fit.slope,
                                         r_squared=fit.r_squared, tol_assoc=tol_assoc,
                                         label=label))
    return reports


def make_association_report(indices: Sequence[int], norms: Sequence[float],
                            label: str = "") -> AssociationReport:
    """The :func:`association_reports` verdict on one difference-norm sequence."""
    return association_reports(indices, [norms], [label])[0]


def check_association(s: SymbolSeq, s_tilde: SymbolSeq, levels: Mapping[str, Level],
                      test_seqs: Sequence[TestSequence], ev: Evaluations,
                      n_list: Sequence[int]) -> Dict[str, AssociationReport]:
    """One report per level label: sup over its rows d of ||F^-1(d F x_n)||_2.

    ``levels`` maps each label to a :class:`semigroup.Level`; its rows are
    d = w (F(a_n) - F(a~_n)), with the blocks F from ``ev``.
    The test sequences must be moderate (:meth:`semigroup.Evaluations.verify_moderate`).
    A report's norms are the envelope over the test sequences, and its verdict is
    the most severe per-sequence verdict.  Every per-sequence and envelope row of the
    call goes through one :func:`association_reports` pass.  A NaN norm is kept, so
    that pass rejects it.
    """
    if not test_seqs:
        raise ValueError(f"{', '.join(levels)}: no test sequences")
    ev.verify_moderate(test_seqs, n_list)
    sups: Dict[str, list] = {label: [] for label in levels}
    for n in n_list:
        blocks = [level.weights * (ev.block(s, n, level) - ev.block(s_tilde, n, level))
                  for level in levels.values()]
        norms = multiplier_norms(np.concatenate(blocks), ev.spectra(test_seqs, n))
        start = 0
        for (label, sup), block in zip(sups.items(), blocks):
            if not len(block):
                raise ValueError(f"{label}: no samples")
            sup.append(norms[start:start + len(block)].max(axis=0))  # max keeps a NaN
            start += len(block)
    # per label its sequences' rows, then their envelope when there are several
    rows, labels = [], []
    for label, sup in sups.items():
        per_seq = np.transpose(sup)
        rows += list(per_seq)
        labels += [f"{label}/seq{i}" for i in range(len(per_seq))]
        if len(per_seq) > 1:
            rows.append(per_seq.max(axis=0))
            labels.append(label)
    made = iter(association_reports(n_list, rows, labels))
    reports = {}
    for label in sups:
        per_seq = [next(made) for _ in test_seqs]
        if len(per_seq) == 1:  # the envelope is the one sequence's norms
            reports[label] = dataclasses.replace(per_seq[0], label=label)
            continue
        reports[label] = next(made)
        reports[label].verdict = max((r.verdict for r in per_seq), key=_SEVERITY.get)
    return reports


@dataclass
class ResolventBoundReport:
    """Per-lambda two-sided resolvent-norm bounds over the family."""

    lambda_value: complex
    lower: float
    upper: float
    spread: float
    bounded: bool


def check_resolvent_norm_bounds(s: SymbolSeq, n_list: Sequence[int], lambda_list: Sequence[complex],
             ev: Evaluations) -> List[ResolventBoundReport]:
    """Two-sided bounds c_1 < ||R(lambda, A_n)|| < c_2 over the sampled family.

    On a grid the norms are always finite and positive, so the report gives
    the spread c_2/c_1 and flags families whose norms grow with n.
    """
    sups = operator_sups(s, {"resolvent": resolvent_level(lambda_list, ev.grid)}, ev, n_list)
    columns = sups["resolvent"].T.tolist()  # one row of norms over n per lambda
    slopes = ([fit.slope for fit in fit_moderate_rows(n_list, columns)]
              if len(n_list) >= MIN_FIT_INDICES else [None] * len(columns))
    reports = []
    for lam, vals, slope in zip(lambda_list, columns, slopes):
        lo, hi = min(vals), max(vals)
        reports.append(ResolventBoundReport(lambda_value=complex(lam), lower=lo, upper=hi,
                                spread=hi / lo,
                                bounded=(slope is None or slope <= SLOPE_MIN)))
    return reports


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
        x = grid.coordinate_vectors()
        with np.errstate(over="ignore"):  # |n x|^2 past the largest float: exp gives 0
            raw = GridFunction(grid, np.exp(-np.pi * np.sum((n * x) ** 2, axis=-1)))
        return (math.sqrt(n) / lp_norm(raw, 2)) * raw

    xi_c = (grid.points // 8) * grid.freq_spacing
    x = grid.coordinate_vectors()[..., 0]
    packet = GridFunction(grid, gauss.values * np.exp(TWO_PI * 1j * xi_c * x))

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


def bundled_family_pairs() -> List[FamilyPair]:
    heat = heat_symbol_seq()
    drifted = perturbed_heat_seq()
    std = (4, 8, 16, 32, 64)
    wide = (4, 16, 64, 256, 1024)
    full = ("gaussian", "spike", "oscillatory", "growing")
    fixed = ("gaussian",)

    def bounded_shift(rate, n_min=1):
        """heat + r(n) e^(-|xi|^2), a shift with Re <= r(n_min) <= 1."""
        return summed_symbol_seq(heat, SymbolSeq("gaussian", rate=rate, n_min=n_min))

    pairs = [
        FamilyPair("identical", heat, heat_symbol_seq(), std, full, "associated"),
        FamilyPair("perturbed-coefficients", heat, drifted, std, fixed, "associated"),
        FamilyPair("bounded-1/n", heat, bounded_shift("inverse"), std, full, "associated"),
        # a 1/sqrt(n) difference is defeated by the sqrt(n)-growing witnesses
        # (their product does not decay), so this pair is compared on data of
        # bounded norm only
        FamilyPair("bounded-1/sqrt", heat, bounded_shift("inverse-sqrt"), std,
                   ("gaussian", "oscillatory"), "associated"),
        FamilyPair("quadratic-decay", heat, bounded_shift("inverse-square"), std, full,
                   "associated"),
        FamilyPair("real-shift", heat,
                   summed_symbol_seq(heat, constant_symbol_seq(1.0)),
                   std, full, "not-associated"),
        FamilyPair("imaginary-shift", heat,
                   summed_symbol_seq(heat, constant_symbol_seq(1j)),
                   std, full, "not-associated"),
        FamilyPair("rescaled", heat, SymbolSeq("scaled", parts=(heat,), factor=1.5), std, fixed,
                   "not-associated"),
        # 1/log n is undefined at n = 1: the family starts where its indices do, at 4
        FamilyPair("log-decay", heat, bounded_shift("inverse-log", wide[0]), wide, fixed,
                   "borderline"),
    ]
    return pairs


#: the association levels of the theorem cross-check, in the order of its CSV columns
CROSSCHECK_LEVELS = ("generator", "resolvent", "weighted", "semigroup")


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

    def contradictions(self) -> List[str]:
        """The levels whose verdict is the opposite of the designed ``character``.

        ``associated`` and ``not-associated`` are opposites; ``inconclusive`` and a
        ``borderline`` character contradict nothing.
        """
        opposite = {VERDICT_ASSOCIATED: VERDICT_NOT,
                    VERDICT_NOT: VERDICT_ASSOCIATED}.get(self.character)
        return [level for level in CROSSCHECK_LEVELS if getattr(self, level) == opposite]


def crosscheck_comparison_theorems(pairs: Sequence[FamilyPair],
                                   lambda_list: Sequence[complex],
                                   ev: Evaluations) -> List[PairCrossCheck]:
    """Run all four association levels per pair and list verdict conflicts.

    The resolvent level samples ``lambda_list``; the weighted level uses
    omega = 2, b = 1 and lambda in {3, 3 + 5i, 12}; the semigroup level
    uses omega = 2 and the times ``SUITE_T_SAMPLES``.  One
    :func:`check_association` call per pair, all on the run's ``ev``: each
    family's a_n, each test sequence's power spectrum per n and moderateness
    fit per n_list, and each base family's blocks per level and n, are
    computed once for the whole suite; per pair and n only the comparison
    family's blocks, the differences and one Parseval product remain.  A lambda on the
    numerical spectrum of a pair raises ``ResolventSingularityError`` from
    the resolvent level.  Disagreements indicate tolerance artifacts; on
    the bundled suite there are none, and no pair reads the opposite of its
    character (:meth:`PairCrossCheck.contradictions`).
    """
    omega, b = 2.0, 1.0
    grid = ev.grid
    seqs_all = bundled_test_sequences(grid)
    levels = {"generator": generator_level, "resolvent": resolvent_level(lambda_list, grid),
              "weighted": resolvent_level([omega + 1.0, omega + 1.0 + 5j, omega + 10.0],
                                          grid, b, omega),
              "semigroup": semigroup_level(omega, SUITE_T_SAMPLES, grid)}
    out = []
    for pr in pairs:
        seqs = [seqs_all[name] for name in pr.seq_names]
        labelled = {f"{pr.name}/{name}": level for name, level in levels.items()}
        reports = check_association(pr.s, pr.s_tilde, labelled, seqs, ev, pr.n_list)
        verdicts = dict(zip(levels, (report.verdict for report in reports.values())))
        out.append(PairCrossCheck(pr.name, pr.character, **verdicts))
    return out
