"""Output checks for one scenario call, and the stored reference outputs.

A call passes only if every check holds:

- exit code 0;
- ``verify``: all five lines of ``verify_summary.txt`` say ``pass``;
- ``associate``: ``theorem_agreement.csv`` lists no disagreements;
- ``perturb``: the oracle line of ``perturb_summary.txt`` is within its
  tolerance and the three claim verdicts read as in ``EXPECTED_CLAIMS``,
  which hold for every seed the scenario generator can produce;
- ``solve``: every ``convergent`` value in ``weak_limits.csv`` is ``True``
  and every residual in ``residuals.csv`` is finite (``run_solve`` exits 0
  even when these fail, so the files are read here);
- for the seeds in ``SHIPPED_SEEDS``, every CSV matches the stored
  reference (a shipped seed without one fails): cells that parse as numbers
  within ``REL_TOL`` relative with an ``ABS_FLOOR`` absolute floor, other
  cells exactly.  The floor covers values at rounding level, such as the
  ~1e-18 imaginary parts in ``weak_limits.csv``; the relative tolerance
  leaves room for re-ordered arithmetic, such as a closed form replacing a
  quadrature, which moves the last one or two digits.
  The ``worst`` column of ``verify.csv`` is an oracle error, not a result: it
  is checked against its ``tolerance`` column instead.  ``solution.csv`` is
  stored as its row count, its column sums and every ``SOLUTION_STRIDE``-th
  row, to keep the references small.

The byte-identity of CSVs across the calls of one run is checked by the
runner with ``csv_digests``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_FLOOR = 1e-12
SOLUTION_STRIDE = 4096
#: seeds with stored references; a run at one of them without its stored
#: entry fails
SHIPPED_SEEDS = range(0, 32)
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

EXPECTED_CLAIMS = [
    "claim 1 growth moderate: True",
    "claim 2 perturbed pair: associated",
    "claim 3 base weighted-resolvent / transported: associated / associated",
]


def csv_digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _number(cell: str):
    try:
        return complex(cell)
    except ValueError:
        return None


def summarize_csv(path: Path) -> dict:
    """The stored form of one CSV: header, row count and rows; for
    ``solution.csv`` every ``SOLUTION_STRIDE``-th row plus column sums."""
    header, rows = _read_csv(path)
    if path.name != "solution.csv":
        return {"header": header, "row_count": len(rows), "stride": 1, "rows": rows,
                "column_sums": None}
    sums = []
    for col in range(len(header)):
        values = [_number(row[col]) for row in rows]
        sums.append(None if any(v is None for v in values)
                    else repr(sum(values, 0j)).strip("()"))
    return {"header": header, "row_count": len(rows), "stride": SOLUTION_STRIDE,
            "rows": rows[::SOLUTION_STRIDE], "column_sums": sums}


def _cells_match(got: str, want: str) -> bool:
    a, b = _number(got), _number(want)
    if a is None or b is None:
        return got == want
    if a == b:
        return True
    if any(map(math.isnan, (a.real, a.imag, b.real, b.imag))):
        return False
    return abs(a - b) <= max(REL_TOL * abs(b), ABS_FLOOR)


def _compare(name: str, got: dict, want: dict) -> list:
    problems = []
    for key in ("header", "row_count", "stride"):
        if got[key] != want[key]:
            return [f"{name}: {key} {got[key]!r} != reference {want[key]!r}"]
    skip = {"worst"} if name == "verify.csv" else set()
    header = want["header"]
    for r, (row, ref) in enumerate(zip(got["rows"], want["rows"])):
        for col, (cell, ref_cell) in enumerate(zip(row, ref)):
            if header[col] not in skip and not _cells_match(cell, ref_cell):
                problems.append(f"{name} row {r * want['stride']} {header[col]}: "
                                f"{cell} != reference {ref_cell}")
    for col, (s, ref_s) in enumerate(zip(got["column_sums"] or [], want["column_sums"] or [])):
        if header[col] in skip or (s is None and ref_s is None):
            continue
        if s is None or ref_s is None or not _cells_match(s, ref_s):
            problems.append(f"{name} column sum {header[col]}: {s} != reference {ref_s}")
    return problems


def load_reference(workload: str, seed: int):
    """Stored CSV summaries of ``workload`` at ``seed``; None for a seed
    outside ``SHIPPED_SEEDS``.  Raises ``LookupError`` when a shipped seed
    has no stored entry."""
    if seed not in SHIPPED_SEEDS:
        return None
    path = REFERENCE_DIR / f"{workload}.json"
    stored = json.loads(path.read_text())["seeds"] if path.exists() else {}
    if str(seed) not in stored:
        raise LookupError(f"no stored reference for {workload} seed {seed} in {path}")
    return stored[str(seed)]


def reference_problems(out_dir: Path, reference: dict) -> list:
    names = sorted(p.name for p in out_dir.glob("*.csv"))
    if names != sorted(reference):
        return [f"CSV files {names} != reference {sorted(reference)}"]
    problems = []
    for name in names:
        problems += _compare(name, summarize_csv(out_dir / name), reference[name])
    return problems


def _lines(path: Path) -> list:
    return path.read_text().splitlines() if path.exists() else []


def scenario_problems(workload: str, out_dir: Path) -> list:
    """Checks every call must pass, whatever the seed."""
    problems = []
    if workload == "verify":
        lines = _lines(out_dir / "verify_summary.txt")
        if len(lines) != 5 or not all(": pass (" in line for line in lines):
            problems.append(f"verify_summary.txt: {lines}")
        _, rows = _read_csv(out_dir / "verify.csv")
        for suite, worst, tol, *_ in rows:
            if not float(worst) <= float(tol):
                problems.append(f"verify.csv {suite}: worst {worst} > tolerance {tol}")
    elif workload == "solve":
        header, rows = _read_csv(out_dir / "weak_limits.csv")
        col = header.index("convergent")
        if not rows or any(row[col] != "True" for row in rows):
            problems.append(f"weak_limits.csv: not all convergent: {rows}")
        _, rows = _read_csv(out_dir / "residuals.csv")
        if not rows or not all(math.isfinite(float(r)) for _, r in rows):
            problems.append(f"residuals.csv: non-finite residual: {rows}")
    elif workload == "associate":
        header, rows = _read_csv(out_dir / "theorem_agreement.csv")
        col = header.index("disagreements")
        bad = [row for row in rows if row[col]]
        if not rows or bad:
            problems.append(f"theorem_agreement.csv disagreements: {bad}")
    elif workload == "perturb":
        lines = _lines(out_dir / "perturb_summary.txt")
        oracle = lines[0].split() if lines else []
        # "oracle max deviation: <worst> (tol <tol>)"
        if len(oracle) != 6 or not float(oracle[3]) <= float(oracle[5].rstrip(")")):
            problems.append(f"perturb_summary.txt oracle line: {lines[:1]}")
        if lines[1:] != EXPECTED_CLAIMS:
            problems.append(f"perturb_summary.txt claims: {lines[1:]}")
    return problems


def call_problems(workload: str, out_dir: Path, rc, reference=None) -> list:
    """Every failed check of one call; empty when the call passes."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        problems = scenario_problems(workload, out_dir)
        if reference is not None:
            problems += reference_problems(out_dir, reference)
    except (OSError, ValueError, IndexError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems
