"""Mutation matrix: every one-line mutant of a kernel must fail some check.

Run it by hand from the root of a checkout; pytest does not collect it (the name
does not start with ``test_``), since it takes about 30 s per mutant:

    python tests/mutation_matrix.py [--rev REV] [mutant ...]

Each entry of ``MUTANTS`` is (name, file under src/semigrouplab, exact old text,
new text, expected killers).  The checks are the five subcommands on their
default configs, which kill a mutant by a nonzero exit, and ``tier-1``, the
whole pytest suite, which kills it by a failed test.  Every mutant runs on its
own ``git archive`` copy of REV: by default the tracked files of the working
tree (``git stash create``), or HEAD when nothing is modified.  An unmutated
copy runs first and must pass every check.

The script prints the matrix and exits 1 when a mutant survives every check,
when an expected killer lets it pass, or when its old text no longer occurs
exactly once, so a refactor of a mutated line must update its mutant.
"""
from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("verify", "solve", "associate", "perturb", "growth")
CHECKS = COMMANDS + ("tier-1",)

MUTANTS = [
    ("phi result x (1 + 1e-9)", "semigroup.py",
     "    return out\n\n\ndef time_integral",
     "    out *= 1 + 1e-9\n    return out\n\n\ndef time_integral",
     {"verify", "tier-1"}),
    ("phi Taylor z^2/5 for z^2/6", "semigroup.py",
     "z**2 / 6.0", "z**2 / 5.0", {"tier-1"}),
    ("phi sin(abs(y)/2), a sign bug for Im(ta) < 0", "semigroup.py",
     "s = np.sin(half)", "s = np.sin(np.abs(half))", {"verify", "tier-1"}),
    ("resolvent_factor x (1 + 1e-9)", "semigroup.py",
     "return np.divide(1.0, diff, out=diff)", "return np.divide(1.0 + 1e-9, diff, out=diff)",
     {"verify", "tier-1"}),
    ("time_integral Gauss weights x (1 + 1e-9)", "semigroup.py",
     "weights = np.reshape(0.5 * gw, lead) * h",
     "weights = np.reshape(0.5 * gw, lead) * h * (1 + 1e-9)",
     {"verify", "perturb", "tier-1"}),
    ("power_spectra drops the 1/N", "semigroup.py",
     "spectra *= grid.cell_volume / spectra[0].size", "spectra *= grid.cell_volume",
     {"tier-1"}),
    # every comparison family then reads the base family's blocks: a zero difference
    ("SharedPass serves the base blocks to the comparison side", "association.py",
     "key = (n, a.shape, a.tobytes())", "key = (n,)", {"associate", "tier-1"}),
    ("Bromwich factors x (1 + 1e-6)", "semigroup.py",
     "(p * d_im - q_re)) / (2.0 * np.pi))[:, inverse]",
     "(p * d_im - q_re)) / (2.0 * np.pi) * (1 + 1e-6))[:, inverse]",
     {"tier-1"}),
    # the default verify family, heat, has no mode with Im a < 0 to conjugate
    ("Bromwich fold without the conjugation", "semigroup.py",
     "    np.conjugate(factors, out=factors, where=flat.imag < 0)\n", "",
     {"tier-1"}),
    ("duhamel_solve drops the q_2 term", "cauchy.py",
     "w[m + 1] = ez * w[m] + prof[m] * q1 + (prof[m + 1] - prof[m]) * q2",
     "w[m + 1] = ez * w[m] + prof[m] * q1", {"tier-1"}),
    ("semigroup_level weight e^(-0.999 omega t)", "semigroup.py",
     "math.exp(-omega * t) for t in map(float, t_samples)",
     "math.exp(-0.999 * omega * t) for t in map(float, t_samples)", {"tier-1"}),
    ("certify_growth drops the last t sample", "semigroup.py",
     "times = np.asarray(t_samples, dtype=float)\n    if np.any(times <= 0)",
     "times = np.asarray(t_samples, dtype=float)[:-1]\n    if np.any(times <= 0)",
     {"tier-1"}),
    ("derivative_level sign (-1)^k -> 1", "semigroup.py",
     "sign = -1.0 if k % 2 else 1.0", "sign = 1.0", {"tier-1"}),
    ("mollifier mass x (1 + 1e-9)", "spectral.py",
     "mass = np.sum(vals) * grid.cell_volume",
     "mass = np.sum(vals) * grid.cell_volume * (1 + 1e-9)", {"tier-1"}),
    ("_phi_k series 12 terms, not 24", "cauchy.py",
     "for i in range(23, -1, -1):", "for i in range(11, -1, -1):", {"tier-1"}),
]


def export(rev: str, dest: Path) -> None:
    """The tree of ``rev`` under ``dest``, by ``git archive``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_checks(copy: Path) -> dict:
    """Per check: None when it passes, else what killed the copy."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = {}
    for command in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "semigrouplab.cli", command, "--out",
                               str(copy / f"out-{command}"), "--no-plots"],
                              cwd=copy, env=env, capture_output=True, text=True)
        out[command] = None if proc.returncode == 0 else f"exit {proc.returncode}"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "tests"], cwd=copy, env=env, capture_output=True, text=True)
    failed = re.search(r"(\d+) failed", proc.stdout)
    out["tier-1"] = (None if proc.returncode == 0
                     else f"{failed.group(1) if failed else '?'} failed")
    return out


def default_rev() -> str:
    stash = subprocess.run(["git", "stash", "create"], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    return stash or "HEAD"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default=None, help="tree to mutate (default: working tree)")
    parser.add_argument("mutants", nargs="*", help="names of the mutants to run (default: all)")
    args = parser.parse_args(argv)
    rev = args.rev or default_rev()
    chosen = [m for m in MUTANTS if not args.mutants or m[0] in args.mutants]
    problems = []
    print(f"| mutant | {' | '.join(CHECKS)} |\n|---|{'---|' * len(CHECKS)}")
    with tempfile.TemporaryDirectory(prefix="mutation-matrix-") as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        export(rev, base)
        kills = run_checks(base)
        print(f"| (none) | {' | '.join(kills[c] or '-' for c in CHECKS)} |", flush=True)
        problems += [f"unmutated copy fails {c}: {v}" for c, v in kills.items() if v]
        for i, (name, file, old, new, expected) in enumerate(chosen):
            copy = Path(tmp) / f"m{i}"
            copy.mkdir()
            export(rev, copy)
            path = copy / "src" / "semigrouplab" / file
            text = path.read_text()
            if text.count(old) != 1:
                problems.append(f"{name}: old text occurs {text.count(old)} times in {file}")
                continue
            path.write_text(text.replace(old, new))
            kills = run_checks(copy)
            print(f"| {name} | {' | '.join(kills[c] or '-' for c in CHECKS)} |", flush=True)
            if not any(kills.values()):
                problems.append(f"{name}: survives every check")
            problems += [f"{name}: expected killer {c} passes" for c in sorted(expected)
                         if not kills[c]]
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
