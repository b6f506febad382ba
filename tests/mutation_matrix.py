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

#: the lines of ``Evaluations.block`` between its lookup and its store of a block
BLOCK_BODY = ("        if isinstance(first, np.ndarray):\n            return first\n"
              "        block = None if first is None else first()\n"
              "        if block is None:\n"
              "            block = level.factor(n, self.values(s, n))\n        ")

#: the lines of ``Evaluations.values`` between its lookup and its store of a_n
VALUES_BODY = ("        if a is None:  # a copy fills the space the evaluation freed, not the "
               "top of the heap\n            a = self._values")

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
    # X of a doubling step is 1 + e^(u (a + b)); e^(u b) drops the e^(u a) of its upper half
    ("time_integral doubling X takes e^(u b)", "semigroup.py",
     "x * (1.0 + x_b[j])", "x * (1.0 + e_b[j])", {"verify", "perturb", "tier-1"}),
    ("time_integral doubling P drops the X factor", "semigroup.py",
     "p * (1.0 + e_b[j]) + x * p_b[j]", "p * (1.0 + e_b[j]) + p_b[j]",
     {"verify", "perturb", "tier-1"}),
    # the functional-equation and perturbation suites' 1,000 samples leave a partial slice
    ("time_integral drops the partial last slice", "semigroup.py",
     "for i in range(0, shape[-1], rows)]", "for i in range(0, shape[-1] - rows + 1, rows)]",
     {"verify", "tier-1"}),
    # an operand of width one on the sliced axis is then empty past the first slice
    ("time_integral slices an operand that broadcasts", "semigroup.py",
     "(x, np.shape(x)[-1:] == shape[-1:])", "(x, np.ndim(x) > 0)", {"tier-1"}),
    # each row then subtracts the integral of another time
    ("perturbed_factor integrals in reverse time order", "perturbation.py",
     "time_integral(t, a, b) for t in times]", "time_integral(t, a, b) for t in times[::-1]]",
     {"perturb", "tier-1"}),
    ("power_spectra drops the 1/N", "semigroup.py",
     "spectra *= grid.cell_volume / spectra[0].size", "spectra *= grid.cell_volume",
     {"tier-1"}),
    # every comparison family then reads the base family's blocks: a zero difference
    ("Evaluations serves the base blocks to the comparison side", "semigroup.py",
     "first = asked.get((s, n))\n" + BLOCK_BODY + "asked[s, n] =",
     "first = asked.get(n)\n" + BLOCK_BODY + "asked[n] =", {"associate", "tier-1"}),
    # every family then reads the values of the first family evaluated at n
    ("Evaluations values keyed on n, not on the family", "semigroup.py",
     "a = self._values.get((s, n))\n" + VALUES_BODY + "[s, n] =",
     "a = self._values.get(n)\n" + VALUES_BODY + "[n] =",
     {"associate", "tier-1"}),
    # equal parts in place of the levels' row counts: each label reads other levels' rows
    ("check_association splits the norm block evenly", "association.py",
     "np.split(norms, ends)", "np.array_split(norms, len(blocks))", {"associate", "tier-1"}),
    ("Bromwich factors x (1 + 1e-6)", "semigroup.py",
     "(p * d_im - q_re)) / (2.0 * np.pi))[:, inverse]",
     "(p * d_im - q_re)) / (2.0 * np.pi) * (1 + 1e-6))[:, inverse]",
     {"tier-1"}),
    # the default verify family, heat, has no mode with Im a < 0 to conjugate
    ("Bromwich fold without the conjugation", "semigroup.py",
     "    np.conjugate(factors, out=factors, where=flat.imag < 0)\n", "",
     {"tier-1"}),
    ("duhamel_solve drops the q_2 term", "cauchy.py",
     "what = ez * what + prof[m] * q1 + (prof[m + 1] - prof[m]) * q2",
     "what = ez * what + prof[m] * q1", {"tier-1"}),
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
    # the running sum takes the previous slice: it counts w(t_0) twice and misses w(t_j)
    ("SliceSums.add sums the previous slice", "cauchy.py",
     "            self.total += w\n", "            self.total += self.last\n", {"tier-1"}),
    # the closed-form re_bound max(g(r(n_min)), g(r_inf)) with one end dropped: no default
    # config reads a family whose sup sits at the dropped end
    ("closed-form re_bound drops its r_inf end", "symbols.py",
     "return max(self._g(limit + 1.0 / scale(self.n_min), factor), self._g(limit, factor))",
     "return self._g(limit + 1.0 / scale(self.n_min), factor)", {"tier-1"}),
    ("closed-form re_bound drops its r(n_min) end", "symbols.py",
     "return max(self._g(limit + 1.0 / scale(self.n_min), factor), self._g(limit, factor))",
     "return self._g(limit, factor)", {"tier-1"}),
    # families equal but for p share one key, so one family reads the other's values
    ("SymbolSeq value key drops p", "symbols.py",
     'object.__setattr__(self, "_repr", repr(self))',
     'object.__setattr__(self, "_repr", repr((self.shape, self.q, self.rate, self.n_min, '
     'self.m, self.parts, self.factor)))', {"tier-1"}),
    ("fit_moderate slope x (1 + 1e-6)", "symbols.py",
     "slope = float(np.sum((x - xm) * (y - ym)) / var)",
     "slope = float(np.sum((x - xm) * (y - ym)) / var) * (1 + 1e-6)", {"tier-1"}),
    # a sequence constant up to round-off then fits a round-off slope and R^2
    ("fit_moderate constant only when exactly equal", "symbols.py",
     "constant = np.ptp(y) <= 8 * np.finfo(float).eps", "constant = np.ptp(y) <= 0.0",
     {"tier-1"}),
    ("write_rows drops the last row", "csvio.py",
     "        for row in rows:\n            writer.writerow(",
     "        for row in list(rows)[:-1]:\n            writer.writerow(", {"tier-1"}),
    ("write_solution swaps the re_w and im_w columns", "csvio.py",
     'f"{head}{x},{r!r},{i!r}\\n"', 'f"{head}{x},{i!r},{r!r}\\n"', {"tier-1"}),
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
                               str(copy / f"out-{command}")],
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
