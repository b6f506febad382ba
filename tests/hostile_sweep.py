"""Hostile-config sweep: every numeric config field at extreme values, on every subcommand.

Run it by hand from the root of a checkout; pytest does not collect it (the name
does not start with ``test_``), since it makes about 2,500 runs:

    python tests/hostile_sweep.py [command ...]

Each case is one subcommand, its default config, and one numeric field replaced
by one value of the list for the field's type (``HOSTILE``); a list field has
each position replaced in turn, and also the empty list, and an index list its
first index repeated and its indices reversed.  A field also runs on the default
config with each other value of every kind field of its own config section
(``forcing_amplitude`` with ``forcing_kind = gaussian_pulse``, ``data_width``
with each ``data_kind``), since those kinds decide whether the field is read.
Nothing is skipped.  Each case runs the CLI in a fresh process, under a 2 GiB
address-space limit, with ``RuntimeWarning`` shown once per place as usual.

The script prints every run that exits 1 or 2 with the first line of its
message, then a count per subcommand, and exits 1 when a run prints a
traceback or a numpy ``RuntimeWarning``, exits outside {0, 1, 2}, or outlasts
``TIMEOUT_S``.  Exit 1 (a missed gate, or an error the lab reports) and exit 2
(a refused config) are records, not failures.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from semigrouplab.config import (_LAYOUT, DATA_KINDS, FAMILY_KINDS, FORCING_KINDS,  # noqa: E402
                                 FRACTIONAL_C_RATES, PERTURB_C_RATES, default_config,
                                 serialize_config)

COMMANDS = ("verify", "solve", "associate", "perturb", "growth")
_REAL = (float("nan"), float("inf"), float("-inf"), 0.0, -1.0, -1000.0, 1e300, -1e300,
         1e-300, 5e-324)
#: the hostile values of each field type
HOSTILE = {
    float: _REAL,
    complex: tuple(map(complex, _REAL)) + tuple(1j * v for v in _REAL if v and math.isfinite(v)),
    int: (0, -1, 65536, 10**21),
}
#: the values of each kind field
KINDS = {"family_kind": FAMILY_KINDS, "fractional_c_rate": FRACTIONAL_C_RATES,
         "data_kind": DATA_KINDS, "forcing_kind": FORCING_KINDS,
         "perturb_c_rate": PERTURB_C_RATES}
#: seconds a run may take, and runs at a time
TIMEOUT_S = 600
JOBS = 2
#: the CLI under an address-space limit of 2 GiB, so a config that asks for more memory
#: fails its own run with a traceback instead of starving the machine
LIMITED_CLI = ("import resource, runpy; "
               "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
               "runpy.run_module('semigrouplab.cli', run_name='__main__', alter_sys=True)")


def cases(command: str) -> list:
    """(label, config) of every case of ``command``."""
    base = default_config(command)
    out = []
    for keys in _LAYOUT.values():
        bases = [("", base)] + [(f"{kind} = {value}, ", dataclasses.replace(base, **{kind: value}))
                                for kind in keys if kind in KINDS
                                for value in KINDS[kind] if value != getattr(base, kind)]
        for key in keys:
            current = getattr(base, key)
            if isinstance(current, tuple):
                kind = type(current[0])
                values = [current[:i] + (v,) + current[i + 1:]
                          for i in range(len(current)) for v in HOSTILE[kind]]
                values.append(())
                if kind is int:
                    values += [(current[0],) + current, current[::-1]]
            elif type(current) in HOSTILE:
                values = list(HOSTILE[type(current)])
            else:
                continue
            out += [(f"{prefix}{key} = {value}", dataclasses.replace(cfg, **{key: value}))
                    for prefix, cfg in bases for value in values]
    return out


def run(command: str, label: str, cfg, tmp: Path, index: int) -> tuple:
    """(command, label, exit code, first message line, problem or None) of one case."""
    path = tmp / f"{command}-{index}.cfg"
    path.write_text(serialize_config(cfg))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    try:
        proc = subprocess.run([sys.executable, "-c", LIMITED_CLI, command, "--config",
                               str(path), "--out", str(tmp / f"out-{command}-{index}")],
                              cwd=tmp, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return command, label, None, "", f"no exit within {TIMEOUT_S} s"
    finally:  # a solve writes 8.5 MB
        shutil.rmtree(tmp / f"out-{command}-{index}", ignore_errors=True)
    err = proc.stderr
    problem = ("traceback" if "Traceback (most recent call last)" in err
               else "RuntimeWarning" if "RuntimeWarning" in err
               else f"exit {proc.returncode}" if proc.returncode not in (0, 1, 2) else None)
    out = proc.stdout.splitlines()
    # the refusal or error on stderr, else a missed gate or an error verify reports, else
    # the first line, where perturb reports its oracle
    lines = (err.splitlines() or [line for line in out if "FAIL" in line or "error" in line]
             or out or [""])
    return command, label, proc.returncode, lines[0].strip(), problem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commands", nargs="*", help=f"any of {', '.join(COMMANDS)} "
                        "(default: all)")
    args = parser.parse_args(argv)
    if set(args.commands) - set(COMMANDS):
        parser.error(f"unknown subcommands {sorted(set(args.commands) - set(COMMANDS))}")
    chosen = args.commands or COMMANDS
    with tempfile.TemporaryDirectory(prefix="hostile-sweep-") as tmp, \
            ThreadPoolExecutor(max_workers=JOBS) as pool:
        futures = [pool.submit(run, command, label, cfg, Path(tmp), i)
                   for command in chosen for i, (label, cfg) in enumerate(cases(command))]
        results = [f.result() for f in futures]
    print("| command | case | exit | message |\n|---|---|---|---|")
    for command, label, code, message, problem in results:
        if code in (1, 2) or problem:
            print(f"| {command} | {label} | {code} | {problem or message} |")
    print("\n| command | runs | exit 0 | exit 1 | exit 2 | failed |\n|---|---|---|---|---|---|")
    for command in chosen:
        mine = [r for r in results if r[0] == command]
        counts = [sum(r[2] == code and not r[4] for r in mine) for code in (0, 1, 2)]
        print(f"| {command} | {len(mine)} | {' | '.join(map(str, counts))} | "
              f"{sum(bool(r[4]) for r in mine)} |")
    failed = [r for r in results if r[4]]
    for command, label, _, _, problem in failed:
        print(f"FAIL: {command}, {label}: {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
