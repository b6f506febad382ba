#!/usr/bin/env python3
"""Regenerate the stored reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py

Runs every workload in-process for each seed in ``checks.SHIPPED_SEEDS``,
requires every scenario check to pass, and stores each CSV in the form
``checks.summarize_csv`` gives.  Run it only when a change to the program is
meant to change its outputs, and say so with the change.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def scenario_outputs(workload: str, seed: int, workdir: Path) -> dict:
    """Run one scenario through ``cli.main`` and return its CSV summaries."""
    import checks
    import scenarios
    from semigrouplab import cli

    config = workdir / f"{workload}-{seed}.ini"
    config.write_text(scenarios.config_text(workload, seed))
    out = workdir / f"out-{workload}-{seed}"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([workload, "--config", str(config), "--out", str(out), "--no-plots"])
    problems = checks.call_problems(workload, out, rc)
    if problems:
        raise SystemExit(f"{workload} seed {seed} fails its checks: {problems}")
    return {p.name: checks.summarize_csv(p) for p in sorted(out.glob("*.csv"))}


def main() -> None:
    import checks
    import scenarios

    (HERE / "reference").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in scenarios.WORKLOADS:
            stored = {str(seed): scenario_outputs(workload, seed, Path(tmp))
                      for seed in checks.SHIPPED_SEEDS}
            path = HERE / "reference" / f"{workload}.json"
            path.write_text(json.dumps({"seeds": stored}, separators=(",", ":")) + "\n")
            print(f"wrote {path} ({len(stored)} seeds)")


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    main()
