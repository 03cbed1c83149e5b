"""Regenerate reference.json: FP32 final observables per workload and seed.

    python3 perfbench/make_reference.py

For every workload and every ``SimulationConfig.seed`` in
``range(CONFIG_SEEDS)``, runs the FP32 (STANDARD) trajectory the
benchmark runs and records its final nexc, javg and ekin.  Each
workload is computed in a child process with the benchmark's own
environment (``run.child_env``), so BLAS threading matches.  Only
regenerate when the physics is meant to change, and say so.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, child_env  # noqa: E402
from workload import CONFIG_SEEDS, OBSERVABLES, WORKLOADS, config_for  # noqa: E402


def finals(workload: str) -> dict:
    from repro.dcmesh.simulation import Simulation

    out = {}
    for seed in range(CONFIG_SEEDS):
        result = Simulation(config_for(workload, seed)).run(mode="STANDARD")
        out[str(seed)] = {obs: float(result.column(obs)[-1]) for obs in OBSERVABLES}
    return out


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--one":
        print(json.dumps(finals(sys.argv[2])))
        return 0
    refs = {}
    for workload in WORKLOADS:
        got = subprocess.run(
            [sys.executable, __file__, "--one", workload],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        refs[workload] = json.loads(got.stdout.splitlines()[-1])
        print(f"{workload}: {len(refs[workload])} seeds", file=sys.stderr)
    doc = {
        "about": "FP32 (STANDARD) final observables per workload and "
        "SimulationConfig.seed; written by make_reference.py",
        "workloads": refs,
    }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
