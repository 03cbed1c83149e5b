"""Precision-study benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload ladder-small --seed 3 --seconds 20 --trace 0

Runs one workload in fresh child processes (``workload.py``), applies
the correctness gate, prints every metric by name and unit with the
host provenance, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from an
untraced run.  Its times are scaled to the reference host speed
(``workload.HostClock``); the printed report gives the raw wall-clock
figures next to them.  ``--trace 1`` reports the per-layer metrics: an
untraced and a traced run of the same study, the traced one with the
layer tracer (``tracer.py``) wrapped around the program's public
functions.  The two runs' observables must be bitwise identical.

``--seed`` picks the ground state: it reaches the program only as
``SimulationConfig.seed = seed % 16``, the seeds reference.json holds
FP32 references for.  ``--seconds`` sets how many whole studies a run
measures, ``max(1, seconds // NOMINAL_STUDY_S[workload])``; a study is
a fixed amount of work, so ``study_s`` stays comparable between runs.

Each run writes its report, spans and queue files under
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workload import CONFIG_SEEDS, LADDER, WORKLOADS  # noqa: E402

#: Seconds one study takes on a 2-core host (sets repetitions).
NOMINAL_STUDY_S = {"ladder-small": 25, "ladder-medium": 30, "ensemble-small": 15}
#: Whole-run wall budget; a child still running then is killed.
DEADLINE_S = 170.0

#: Which end-to-end metric each per-layer metric should move.
_SPLIT = "step_ms of bf16/tf32/bf16x2/bf16x3/ozaki_int8/adaptive"
_EMULATED = "step_ms of ozaki_int8/emu_fp64/bf16x3"
TARGETS = {
    "blas.plan.lookup_ms": f"{_SPLIT} on both ladders, lfd_peak_mb on "
    "ladder-medium; no change on fp32/3m (lookup bypassed)",
    "blas.rounding.split_ms": f"{_SPLIT} on both ladders, lfd_peak_mb on "
    "ladder-medium; no change on fp32/3m",
    "blas.backend.matmul_ms": f"{_EMULATED}, mostly ladder-medium; "
    "no change on fp32",
    "blas.backend.matmul_calls": f"{_EMULATED} (exact count)",
    "blas.backend.flop_per_byte": f"{_EMULATED} (computed)",
    "blas.gemm.self_ms": "every step_ms, most on ladder-small",
    "dcmesh.mesh.fft_ms": "step_ms.fp32, step_ms.3m",
    "dcmesh.scf.solve_s": "setup_s",
    "dcmesh.scf.update_ms": "study_s (not the step medians)",
    "dcmesh.nlp.init_ms": "study_s (not the step medians)",
    "dcmesh.propagate.self_ms": "every step_ms",
    "dcmesh.energy.self_ms": "every step_ms",
    "dcmesh.occupation.self_ms": "every step_ms",
    "dcmesh.current.self_ms": "every step_ms",
    "dcmesh.simulation.self_ms": "every step_ms (unattributed loop remainder)",
    "blas.plan.hit_ratio": _SPLIT,
    "blas.workspace.bytes": "lfd_peak_mb",
    "core.scheduler.on_step_ms": "step_ms.adaptive",
    "telemetry.drift.observe_ms": "step_ms.adaptive",
    "core.scheduler.escalations": "step_ms.adaptive",
    "distrib.": "study_s on ensemble-small",
    "trace.overhead_frac": "none (cost of the tracer itself)",
    "trace.attributed_frac": "none (share of step time the named layers explain)",
}
DISTRIB_METRICS = (
    "distrib.cells",
    "distrib.duplicates",
    "distrib.corrupt_records",
    "distrib.cell_busy_s",
    "distrib.fanout_overhead_s",
)


def die(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ----------------------------------------------------------------------
# Host provenance.
# ----------------------------------------------------------------------


def host() -> dict:
    cpu = platform.processor() or "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    with open("/proc/meminfo") as fh:
        ram_kb = int(next(ln for ln in fh if ln.startswith("MemTotal")).split()[1])
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "ram_gb": round(ram_kb / 2**20, 1),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    got = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        check=False,
    )
    return got.stdout.strip() or "unavailable"


def source_digest() -> str:
    """sha256 over src/**/*.py, so a checkout without git is identified."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# Children.
# ----------------------------------------------------------------------


def child_env() -> dict:
    """The ambient environment minus anything that selects program
    behaviour (compute mode, ``REPRO_*`` switches)."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "MKL_BLAS_COMPUTE_MODE"
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    # One BLAS thread per process (ensemble workers inherit it): a
    # neighbour's load on the other core then cannot stall a GEMM, and
    # FP32 results do not depend on the host's core count.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, work: Path, name: str, deadline: float, **opts) -> dict:
    cdir = work / name
    cdir.mkdir(parents=True)
    out = cdir / "result.json"
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload",
        args.workload,
        "--config-seed",
        str(args.seed % CONFIG_SEEDS),
        "--work",
        str(cdir),
        "--out",
        str(out),
    ]
    for key, value in opts.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    # Child output goes to stderr: the result line must be stdout's last.
    proc = subprocess.Popen(
        cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr, start_new_session=True
    )
    try:
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        stop_session(proc)
    if rc is None:
        die(f"{name} run exceeded the {DEADLINE_S:.0f} s budget")
    if rc != 0 or not out.exists():
        die(f"{name} run failed (exit code {rc})")
    with open(out) as fh:
        return json.load(fh)


def stop_session(proc) -> None:
    """Kill the child's session (it also holds any distributed workers)
    and wait until every process in it has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def on_sigterm(signum, frame):
    raise SystemExit(f"perfbench: stopped by signal {signum}")


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------


def tail(samples: list) -> str:
    """Highest percentile (at most p90) with >= 10 samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n}, too few samples for a tail percentile"
    q = min(90, int(100 * (n - 10) / n))
    cut = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    beyond = sum(1 for s in samples if s > cut)
    return f"p{q} {1e3 * cut:.3f} ms, {beyond} beyond, n={n}"


def end_to_end(child: dict) -> tuple:
    """(metrics, notes) from an untraced child's figures; the notes give
    the raw wall-clock medians next to the scaled values."""
    m, notes = {}, {}
    for name in ("setup_s", "study_s"):
        m[name] = statistics.median(child[name])
        raw = statistics.median(child[name.replace("_s", "_raw_s")])
        notes[name] = f"median of {len(child[name])}; raw {raw:.4g} s"
    for label, _mode in LADDER:
        samples = child["step_s"].get(label)
        if samples:
            m[f"step_ms.{label}"] = 1e3 * statistics.median(samples)
            raw = 1e3 * statistics.median(child["step_raw_s"][label])
            notes[f"step_ms.{label}"] = f"{tail(samples)}; raw median {raw:.4g} ms"
    m["peak_rss_mb"] = child["peak_rss_mb"]
    m["lfd_peak_mb"] = child["lfd_peak_mb"]
    attempted = child["attempted"]
    m["ok_frac"] = (attempted - len(child["failed_units"])) / attempted
    return m, notes


def per_layer(base: dict, traced: dict, procs: dict) -> tuple:
    layers = traced["layers"]
    m, notes = {}, {}
    for label, _mode in LADDER:
        row = layers["per_mode"].get(label)
        if not row:
            continue
        for key, value in row.items():
            if key not in ("flops_per_step", "bytes_per_step"):
                m[f"{key}.{label}"] = value
        notes[f"blas.backend.flop_per_byte.{label}"] = (
            f"computed: {row['flops_per_step']:.4g} FLOP and "
            f"{row['bytes_per_step']:.4g} B per QD step"
        )
    m.update(layers["workload"])
    m.update({name: 0 for name in DISTRIB_METRICS})  # the ladders run no cells
    d = procs.get("distrib") if procs else None
    if d:
        study = statistics.median(procs["study_s"])
        m["distrib.cells"] = d["cells"]
        m["distrib.duplicates"] = d["duplicates"]
        m["distrib.corrupt_records"] = d["corrupt_records"]
        m["distrib.cell_busy_s"] = d["cell_busy_s"]
        m["distrib.fanout_overhead_s"] = study - d["cell_busy_s"] / d["workers"]
    traced_s = statistics.median(traced["study_s"])
    m["trace.overhead_frac"] = traced_s / statistics.median(base["study_s"]) - 1.0
    return m, notes


def layer_report(traced: dict) -> list:
    """Per-mode layer self-time tables, unattributed remainder shown."""
    from tracer import ROOT_LAYER, attributed_share, layer_table

    lines = []
    for tag, run in sorted(traced["layers"]["runs"].items()):
        lines.append(
            f"### {tag}: {run['steps']} QD steps in {run['runs']} run(s), "
            f"{run['wall_s']:.3f} s, attributed {100 * attributed_share(run):.1f}%"
        )
        lines.append("| layer | self ms/step | share |")
        lines.append("|---|---:|---:|")
        for layer, ms, share in layer_table(run):
            name = f"unattributed ({layer} self)" if layer == ROOT_LAYER else layer
            lines.append(f"| {name} | {ms:.4f} | {100 * share:.1f}% |")
        lines.append("")
    return lines


def run_children(args, work: Path, deadline: float) -> tuple:
    """Run the workload's children; return (children, base, traced, procs)."""
    if not args.trace:
        reps = max(1, args.seconds // NOMINAL_STUDY_S[args.workload])
        child = run_child(args, work, "untraced", deadline, reps=reps, setups=3)
        return [child], child, None, None
    # Raw times on both sides, so the overhead compares like with like.
    opts = {"setups": 1, "scale_time": 0}
    if WORKLOADS[args.workload]["kind"] == "ensemble":
        # Real worker processes for the distrib.* figures; traced and
        # untraced in-process drains of the same queue for the layers.
        procs = run_child(args, work, "procs", deadline, **opts)
        opts["transport"] = "inline"
        base = run_child(args, work, "untraced", deadline, **opts)
        traced = run_child(args, work, "traced", deadline, trace=1, **opts)
        return [procs, base, traced], base, traced, procs
    base = run_child(args, work, "untraced", deadline, **opts)
    traced = run_child(args, work, "traced", deadline, trace=1, **opts)
    return [base, traced], base, traced, None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Precision-study benchmark.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, on_sigterm)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        die(f"no program source under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    t_start = time.monotonic()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    children, base, traced, procs = run_children(args, work, t_start + DEADLINE_S)

    failures = [f for c in children for f in c["failures"]]
    identical = all(c["digests"] == children[-1]["digests"] for c in children)
    if args.trace:
        metrics, notes = per_layer(base, traced, procs)
        notes["trace.overhead_frac"] = "traced vs untraced study_s, same transport"
        declared = spec["per_layer"]
        if not identical:
            failures.append("traced observables differ from untraced ones")
    else:
        metrics, notes = end_to_end(base)
        declared = spec["end_to_end"]
    attempted = children[0]["attempted"]
    failed = len({u for c in children for u in c["failed_units"]})
    units = {m["name"]: m["unit"] for m in declared}
    failures += [f"metric {m} not measured" for m in sorted(set(units) - set(metrics))]

    info = host()
    lines = [
        f"# perfbench {args.workload} seed={args.seed} "
        f"(SimulationConfig.seed={args.seed % CONFIG_SEEDS}) trace={args.trace}",
        "",
        "## Host",
        f"- CPU: {info['cpu']}, nproc {info['nproc']}, RAM {info['ram_gb']} GB",
        "- " + ", ".join(f"{k} {v}" for k, v in children[0]["software"].items()),
        f"- commit {info['commit']}, src sha256 {info['source_sha256']}",
        "- environment: MKL_BLAS_COMPUTE_MODE and REPRO_* cleared; "
        "1 BLAS thread per process",
        "",
        "## Metrics",
    ]
    for metric, unit in units.items():
        if metric not in metrics:
            continue
        line = f"- {metric} = {metrics[metric]:.6g} {unit}"
        if metric in notes:
            line += f"  ({notes[metric]})"
        target = next((t for k, t in TARGETS.items() if metric.startswith(k)), None)
        if args.trace and target:
            line += f"  -> {target}"
        lines.append(line)
    lines += [
        "",
        "## Correctness gate",
        f"- attempted {attempted}, failed {failed} "
        f"(failed_frac {failed / attempted:.3g})",
    ]
    for row in children[0]["gate"]:
        devs = ", ".join(f"{o} {row[o]:.3e}" for o in ("nexc", "javg", "ekin"))
        lines.append(
            f"- {row['label']}: max deviation from FP32 / scale {devs}; "
            f"envelope {row['envelope']:.3e}"
        )
    if args.trace:
        lines.append(f"- traced observables bitwise identical to untraced: {identical}")
    lines += [f"- FAILED: {f}" for f in failures]
    if args.trace:
        lines += ["", "## Layer self time (traced run)", ""] + layer_report(traced)
    report = "\n".join(lines) + "\n"
    (work / "report.md").write_text(report)
    print(report)
    print(f"wall {time.monotonic() - t_start:.1f} s; report in {work / 'report.md'}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
            if metric in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
