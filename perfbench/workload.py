"""One workload of the precision-study benchmark, in a fresh process.

``run.py`` starts this script once per measurement so that peak RSS
belongs to a single workload and no cache or buffer outlives it.  It
drives the public API only:

* ``Simulation.setup()``, timed several times; the last one is used;
* ``Simulation.run(mode=..., progress=cb)`` per ladder mode, sharing
  that ground state as ``PrecisionStudy.run`` does, with
  ``run(adaptive=True)`` as the ninth rung;
* for the ensemble, ``PrecisionStudy.run_distributed`` over the eight
  static modes and two seeds.  Study cells report only whole-run wall
  times and take a static compute mode only, so the ensemble's per-step
  times and its adaptive member come from in-process runs of the
  ladder on the first cell's ground state.

It then checks the outputs (the correctness gate) and writes one JSON
document for ``run.py``.  With ``--trace 1`` the layer tracer is
installed before the first set-up and its analysis is added.

Usage (normally called by run.py)::

    python3 perfbench/workload.py --workload ladder-small --config-seed 3 \\
        --work .bench_work/x --out .bench_work/x/result.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: (metric suffix, compute mode; None = the adaptive scheduler).
LADDER = (
    ("fp32", "STANDARD"),
    ("bf16", "FLOAT_TO_BF16"),
    ("tf32", "FLOAT_TO_TF32"),
    ("bf16x2", "FLOAT_TO_BF16X2"),
    ("bf16x3", "FLOAT_TO_BF16X3"),
    ("3m", "COMPLEX_3M"),
    ("ozaki_int8", "OZAKI_INT8"),
    ("emu_fp64", "EMULATED_FP64"),
    ("adaptive", None),
)

#: ``SimulationConfig.small_test`` overrides per workload, and how many
#: rotated rounds of the ladder a study runs.  Host speed drifts over
#: seconds, so many short runs per mode beat one long one.  Sizes keep
#: every run of the benchmark inside its time budget on a 2-core host:
#: ladder-small samples 100 QD steps per mode (10 beyond p90); the
#: medium lattice costs ~1.2 s per step across the nine modes, so it
#: samples 12.  Every ladder run spans two SCF blocks.  Ensemble cells are
#: short because spawning, leases and per-cell set-up are what that
#: workload measures; its in-process members run ``member_steps`` steps
#: per round (50 samples per mode).  ``probe_s`` is the reference time
#: of the workload's host-speed probe (see HostClock).
WORKLOADS = {
    "ladder-small": {
        "kind": "ladder",
        "config": {"n_qd_steps": 12, "nscf": 6},
        "rounds": 10,
        "probe_s": 9.0e-4,
    },
    "ladder-medium": {
        "kind": "ladder",
        "config": {"mesh_shape": (20, 20, 20), "n_orb": 40, "n_qd_steps": 6, "nscf": 3},
        "rounds": 3,
        "probe_s": 7.0e-3,
    },
    "ensemble-small": {
        "kind": "ensemble",
        "config": {"n_qd_steps": 20, "nscf": 10},
        "seeds": 2,
        "workers": 2,
        "rounds": 10,
        "member_steps": 6,
        "probe_s": 9.0e-4,
    },
}

#: Benchmark seeds map onto this many committed ground-state seeds,
#: each with an FP32 reference in reference.json.
CONFIG_SEEDS = 16
OBSERVABLES = ("nexc", "javg", "ekin")
#: FP32 final observables must match the committed reference this
#: closely; covers FP32 accumulation-order differences between BLAS
#: builds while catching any change to the physics or the STANDARD path.
REFERENCE_RTOL = 1e-6


def config_for(workload: str, config_seed: int):
    from repro.dcmesh.simulation import SimulationConfig

    overrides = WORKLOADS[workload]["config"]
    return SimulationConfig.small_test(seed=config_seed, **overrides)


class HostClock:
    """Wall times scaled to the reference host speed.

    On a shared host, neighbours slow this core by up to ~1.7x for
    seconds to minutes at a time, for all the work in a run at once,
    which is more than one run can average away.  A fixed probe is
    therefore timed after every QD step and around every set-up, and
    the interval is reported as
    ``interval * reference_s / median(probe times taken with it)``:
    the time the work would take at the reference speed.  The probe
    mixes the kinds of work a QD step does, at the workload's orbital
    shape: an FFT, a GEMM, a mantissa-rounding pass and a content hash.
    ``reference_s`` is the probe's time on an unloaded core of the
    reference host (a 2-core Xeon VM).  The program never sees the
    probe's data.  Raw times are kept next to the scaled ones; with
    ``enabled=False`` the scale is 1.
    """

    def __init__(self, enabled: bool, cfg, reference_s: float):
        import numpy as np

        self.enabled = enabled
        self.reference_s = reference_s
        rng = np.random.default_rng(0)
        shape = (*cfg.mesh_shape, cfg.n_orb)
        grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self._grid = grid.astype(np.complex64)
        self._flat = self._grid.reshape(-1, shape[-1])
        self._bits = self._flat.view(np.float32).ravel().view(np.uint32)
        self._hashed = self._bits[: self._bits.size // 4]

    def probe(self) -> float:
        import numpy as np
        import scipy.fft

        if not self.enabled:
            return 0.0
        t0 = time.perf_counter()
        g = scipy.fft.fftn(self._grid, axes=(0, 1, 2))
        self._flat.conj().T @ g.reshape(self._flat.shape)
        (self._bits + np.uint32(0x7FFF)) & np.uint32(0xFFFF0000)
        hashlib.blake2b(self._hashed.tobytes(), digest_size=16).digest()
        return time.perf_counter() - t0

    def probes(self, count: int) -> list:
        return [self.probe() for _ in range(count)]

    def scale(self, probe_times: list) -> float:
        if not self.enabled or not probe_times:
            return 1.0
        return self.reference_s / statistics.median(probe_times)


# ----------------------------------------------------------------------
# Host and memory probes.
# ----------------------------------------------------------------------


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def reset_peak_rss() -> tuple:
    """Reset VmHWM; return (peak before the reset, RSS at the reset), kB."""
    before = _status_kb("VmHWM")
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")
    return before, _status_kb("VmRSS")


def blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, read through ctypes."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in symbols:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return "unknown (no OpenBLAS loaded)"


def software() -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
    }


# ----------------------------------------------------------------------
# Correctness gate.
# ----------------------------------------------------------------------


def columns(result) -> dict:
    return {obs: result.column(obs) for obs in OBSERVABLES}


def digest(cols: dict) -> str:
    """sha256 of the float64 observable bytes (the study cells' format)."""
    h = hashlib.sha256()
    for obs in OBSERVABLES:
        h.update(cols[obs].astype("float64").tobytes())
    return h.hexdigest()


def h_nl_norm(sim) -> float:
    """``||H_nl||`` of the first SCF block, as Simulation.run derives it."""
    import numpy as np

    from repro.dcmesh.projectors import build_projectors
    from repro.types import complex_dtype

    psi0 = sim.setup().orbitals.psi.astype(complex_dtype(sim.config.storage))
    projectors = build_projectors(sim.material, sim.mesh)
    return float(np.linalg.norm(projectors.subspace_matrix(psi0.astype(np.complex128))))


def envelope(mode: str, cfg, hn: float, n_steps: int) -> float:
    """Allowed max deviation from FP32, relative to the observable's
    scale (see :func:`check_deviation`).

    Built from the repo's own error model at the adaptive scheduler's
    default headroom ``H``.  Per trajectory: ``H * eps`` for the
    observables' own GEMMs (``mode_effective_error``) plus the drift
    budget ``ErrorBudget.for_mode(...).envelope(n)``.  The deviation of
    two trajectories is at most the sum of both (this mode and FP32).
    The model bounds errors per product; a GEMM sums ``k = N_grid`` of
    them, which adds a factor ``sqrt(N_grid)`` (probabilistic bound).
    """
    from repro.blas.modes import ComputeMode
    from repro.core.error_model import mode_effective_error
    from repro.core.scheduler import SchedulerConfig
    from repro.telemetry.drift import ErrorBudget

    headroom = SchedulerConfig().budget_headroom
    total = 0.0
    for m in (ComputeMode.parse(mode), ComputeMode.STANDARD):
        drift = ErrorBudget.for_mode(m, cfg.dt, hn, headroom=headroom)
        total += headroom * mode_effective_error(m) + drift.envelope(n_steps)
    return math.sqrt(cfg.n_grid) * total


def check_fp32(cols: dict, reference: dict) -> list:
    """Failure messages for FP32 final values against the reference."""
    if reference is None:
        return ["no committed FP32 reference for this workload and seed"]
    bad = []
    for obs in OBSERVABLES:
        got, want = float(cols[obs][-1]), reference[obs]
        if not math.isclose(got, want, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
            bad.append(f"final {obs} {got!r} != reference {want!r}")
    return bad


def check_deviation(label: str, mode: str, cols: dict, ref_cols: dict, cfg, hn: float):
    """(gate row, failure messages) for one mode against FP32.

    Each observable's max deviation is scaled by its natural size: the
    FP32 trajectory's largest magnitude for javg and ekin, the electron
    count for nexc (which starts at zero, so its own magnitude early in
    the pulse says nothing about the size of an error).
    """
    import numpy as np

    n = min(len(cols["nexc"]), len(ref_cols["nexc"]))
    env = envelope(mode, cfg, hn, n - 1)
    row = {"label": label, "envelope": env}
    bad = []
    for obs in OBSERVABLES:
        ref = ref_cols[obs][:n]
        scale = 2.0 * cfg.n_occupied if obs == "nexc" else np.max(np.abs(ref))
        dev = float(np.max(np.abs(cols[obs][:n] - ref)) / scale)
        row[obs] = dev
        if not dev <= env:
            bad.append(f"{obs} deviation {dev:.3e} exceeds envelope {env:.3e}")
    return row, bad


def fail(out: dict, unit: str, msg: str) -> None:
    """Record a failed unit (a mode run or a cell) and why."""
    out["failures"].append(f"{unit}: {msg}")
    if unit not in out["failed_units"]:
        out["failed_units"].append(unit)


def load_reference(workload: str, seed: int):
    with open(HERE / "reference.json") as fh:
        return json.load(fh)["workloads"].get(workload, {}).get(str(seed))


def gate_ladder(out: dict, results: dict, fp32: dict, cfg, hn: float, suffix=""):
    """Deviation gate of every non-FP32 ladder result against FP32."""
    for label, mode in LADDER[1:]:
        if label not in results:
            continue
        gate_mode = mode or results[label].scheduler.ladder[0]
        unit = label + suffix
        cols = columns(results[label])
        row, bad = check_deviation(unit, gate_mode, cols, fp32, cfg, hn)
        out["gate"].append(row)
        for msg in bad:
            fail(out, unit, msg)


# ----------------------------------------------------------------------
# Workload bodies.
# ----------------------------------------------------------------------


def timed_setups(cfg, count: int, clock: HostClock):
    """Time ``count`` ground-state set-ups; return the last set-up
    simulation, and the scaled and raw times.

    The SCF iteration count depends on the seed, so the set-ups cover
    ``count`` consecutive config seeds, ending with ``cfg``'s own; their
    median then varies less between benchmark seeds.
    """
    import dataclasses

    from repro.dcmesh.simulation import Simulation

    scaled, raw = [], []
    for i in range(count - 1, -1, -1):
        seed = (cfg.seed + i) % CONFIG_SEEDS
        sim = Simulation(dataclasses.replace(cfg, seed=seed))
        before = clock.probes(5)
        t0 = time.perf_counter()
        sim.setup()
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * clock.scale(before + clock.probes(5)))
    return sim, scaled, raw


def run_mode(sim, mode, clock: HostClock, n_steps=None):
    """One mode's run, timed per QD step through ``progress``.

    Returns ``(result, step times, probe times, wall time)``; probes run
    after each step, outside both the step times and the wall time.
    The interval ending at the first step of an SCF block also holds the
    block's set-up (and the SCF update before it), so it is not a QD
    step sample; that work counts in ``study_s``.
    """
    samples, probes = [], []
    last = [time.perf_counter()]
    nscf = sim.config.nscf

    def progress(step, record):
        now = time.perf_counter()
        if (step - 1) % nscf:
            samples.append(now - last[0])
        probes.append(clock.probe())
        last[0] = time.perf_counter()

    t0 = time.perf_counter()
    if mode is None:
        result = sim.run(adaptive=True, n_steps=n_steps, progress=progress)
    else:
        result = sim.run(mode=mode, n_steps=n_steps, progress=progress)
    wall = time.perf_counter() - t0 - sum(probes)
    return result, samples, probes, wall


def ladder_rounds(sim, out: dict, rounds: int, clock: HostClock, n_steps=None):
    """Run every ladder mode ``rounds`` times, rotating the order.

    Each mode's samples are spread over the whole study instead of one
    contiguous window.  Runs are deterministic: every round must
    reproduce the first bit for bit.  Adds the study's scaled and raw
    time to ``out`` and returns the last successful result per label.
    """
    results, digests = {}, {}
    study = study_raw = 0.0
    for rnd in range(rounds):
        shift = rnd % len(LADDER)
        for label, mode in LADDER[shift:] + LADDER[:shift]:
            out["attempted"] += 1
            try:
                result, samples, probes, wall = run_mode(sim, mode, clock, n_steps)
            except Exception as exc:  # a failing run is counted, not fatal
                fail(out, f"{label}#{rnd}", f"{type(exc).__name__}: {exc}")
                continue
            scale = clock.scale(probes)
            out["step_s"].setdefault(label, []).extend(x * scale for x in samples)
            out["step_raw_s"].setdefault(label, []).extend(samples)
            study += wall * scale
            study_raw += wall
            results[label] = result
            got = digest(columns(result))
            if digests.setdefault(label, got) != got:
                fail(out, f"{label}#{rnd}", "observables differ from round 0")
    out["study_s"].append(study)
    out["study_raw_s"].append(study_raw)
    return results


def run_ladder(args, out: dict, cfg) -> None:
    spec = WORKLOADS[args.workload]
    clock = HostClock(args.scale_time, cfg, spec["probe_s"])
    sim, out["setup_s"], out["setup_raw_s"] = timed_setups(cfg, args.setups, clock)
    hwm_before, rss0 = reset_peak_rss()
    for _ in range(args.reps):
        results = ladder_rounds(sim, out, spec["rounds"], clock)
    hwm = _status_kb("VmHWM")
    out["lfd_peak_mb"] = (hwm - rss0) / 1024.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = max(hwm_before, own) / 1024.0

    out["digests"] = {label: digest(columns(r)) for label, r in results.items()}
    if "adaptive" in results:
        out["escalations"] = results["adaptive"].scheduler.summary()["escalations"]
    if "fp32" in results:
        fp32 = columns(results["fp32"])
        for msg in check_fp32(fp32, load_reference(args.workload, cfg.seed)):
            fail(out, "fp32", msg)
        gate_ladder(out, results, fp32, cfg, h_nl_norm(sim))


def run_ensemble(args, out: dict, cfg) -> None:
    import numpy as np

    from repro.blas.modes import ComputeMode
    from repro.core.study import STUDY_MODES, PrecisionStudy
    from repro.dcmesh.simulation import Simulation
    from repro.distrib.queue import WorkQueue

    spec = WORKLOADS[args.workload]
    seeds = tuple((cfg.seed + i) % CONFIG_SEEDS for i in range(spec["seeds"]))
    labels = {m: label for label, m in LADDER if m is not None}

    # In-process members on the first cell's ground state; the set-up
    # timed is the one every cell repeats.
    clock = HostClock(args.scale_time, cfg, spec["probe_s"])
    sim, out["setup_s"], out["setup_raw_s"] = timed_setups(cfg, args.setups, clock)
    hwm_before, rss0 = reset_peak_rss()
    members = ladder_rounds(sim, out, spec["rounds"], clock, spec["member_steps"])
    out["lfd_peak_mb"] = (_status_kb("VmHWM") - rss0) / 1024.0
    if "adaptive" in members:
        out["escalations"] = members["adaptive"].scheduler.summary()["escalations"]

    # The study proper: submit to merge, raw, because its work runs in
    # worker processes the probe cannot follow.
    out["study_s"], out["study_raw_s"] = [], []
    queue_dir = merged = None
    expected = len(seeds) * (1 + len(STUDY_MODES))
    for rep in range(args.reps):
        queue_dir = Path(args.work) / "queues" / f"rep{rep}"
        t0 = time.perf_counter()
        try:
            dist = PrecisionStudy(cfg, modes=STUDY_MODES).run_distributed(
                seeds=seeds,
                n_workers=spec["workers"],
                queue_dir=queue_dir,
                inline=args.transport == "inline",
            )
            merged = dist.merged
        except Exception as exc:  # a failed study is counted, not fatal
            fail(out, "ensemble", f"{type(exc).__name__}: {exc}")
        out["study_s"].append(time.perf_counter() - t0)
        out["study_raw_s"].append(out["study_s"][-1])
        out["attempted"] += expected
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak = workers if args.transport == "procs" else max(own, hwm_before)
    out["peak_rss_mb"] = peak / 1024.0

    cells = merged.cells if merged is not None else {}
    missing = expected - len(cells)
    for i in range(missing):
        fail(out, f"missing-cell-{i}", f"{missing} of {expected} cells missing")
    cell_cols = {}
    for payload in cells.values():
        label = labels[ComputeMode.parse(payload["mode"]).env_value]
        cols = {obs: np.asarray(payload["columns"][obs]) for obs in OBSERVABLES}
        cell_cols[(label, payload["seed"])] = cols
        out["digests"][f"{label}:{payload['seed']}"] = payload["digest"]
    for label, result in members.items():
        out["digests"][f"{label}:member"] = digest(columns(result))
    if merged is not None:
        records, corrupt = WorkQueue(queue_dir).result_records()
        out["distrib"] = {
            "cells": len(cells),
            "duplicates": merged.stats.duplicates,
            "corrupt_records": merged.stats.corrupt_records + corrupt,
            "cell_busy_s": sum(r["seconds"] for r in records),
            "workers": spec["workers"],
        }

    for seed in seeds:
        fp32 = cell_cols.get(("fp32", seed))
        if fp32 is None:
            continue
        for msg in check_fp32(fp32, load_reference(args.workload, seed)):
            fail(out, f"fp32:{seed}", msg)
        if seed != cfg.seed:
            sim = Simulation(config_for(args.workload, seed))
        hn = h_nl_norm(sim)
        for label, mode in LADDER[1:-1]:
            cols = cell_cols.get((label, seed))
            if cols is None:
                continue
            unit = f"{label}:{seed}"
            row, bad = check_deviation(unit, mode, cols, fp32, cfg, hn)
            out["gate"].append(row)
            for msg in bad:
                fail(out, unit, msg)
        if seed == cfg.seed:
            gate_ladder(out, members, fp32, cfg, hn, suffix=":member")


# ----------------------------------------------------------------------
# Traced-run analysis.
# ----------------------------------------------------------------------


def layer_metrics(tracer, out: dict) -> dict:
    """Per-layer figures from the spans (ms per QD step unless noted)."""
    from repro.blas.plan import plan_cache_info
    from repro.blas.workspace import get_workspace
    from tracer import attributed_share, merge_runs

    analysis = tracer.analyse()
    runs = analysis["runs"]
    per_mode = {}
    for label, mode in LADDER:
        run = runs.get(mode or "adaptive")
        if run is None or run["steps"] == 0:
            continue
        ms = 1e3 / run["steps"]
        ps = run["per_step"]
        per_mode[label] = {
            "blas.plan.lookup_ms": ms * ps.get("blas.plan.lookup", 0.0),
            "blas.rounding.split_ms": ms * ps.get("blas.rounding.split", 0.0),
            "blas.backend.matmul_ms": ms * ps.get("blas.backend.matmul", 0.0),
            "blas.backend.matmul_calls": run["matmul_calls"],
            "blas.backend.flop_per_byte": run["flops"] / max(run["bytes"], 1.0),
            "blas.gemm.self_ms": ms * ps.get("blas.gemm", 0.0),
            "dcmesh.mesh.fft_ms": ms * ps.get("dcmesh.mesh.fft", 0.0),
            "flops_per_step": run["flops"] / run["steps"],
            "bytes_per_step": run["bytes"] / run["steps"],
        }
    total = merge_runs(runs)
    ms = 1e3 / max(total["steps"], 1)
    ps = total["per_step"]
    boundary = total["boundary"]
    nlp_init = boundary.get("dcmesh.nlp.init", 0.0)
    adaptive = runs.get("adaptive") or {"steps": 0, "per_step": {}}
    a_ms = 1e3 / max(adaptive["steps"], 1)
    info = plan_cache_info()
    lookups = info["hits"] + info["misses"]
    solves = analysis["solve_s"]
    workload = {
        "dcmesh.scf.solve_s": statistics.median(solves) if solves else 0.0,
        "dcmesh.scf.update_ms": (
            1e3 * (sum(boundary.values()) - nlp_init) / max(total["updates"], 1)
        ),
        "dcmesh.nlp.init_ms": 1e3 * nlp_init / max(total["blocks"], 1),
        "dcmesh.propagate.self_ms": ms * ps.get("dcmesh.propagate", 0.0),
        "dcmesh.energy.self_ms": ms * ps.get("dcmesh.energy", 0.0),
        "dcmesh.occupation.self_ms": ms * ps.get("dcmesh.occupation", 0.0),
        "dcmesh.current.self_ms": ms * ps.get("dcmesh.current", 0.0),
        "dcmesh.simulation.self_ms": ms * ps.get("dcmesh.simulation", 0.0),
        "blas.plan.hit_ratio": info["hits"] / lookups if lookups else 0.0,
        "blas.workspace.bytes": get_workspace().nbytes,
        "core.scheduler.on_step_ms": (
            a_ms * adaptive["per_step"].get("core.scheduler.on_step", 0.0)
        ),
        "telemetry.drift.observe_ms": (
            a_ms * adaptive["per_step"].get("telemetry.drift.observe", 0.0)
        ),
        "core.scheduler.escalations": out.get("escalations", 0),
        "trace.attributed_frac": attributed_share(total),
    }
    return {"per_mode": per_mode, "workload": workload, "runs": runs}


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--config-seed", type=int, required=True)
    p.add_argument("--setups", type=int, default=3)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--transport", choices=("procs", "inline"), default="procs")
    p.add_argument(
        "--scale-time",
        type=int,
        choices=(0, 1),
        default=1,
        help="scale times to the reference host speed (HostClock)",
    )
    p.add_argument("--work", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = {
        "software": software(),
        "study_s": [],
        "study_raw_s": [],
        "step_s": {},
        "step_raw_s": {},
        "attempted": 0,
        "failures": [],
        "failed_units": [],
        "gate": [],
        "digests": {},
    }
    cfg = config_for(args.workload, args.config_seed)
    if WORKLOADS[args.workload]["kind"] == "ladder":
        run_ladder(args, out, cfg)
    else:
        run_ensemble(args, out, cfg)
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layer_metrics(tracer, out)
        tracer.write(Path(args.work) / "spans.jsonl.gz")
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
