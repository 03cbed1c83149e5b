"""Outside-in layer tracer for the precision-study benchmark.

The tracer replaces public functions at the names their callers look
up (a module attribute such as ``repro.dcmesh.simulation.calc_energy``
or a class attribute such as ``NumpyBackend.matmul``) with thin timing
wrappers.  The program's source is never edited: uninstalling restores
every original object.

Each wrapped call records one span (site, start, end, parent; a run
tag on ``Simulation.run`` spans) in memory, in pre-order, so a parent
always precedes its children.  Spans are written out only when the run
ends.  A layer's self time is its span durations minus the time its
child spans cover.

``NumpyBackend.matmul`` calls also record the operand shapes, from
which FLOPs and bytes moved are *computed* (not measured): one real
multiply-add is 2 FLOPs, a complex one 8; bytes are both operands read
plus the result written once, ignoring caches.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from typing import Dict, List, Tuple

#: (owner, attribute, layer).  ``owner`` is ``module`` or
#: ``module:Class``; the attribute is looked up there by its callers.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.dcmesh.simulation:Simulation", "setup", "dcmesh.setup"),
    ("repro.dcmesh.simulation:Simulation", "run", "dcmesh.simulation"),
    ("repro.dcmesh.scf:SCFSolver", "solve", "dcmesh.scf.solve"),
    ("repro.dcmesh.scf:SCFSolver", "update", "dcmesh.scf.update"),
    ("repro.dcmesh.scf:SCFSolver", "refresh_ionic", "dcmesh.scf.update"),
    ("repro.dcmesh.ions:IonDynamics", "step", "dcmesh.scf.update"),
    ("repro.dcmesh.simulation", "build_projectors", "dcmesh.scf.update"),
    ("repro.dcmesh.projectors:ProjectorSet", "subspace_matrix", "dcmesh.nlp.init"),
    ("repro.dcmesh.nlp:NonlocalPropagator", "__init__", "dcmesh.nlp.init"),
    ("repro.dcmesh.propagate:LFDPropagator", "refresh_plans", "dcmesh.nlp.init"),
    ("repro.dcmesh.propagate:LFDPropagator", "step", "dcmesh.propagate"),
    ("repro.dcmesh.mesh:Mesh", "fft", "dcmesh.mesh.fft"),
    ("repro.dcmesh.mesh:Mesh", "ifft", "dcmesh.mesh.fft"),
    ("repro.dcmesh.simulation", "calc_energy", "dcmesh.energy"),
    ("repro.dcmesh.simulation", "remap_occ", "dcmesh.occupation"),
    ("repro.dcmesh.simulation", "current_density", "dcmesh.current"),
    ("repro.dcmesh.nlp", "gemm", "blas.gemm"),
    ("repro.dcmesh.energy", "gemm", "blas.gemm"),
    ("repro.dcmesh.occupation", "gemm", "blas.gemm"),
    ("repro.blas.gemm", "split_gemm_fused", "blas.gemm"),
    ("repro.blas.workspace", "split_gemm_fused", "blas.gemm"),
    ("repro.blas.plan", "lookup_anonymous", "blas.plan.lookup"),
    ("repro.blas.plan", "split_terms_residual", "blas.rounding.split"),
    ("repro.blas.plan", "extend_split", "blas.rounding.split"),
    ("repro.blas.plan", "ozaki_slice_terms", "blas.rounding.split"),
    ("repro.blas.plan", "emulated_fp64_split_terms", "blas.rounding.split"),
    ("repro.blas.backend:NumpyBackend", "matmul", "blas.backend.matmul"),
    ("repro.telemetry.drift:DriftMonitor", "observe", "telemetry.drift.observe"),
    ("repro.core.scheduler:AdaptiveScheduler", "on_step", "core.scheduler.on_step"),
    (
        "repro.core.scheduler:AdaptiveScheduler",
        "on_scf_boundary",
        "core.scheduler.on_step",
    ),
)

ROOT_LAYER = "dcmesh.simulation"
#: Work done once per SCF block, not per QD step.
BOUNDARY_LAYERS = ("dcmesh.scf.update", "dcmesh.nlp.init")


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, cls) if cls else obj


def _run_tag(kwargs: dict) -> str:
    """Label of one ``Simulation.run`` call: its mode, or ``adaptive``."""
    from repro.blas.modes import ComputeMode

    if kwargs.get("adaptive"):
        return "adaptive"
    return ComputeMode.parse(kwargs.get("mode")).env_value


class Tracer:
    """Span recorder installed by monkeypatching the :data:`TARGETS`.

    Spans live in flat typed arrays (no per-span Python objects), so
    recording them neither allocates garbage-collected containers nor
    slows the collector as the trace grows.
    """

    def __init__(self):
        self.sites: List[Tuple[str, str]] = []  # (site name, layer)
        self.span_site = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.tags: Dict[int, str] = {}  # root span -> run tag
        self.kernels: Dict[int, Tuple[float, float]] = {}  # span -> (FLOPs, bytes)
        self._stack: List[int] = [-1]
        self._patches: List[tuple] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for owner, attr, layer in TARGETS:
            holder = _resolve(owner)
            if isinstance(holder, type):
                original = holder.__dict__[attr]
            else:
                original = getattr(holder, attr)
            site = len(self.sites)
            module_name, _, cls = owner.partition(":")
            self.sites.append((f"{cls or module_name.split('.')[-1]}.{attr}", layer))
            if attr == "matmul":
                wrapper = self._wrap_matmul(original, site)
            else:
                wrapper = self._wrap(original, site, tag_runs=layer == ROOT_LAYER)
            setattr(holder, attr, wrapper)
            self._patches.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _open(self, site: int) -> int:
        idx = len(self.start)
        self.span_site.append(site)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _wrap(self, fn, site: int, tag_runs: bool):
        stack, end, tags, open_span = self._stack, self.end, self.tags, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(site)
            if tag_runs:
                tags[idx] = _run_tag(kwargs)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                end[idx] = clock()

        return traced

    def _wrap_matmul(self, fn, site: int):
        end, kernels, open_span = self.end, self.kernels, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(backend, a, b, out=None):
            idx = open_span(site)
            try:
                result = fn(backend, a, b, out=out)
            finally:
                end[idx] = clock()
            m, k, n = a.shape[-2], a.shape[-1], b.shape[-1]
            batch = result.size // (m * n)
            per_fma = 8.0 if result.dtype.kind == "c" else 2.0
            moved = a.nbytes + b.nbytes + result.nbytes
            kernels[idx] = (per_fma * batch * m * n * k, float(moved))
            return result

        return traced

    # -- analysis ------------------------------------------------------

    def analyse(self) -> dict:
        """Self times grouped by run tag and layer.

        Returns ``{"runs": {tag: {...}}, "solve_s": [...]}``: each run
        entry holds QD-step, SCF-update and block counts, per-layer self
        seconds split into per-step and SCF-boundary work, and the
        computed kernel totals; ``solve_s`` lists ground-state solves.
        """
        sites, span_site, start, end = self.sites, self.span_site, self.start, self.end
        n = len(start)
        child_time = [0.0] * n
        root = list(range(n))
        boundary = [False] * n
        for i in range(n):
            p = self.parent[i]
            in_boundary = sites[span_site[i]][1] in BOUNDARY_LAYERS
            if p >= 0:
                child_time[p] += end[i] - start[i]
                root[i] = root[p]
                in_boundary = in_boundary or boundary[p]
            boundary[i] = in_boundary

        runs: Dict[str, dict] = {}
        solve_s: List[float] = []
        for i in range(n):
            name, layer = sites[span_site[i]]
            duration = end[i] - start[i]
            if layer == "dcmesh.scf.solve":
                solve_s.append(duration)
            r = root[i]
            if r not in self.tags:
                continue  # set-up work outside any run
            run = runs.setdefault(self.tags[r], _empty_run())
            if i == r:
                run["runs"] += 1
                run["wall_s"] += duration
            if name == "LFDPropagator.step":
                run["steps"] += 1
            elif name == "SCFSolver.update":
                run["updates"] += 1
            elif name == "NonlocalPropagator.__init__":
                run["blocks"] += 1
            bucket = run["boundary" if boundary[i] else "per_step"]
            bucket[layer] = bucket.get(layer, 0.0) + duration - child_time[i]
            if i in self.kernels and not boundary[i]:
                flops, nbytes = self.kernels[i]
                run["matmul_calls"] += 1
                run["flops"] += flops
                run["bytes"] += nbytes
        return {"runs": runs, "solve_s": solve_s}

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip), with its layer."""
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.start)):
                name, layer = self.sites[self.span_site[i]]
                rec = {
                    "id": i,
                    "name": name,
                    "layer": layer,
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                }
                if i in self.tags:
                    rec["tag"] = self.tags[i]
                if i in self.kernels:
                    rec["flops"], rec["bytes"] = self.kernels[i]
                fh.write(json.dumps(rec) + "\n")


_COUNTS = (
    "runs",
    "wall_s",
    "steps",
    "updates",
    "blocks",
    "matmul_calls",
    "flops",
    "bytes",
)


def _empty_run() -> dict:
    run = {key: 0 for key in _COUNTS}
    run.update(per_step={}, boundary={})
    return run


def layer_table(run: dict) -> List[Tuple[str, float, float]]:
    """(layer, self ms per QD step, share of run wall) rows, largest
    first; the root layer's self time is the unattributed remainder."""
    steps = max(run["steps"], 1)
    totals: Dict[str, float] = {}
    for bucket in ("per_step", "boundary"):
        for layer, s in run[bucket].items():
            totals[layer] = totals.get(layer, 0.0) + s
    wall = run["wall_s"] or 1.0
    rows = [(layer, 1e3 * s / steps, s / wall) for layer, s in totals.items()]
    return sorted(rows, key=lambda r: -r[1])


def attributed_share(run: dict) -> float:
    """Share of run wall time covered by named layers below the root."""
    wall = run["wall_s"]
    if wall <= 0:
        return 0.0
    root_self = run["per_step"].get(ROOT_LAYER, 0.0)
    root_self += run["boundary"].get(ROOT_LAYER, 0.0)
    return 1.0 - root_self / wall


def merge_runs(runs: Dict[str, dict]) -> dict:
    """Sum every tag's run entry into one (workload-wide figures)."""
    total = _empty_run()
    for run in runs.values():
        for key in _COUNTS:
            total[key] += run[key]
        for bucket in ("per_step", "boundary"):
            for k, v in run[bucket].items():
                total[bucket][k] = total[bucket].get(k, 0.0) + v
    return total
