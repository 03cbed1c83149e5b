"""Top-level DCMESH driver: QXMD (FP64, CPU) + LFD (storage precision, GPU).

The MD loop structure follows Section V of the paper exactly:

    SCF (FP64)  ->  500 QD steps (LFD, FP32 storage, mode-sensitive BLAS)
                ->  SCF update (FP64)  ->  500 QD steps  ->  ...

Each QD step emits one :class:`~repro.dcmesh.observables.QDRecord`
(ekin/epot/etot/eexc/nexc/Aext/javg), issues exactly nine BLAS calls
(three each in ``nlp_prop``, ``calc_energy``, ``remap_occ``) and books
its streaming kernels on the attached device model, so a single run
yields both the accuracy series (Figs. 1-2) and the timing data
(Fig. 3a) the paper reports.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Callable, List, Optional, Union

import numpy as np

from repro.blas.gemm import use_device
from repro.blas.modes import ComputeMode, compute_mode, resolve_mode
from repro.dcmesh.constants import FS_PER_AU
from repro.dcmesh.current import current_density
from repro.dcmesh.energy import calc_energy
from repro.dcmesh.ions import IonDynamics
from repro.dcmesh.laser import LaserPulse
from repro.dcmesh.material import PTO_LATTICE_BOHR, Material, build_pto_supercell
from repro.dcmesh.maxwell import InducedField
from repro.dcmesh.mesh import Mesh
from repro.dcmesh.nlp import NonlocalPropagator
from repro.dcmesh.observables import QDRecord
from repro.dcmesh.occupation import prepare_psi0_blocks, remap_occ
from repro.dcmesh.projectors import build_projectors
from repro.dcmesh.propagate import LFDPropagator
from repro.dcmesh.scf import SCFParams, SCFResult, SCFSolver
from repro.dcmesh.shadow import TransferLedger
from repro.dcmesh.wavefunction import OrbitalSet
from repro.telemetry.drift import (
    DriftMonitor,
    active_drift_monitor,
    drift_enabled,
    drift_monitoring,
)
from repro.telemetry.registry import active as _telemetry_active
from repro.types import Precision, complex_dtype, real_dtype

__all__ = ["SimulationConfig", "Simulation", "SimulationResult", "estimate_device_bytes"]


@dataclasses.dataclass
class SimulationConfig:
    """Everything needed to reproduce one DCMESH run."""

    ncells: tuple = (2, 2, 2)
    lattice: float = PTO_LATTICE_BOHR
    mesh_shape: tuple = (64, 64, 64)
    n_orb: int = 256
    dt: float = 0.02                  #: QD timestep, a.u. (Table III)
    n_qd_steps: int = 21_000          #: total QD steps (Table III)
    nscf: int = 500                   #: QD steps per SCF block (Section V)
    laser: LaserPulse = dataclasses.field(default_factory=LaserPulse)
    storage: Precision = Precision.FP32   #: LFD storage precision
    move_ions: bool = True
    jitter: float = 0.0               #: initial lattice perturbation, bohr
    seed: int = 7
    scf: SCFParams = dataclasses.field(default_factory=SCFParams)
    #: Maxwell feedback (extension): couple the induced local field
    #: d^2A/dt^2 = -4 pi j back into the propagation.
    induced_field: bool = False
    induced_coupling: float = 1.0

    def __post_init__(self) -> None:
        self.ncells = tuple(int(c) for c in self.ncells)
        self.mesh_shape = tuple(int(s) for s in self.mesh_shape)
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_qd_steps < 1 or self.nscf < 1:
            raise ValueError("n_qd_steps and nscf must be >= 1")
        if self.storage not in (Precision.FP32, Precision.FP64):
            raise ValueError(
                f"LFD storage must be FP32 or FP64, got {self.storage} "
                "(reduced formats are compute modes, not storage)"
            )
        n_occ = self._n_occupied()
        if self.n_orb <= n_occ:
            raise ValueError(
                f"n_orb={self.n_orb} must exceed the {n_occ} occupied orbitals "
                "so remap_occ has a virtual block"
            )

    def _n_occupied(self) -> int:
        n_cells = int(np.prod(self.ncells))
        return n_cells * 16  # 32 electrons per 5-atom cell

    # -- derived quantities -------------------------------------------------

    @property
    def n_grid(self) -> int:
        return int(np.prod(self.mesh_shape))

    @property
    def n_atoms(self) -> int:
        return int(np.prod(self.ncells)) * 5

    @property
    def n_occupied(self) -> int:
        return self._n_occupied()

    @property
    def total_time_fs(self) -> float:
        return self.n_qd_steps * self.dt * FS_PER_AU

    # -- canonical configurations -------------------------------------------

    @classmethod
    def paper_40(cls, **overrides) -> "SimulationConfig":
        """The paper's 40-atom system: 2x2x2 cells, 64^3 mesh, 256 orbitals."""
        base = dict(ncells=(2, 2, 2), mesh_shape=(64, 64, 64), n_orb=256)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def paper_135(cls, **overrides) -> "SimulationConfig":
        """The paper's 135-atom system: 3x3x3 cells, 96^3 mesh, 1024 orbitals."""
        base = dict(ncells=(3, 3, 3), mesh_shape=(96, 96, 96), n_orb=1024)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def small_test(cls, **overrides) -> "SimulationConfig":
        """A laptop-scale configuration preserving the paper's structure.

        One 5-atom cell, a 12^3 mesh and 24 orbitals (16 occupied + 8
        virtual): the same code path, BLAS shapes proportional to the
        real ones, runs in well under a second per 100 QD steps.
        """
        base = dict(
            ncells=(1, 1, 1),
            mesh_shape=(12, 12, 12),
            n_orb=24,
            n_qd_steps=100,
            nscf=50,
            dt=0.04,
            # The pulse must fit the (very short) simulated window so
            # the dynamics is genuinely field-driven: 0.08 fs = 3.3 a.u.
            # against the default 4 a.u. of simulation.
            laser=LaserPulse(amplitude=0.25, omega=0.3, duration_fs=0.08),
            scf=SCFParams(max_iter=30, tol=1e-7),
        )
        base.update(overrides)
        return cls(**base)


def estimate_device_bytes(config: SimulationConfig) -> int:
    """Device working-set estimate for the Table V capacity claim.

    Two orbital matrices (propagating + reference), two FFT work
    buffers of the same size, plus mesh-resident real fields.
    """
    celem = np.dtype(complex_dtype(config.storage)).itemsize
    relem = np.dtype(real_dtype(config.storage)).itemsize
    psi_bytes = config.n_grid * config.n_orb * celem
    fields = 3 * config.n_grid * relem
    return 4 * psi_bytes + fields


@dataclasses.dataclass
class SimulationResult:
    """Outcome of one DCMESH run."""

    config: SimulationConfig
    mode: ComputeMode
    records: List[QDRecord]
    scf: SCFResult                   #: the initial FP64 ground state
    ledger: TransferLedger
    wall_seconds: float
    device: Optional[object] = None  #: repro.gpu.Device if one was attached
    final_psi: Optional[np.ndarray] = None  #: LFD state at the last step
    #: The :class:`repro.core.scheduler.AdaptiveScheduler` that drove
    #: the run, when one was attached (its ``summary()`` holds the
    #: mode-switch timeline).  Typed loosely: ``repro.core`` imports
    #: this module, so the scheduler class is only imported lazily.
    scheduler: Optional[object] = None

    def final_gram_error(self) -> float:
        """Max |Psi^H Psi dV - I| of the final state — the truncation
        buildup the periodic FP64 SCF update is there to bound."""
        if self.final_psi is None:
            raise ValueError("run did not retain the final state")
        psi = self.final_psi.astype(np.complex128)
        volume = float(np.prod([self.config.lattice * c for c in self.config.ncells]))
        dv = volume / psi.shape[0]
        gram = (psi.conj().T @ psi) * dv
        return float(np.abs(gram - np.eye(gram.shape[0])).max())

    def column(self, name: str) -> np.ndarray:
        """Observable column over time, e.g. ``result.column('nexc')``."""
        if not self.records:
            raise ValueError("run produced no records")
        if name == "time_fs":
            return np.array([r.time_fs for r in self.records])
        if name == "step":
            return np.array([r.step for r in self.records])
        return np.array([getattr(r, name) for r in self.records])

    @property
    def total_device_seconds(self) -> Optional[float]:
        """unitrace-style Total L0 Time, if a device model was attached."""
        return None if self.device is None else self.device.total_l0_time()


class Simulation:
    """One reproducible DCMESH simulation."""

    def __init__(self, config: SimulationConfig, device=None):
        self.config = config
        self.device = device
        self._ground: Optional[SCFResult] = None
        self.material: Optional[Material] = None
        self.mesh: Optional[Mesh] = None
        self._solver: Optional[SCFSolver] = None
        self._device_allocated = False

    # ------------------------------------------------------------------

    def setup(self) -> SCFResult:
        """Build the system and converge the FP64 ground state (QXMD).

        Idempotent: the converged state is cached so several runs (one
        per compute mode) share the identical starting point, as the
        paper's methodology requires.
        """
        cfg = self.config
        if self.device is not None and not self._device_allocated:
            self.device.allocate(estimate_device_bytes(cfg))
            self._device_allocated = True
        if self._ground is not None:
            return self._ground
        self.material = build_pto_supercell(
            cfg.ncells, cfg.lattice, jitter=cfg.jitter, seed=cfg.seed
        )
        self.mesh = Mesh(cfg.mesh_shape, self.material.box)
        projectors = build_projectors(self.material, self.mesh)
        self._solver = SCFSolver(self.mesh, self.material, projectors, cfg.scf)
        tm = _telemetry_active()
        scf_span = (
            tm.span("ground_state_scf", cat="scf", n_orb=cfg.n_orb)
            if tm is not None
            else contextlib.nullcontext()
        )
        with scf_span:
            self._ground = self._solver.solve(cfg.n_orb, seed=cfg.seed)
        return self._ground

    # ------------------------------------------------------------------

    def run(
        self,
        mode: Union[str, ComputeMode, None] = None,
        n_steps: Optional[int] = None,
        progress: Optional[Callable[[int, QDRecord], None]] = None,
        checkpoint_path=None,
        resume_from=None,
        diagnostics=None,
        drift: Union[bool, DriftMonitor, None] = None,
        adaptive: Union[bool, "AdaptiveScheduler", None] = None,  # noqa: F821
        backend: Union[str, "ArrayBackend", None] = None,  # noqa: F821
    ) -> SimulationResult:
        """Run the MD loop for ``n_steps`` QD steps (default: config).

        ``mode`` overrides the ambient compute mode for the whole run
        (the paper's per-run ``MKL_BLAS_COMPUTE_MODE`` export); the
        FP64 QXMD phase is unaffected either way, exactly as in MKL.

        ``checkpoint_path`` writes the state at every interior SCF
        block boundary (overwriting); ``resume_from`` (a
        :class:`~repro.dcmesh.io.checkpoint.Checkpoint` or a path)
        continues such a run — the resumed trajectory is bitwise
        identical to the uninterrupted one.  ``diagnostics`` (a
        :class:`~repro.dcmesh.diagnostics.DiagnosticsCollector`)
        samples unitarity/orthonormality health per step without
        touching the BLAS-call structure.

        ``drift`` attaches a :class:`~repro.telemetry.drift.DriftMonitor`
        that samples nexc/javg/ekin every QD step: pass a configured
        monitor (reference + budget -> live alerts), ``True`` to
        auto-create one, ``False`` to force it off, or leave ``None``
        to follow the ambient installation (``REPRO_DRIFT=1`` /
        ``runner --drift-budget``).  An auto-created monitor derives
        its budget from the first SCF block's ``||H_nl||``.

        ``adaptive`` attaches an
        :class:`~repro.core.scheduler.AdaptiveScheduler`: pass a
        configured scheduler, ``True`` to auto-create one with default
        tuning, ``False`` to force it off, or leave ``None`` to follow
        the ambient request (``REPRO_ADAPTIVE=1`` / ``runner
        --adaptive``).  The scheduler needs the drift monitor's
        utilization signal, so a monitor is auto-created when adaptive
        is on; the monitor's budget then comes from the scheduler's
        ``budget_mode`` (the fixed accuracy contract), not from the
        run's nominal mode.  ``mode`` and an unclamped scheduler are
        mutually exclusive — the scheduler owns the per-site modes.

        ``backend`` selects the :class:`~repro.blas.backend.ArrayBackend`
        executing the level-3 BLAS products for this run (name or
        instance), scoped like ``mode``: installed on entry, restored on
        exit.  ``None`` keeps the ambient backend (``REPRO_BACKEND`` /
        :func:`repro.blas.set_backend`).  Selection never changes the
        numerics *policy* — rounding, splitting and pair ordering stay
        NumPy-side — only who multiplies the component matrices.
        """
        if backend is not None:
            from repro.blas.backend import use_backend

            with use_backend(backend):
                return self.run(
                    mode=mode,
                    n_steps=n_steps,
                    progress=progress,
                    checkpoint_path=checkpoint_path,
                    resume_from=resume_from,
                    diagnostics=diagnostics,
                    drift=drift,
                    adaptive=adaptive,
                )
        cfg = self.config
        ground = self.setup()
        mesh = self.mesh
        # Per-run copies: the ionic subsystem moves during the run, and
        # every compute-mode run must start from the *identical* state
        # ("the exact same computations were performed in each").
        material = Material(
            list(self.material.symbols),
            self.material.positions.copy(),
            self.material.box,
            dict(self.material.species),
        )
        solver = SCFSolver(mesh, material, self._solver.projectors, cfg.scf)
        effective_mode = resolve_mode(mode)
        # Adaptive scheduler: explicit > explicit off > ambient request
        # (REPRO_ADAPTIVE / runner --adaptive).  Lazy import — the
        # scheduler lives in repro.core, which imports this module.
        from repro.core.scheduler import AdaptiveScheduler, adaptive_enabled

        if isinstance(adaptive, AdaptiveScheduler):
            sched = adaptive
        elif adaptive is False:
            sched = None
        else:
            # The ambient request only captures mode-free runs: the
            # static sweeps pass mode= explicitly by design, and those
            # must stay static even under REPRO_ADAPTIVE=1.
            sched = (
                AdaptiveScheduler()
                if (adaptive is True or (adaptive_enabled() and mode is None))
                else None
            )
        if sched is not None and sched.clamp is None and mode is not None:
            raise ValueError(
                "mode= and an unclamped adaptive scheduler are mutually "
                "exclusive (the scheduler owns the per-site modes); use "
                "AdaptiveScheduler(clamp=mode) for a pinned run"
            )
        # Drift observatory: explicit monitor > explicit off > ambient
        # installation (REPRO_DRIFT / --drift-budget auto-creates one).
        # The scheduler consumes the monitor's utilization signal, so
        # adaptive runs always carry a monitor.
        if isinstance(drift, DriftMonitor):
            dm = drift
        elif drift is False:
            dm = None
        else:
            dm = active_drift_monitor()
            if dm is None and (
                drift is True or drift_enabled() or sched is not None
            ):
                dm = DriftMonitor(mode=effective_mode)
        if dm is not None and dm.mode is None:
            dm.mode = effective_mode
        total = cfg.n_qd_steps if n_steps is None else int(n_steps)
        if total < 1:
            raise ValueError(f"n_steps must be >= 1, got {total}")

        cdt = complex_dtype(cfg.storage)
        ledger = TransferLedger()
        records: List[QDRecord] = []
        t_wall0 = time.perf_counter()

        # LFD state at storage precision; reference = t=0 SCF orbitals.
        psi = ground.orbitals.psi.astype(cdt)
        psi0 = psi.copy()
        occupations = ground.orbitals.occupations.copy()
        v_eff = ground.v_eff.copy()
        density = ground.density.copy()
        projectors = solver.projectors
        ions = IonDynamics(material, mesh, dt=cfg.dt * cfg.nscf) if cfg.move_ions else None
        pol = np.asarray(cfg.laser.polarization)
        field = (
            InducedField(cfg.dt, cfg.induced_coupling) if cfg.induced_field else None
        )

        etot0: Optional[float] = None
        step = 0

        if resume_from is not None:
            from repro.dcmesh.io.checkpoint import Checkpoint, load_checkpoint

            ckpt = (
                resume_from
                if isinstance(resume_from, Checkpoint)
                else load_checkpoint(resume_from)
            )
            ckpt.validate_against(cfg)
            if ckpt.step >= total:
                raise ValueError(
                    f"checkpoint at step {ckpt.step} is not before the "
                    f"requested end step {total}"
                )
            step = ckpt.step
            etot0 = ckpt.etot0
            psi0 = ckpt.psi0.astype(cdt)
            occupations = ckpt.occupations.copy()
            material.positions = ckpt.positions.copy()
            if ions is not None:
                ions.velocities = ckpt.velocities.copy()
                ions._forces = (
                    ckpt.ion_forces.copy() if ckpt.ion_forces is not None else None
                )
            if field is not None:
                field.a = ckpt.field_a
                field.a_dot = ckpt.field_a_dot
                field._last_j = ckpt.field_last_j
            # Re-derive the block-boundary potentials exactly as the
            # uninterrupted run does after its SCF update.
            solver.refresh_ionic()
            projectors = build_projectors(material, mesh)
            solver.projectors = projectors
            boundary = OrbitalSet(
                ckpt.psi.astype(np.complex128), occupations.copy(), mesh
            )
            density = boundary.density()
            v_eff = solver.effective_potential(density)
            psi = boundary.psi.astype(cdt)

        def total_field(t_au: float) -> np.ndarray:
            a = cfg.laser.vector_potential(t_au)
            if field is not None:
                a = a + field.a * pol
            return a

        def observe(t_au: float, psi_now: np.ndarray, h_nl_sub64: np.ndarray) -> QDRecord:
            nonlocal etot0
            a = total_field(t_au)
            # psi0 enters as the block's prepared plans (nlp's plan and
            # the column blocks), so its split terms are derived once
            # per SCF block and psi(t) is never hashed.
            e = calc_energy(
                psi_now, nlp.psi0_plan, occupations, mesh, v_eff, h_nl_sub64,
                a_field=a, device=self.device,
            )
            r = remap_occ(
                psi_now, psi0, occupations, mesh, psi0_blocks=psi0_blocks
            )
            j = current_density(
                psi_now, occupations, mesh, a_field=a, polarization=pol,
                device=self.device,
            )
            if etot0 is None:
                etot0 = e.etot
            return QDRecord(
                step=step,
                time_fs=t_au * FS_PER_AU,
                ekin=e.ekin,
                epot=e.epot,
                etot=e.etot,
                eexc=e.etot - etot0,
                nexc=r.nexc,
                aext=cfg.laser.scalar_amplitude(t_au),
                javg=j,
            )

        # Install the monitor ambiently for the loop so the propagator's
        # QD-step hook ticks it even when it was passed explicitly.
        dm_scope = (
            drift_monitoring(dm)
            if dm is not None and active_drift_monitor() is not dm
            else contextlib.nullcontext()
        )
        # The scheduler's policy resolves ahead of the compute_mode
        # context (per-call priority: explicit > policy > context), so
        # installing both keeps the FP64 phase's behaviour intact while
        # the scheduler owns the labelled LFD sites.
        sched_scope = sched.scope() if sched is not None else contextlib.nullcontext()
        with dm_scope, use_device(self.device), sched_scope:
            with compute_mode(effective_mode):
                remaining = total - step
                while remaining > 0:
                    block = min(cfg.nscf, remaining)
                    # QXMD -> LFD: ship the block's state to the device
                    # (shadow dynamics: the only bulk transfers).
                    ledger.record("psi_h2d", "h2d", psi.nbytes, step)
                    ledger.record("veff_h2d", "h2d", v_eff.nbytes, step)
                    if self.device is not None:
                        self.device.record_copy("psi_h2d", psi.nbytes, site="shadow")

                    # Per-block FP64 (QXMD) work: nonlocal subspace operator.
                    h_nl_sub = projectors.subspace_matrix(
                        psi0.astype(np.complex128)
                    )
                    if dm is not None and dm.budget is None:
                        if sched is not None and sched.clamp is None:
                            # Adaptive runs police a *fixed* contract:
                            # the scheduler's budget_mode envelope, not
                            # whatever mode is currently active.
                            dm.set_budget_for_mode(
                                sched.budget_mode,
                                cfg.dt,
                                float(np.linalg.norm(h_nl_sub)),
                                headroom=sched.config.budget_headroom,
                            )
                        else:
                            dm.set_budget_for_mode(
                                effective_mode, cfg.dt, float(np.linalg.norm(h_nl_sub))
                            )
                    nlp = NonlocalPropagator(psi0, h_nl_sub, cfg.dt, mesh)
                    psi0_blocks = prepare_psi0_blocks(psi0, occupations)
                    prop = LFDPropagator(
                        mesh, v_eff, nlp, cfg.laser, cfg.dt,
                        storage_dtype=cdt, device=self.device,
                    )

                    if step == 0:
                        rec0 = observe(0.0, psi, h_nl_sub)
                        records.append(rec0)
                        if dm is not None:
                            dm.observe(rec0)
                        if diagnostics is not None:
                            diagnostics.observe(0, psi, rec0.etot)

                    tm = _telemetry_active()
                    block_span = (
                        tm.span("scf_block", cat="scf", start_step=step, block=block)
                        if tm is not None
                        else contextlib.nullcontext()
                    )
                    with block_span:
                        for _ in range(block):
                            t_au = step * cfg.dt
                            a_ind = field.a * pol if field is not None else None
                            psi = prop.step(psi, t_au, a_extra=a_ind)
                            step += 1
                            rec = observe(step * cfg.dt, psi, h_nl_sub)
                            records.append(rec)
                            if dm is not None:
                                dm.observe(rec)
                                if sched is not None:
                                    sched.on_step(step, dm)
                            if field is not None:
                                field.step(rec.javg)
                            if diagnostics is not None:
                                diagnostics.observe(step, psi, rec.etot)
                            if progress is not None:
                                progress(step, rec)
                    remaining -= block

                    # LFD -> QXMD: bring the state home for the FP64
                    # SCF update (Section V: bounds truncation-error
                    # buildup) and the ionic step.
                    ledger.record("psi_d2h", "d2h", psi.nbytes, step)
                    if self.device is not None:
                        self.device.record_copy("psi_d2h", psi.nbytes, site="shadow")
                    # SCF refresh invalidation point: psi0 stays frozen
                    # across blocks by construction, but the split-plan
                    # cache must never trust that silently — re-validate
                    # the prepared operands' content so any in-place
                    # mutation (extensions, future psi0 re-anchoring)
                    # drops the stale splits before the next block.
                    prop.refresh_plans()
                    # SCF boundary: the scheduler reads the block's
                    # alert tally before the monitor's warn/breach
                    # latches re-arm — a breach in the *next* block
                    # must fire fresh alerts, not be swallowed by a
                    # latch set blocks ago.
                    if sched is not None:
                        sched.on_scf_boundary(step, dm)
                    if dm is not None:
                        dm.reset_alert_latches(step)
                    if remaining > 0:
                        update_span = (
                            tm.span("qxmd_update", cat="scf", step=step)
                            if tm is not None
                            else contextlib.nullcontext()
                        )
                        with update_span:
                            work = OrbitalSet(
                                psi.astype(np.complex128), occupations.copy(), mesh
                            )
                            if ions is not None:
                                ions.step(work.density())
                                solver.refresh_ionic()
                                projectors = build_projectors(material, mesh)
                                solver.projectors = projectors
                            updated = solver.update(work)
                            psi = updated.orbitals.psi.astype(cdt)
                            v_eff = updated.v_eff
                            density = updated.density
                        if checkpoint_path is not None:
                            from repro.dcmesh.io.checkpoint import (
                                Checkpoint,
                                save_checkpoint,
                            )

                            save_checkpoint(
                                checkpoint_path,
                                Checkpoint(
                                    step=step,
                                    psi=updated.orbitals.psi,
                                    psi0=psi0,
                                    occupations=occupations,
                                    positions=material.positions,
                                    velocities=(
                                        ions.velocities
                                        if ions is not None
                                        else np.zeros((material.n_atoms, 3))
                                    ),
                                    etot0=float(etot0),
                                    field_a=field.a if field is not None else 0.0,
                                    field_a_dot=(
                                        field.a_dot if field is not None else 0.0
                                    ),
                                    field_last_j=(
                                        field._last_j if field is not None else 0.0
                                    ),
                                    ion_forces=(
                                        ions._forces if ions is not None else None
                                    ),
                                ),
                            )

        # Drop the run's prepared-operand registry entry: the next run
        # starts from a fresh psi0 copy, so the cached splits (several
        # times psi0's footprint) must not outlive the trajectory.
        from repro.blas.plan import release

        release(psi0)

        if dm is not None:
            dm.finalize()

        return SimulationResult(
            config=cfg,
            mode=effective_mode,
            records=records,
            scf=ground,
            ledger=ledger,
            wall_seconds=time.perf_counter() - t_wall0,
            device=self.device,
            final_psi=psi,
            scheduler=sched,
        )
