"""End-to-end telemetry: the LFD pipeline and the experiment runner.

Pins the paper's central accounting claim — "Each QD step contains 9
BLAS calls" (three each in nlp_prop, calc_energy and remap_occ) — as
read off the telemetry counters of a real simulation, and exercises
the ``--telemetry DIR`` surface of ``dcmesh-repro``.
"""

import pytest

from repro.dcmesh.simulation import Simulation, SimulationConfig
from repro.experiments.runner import main as runner_main
from repro.telemetry import read_chrome_trace, read_jsonl, telemetry

pytestmark = pytest.mark.telemetry

N_STEPS = 4


@pytest.fixture(scope="module")
def sim_collector():
    """One tiny simulation run under a scoped collector."""
    cfg = SimulationConfig.small_test(
        mesh_shape=(8, 8, 8), n_orb=20, n_qd_steps=N_STEPS, nscf=2
    )
    with telemetry() as t:
        sim = Simulation(cfg)
        sim.setup()
        sim.run()
    return t


class TestNineCallsPerStep:
    def test_total_is_nine_per_step_plus_setup(self, sim_collector):
        """9 calls per QD step + 6 for the t=0 observation."""
        t = sim_collector
        assert t.counter_total("blas.calls") == 9 * N_STEPS + 6

    def test_three_calls_per_site_per_step(self, sim_collector):
        t = sim_collector
        per_site = {
            site: t.counter_value(
                "blas.calls", routine="cgemm", site=site, mode="STANDARD",
                backend="numpy"
            )
            for site in ("nlp_prop", "calc_energy", "remap_occ")
        }
        # nlp_prop runs only inside the step; the two observable sites
        # also run once for the initial (t=0) observation.
        assert per_site == {
            "nlp_prop": 3 * N_STEPS,
            "calc_energy": 3 * (N_STEPS + 1),
            "remap_occ": 3 * (N_STEPS + 1),
        }

    def test_qd_step_counter_and_spans(self, sim_collector):
        t = sim_collector
        assert t.counter_value("lfd.qd_steps") == N_STEPS
        assert t.histograms["span.qd_step"].count == N_STEPS
        assert t.histograms["span.ground_state_scf"].count == 1
        assert t.histograms["span.qxmd_update"].count == 1

    def test_flops_and_bytes_accumulated(self, sim_collector):
        t = sim_collector
        assert t.counter_value("blas.flops", routine="cgemm") > 0
        assert t.counter_value("blas.bytes", routine="cgemm") > 0

    def test_plan_and_workspace_counters_present(self, sim_collector):
        """The split-plan cache and workspace instrumentation fired."""
        t = sim_collector
        flat = t.counters_flat()
        assert any(k.startswith("blas.plan.") for k in flat)


class TestNoPerStepContentHashing:
    """Operand content hashing is the once-per-SCF-block freshness check
    of the frozen psi0 plans; no QD-step GEMM hashes an operand."""

    @staticmethod
    def _fingerprints(n_steps: int, nscf: int = 12) -> float:
        cfg = SimulationConfig.small_test(
            mesh_shape=(8, 8, 8), n_orb=20, n_qd_steps=n_steps, nscf=nscf
        )
        sim = Simulation(cfg)
        sim.setup()
        with telemetry() as t:
            sim.run(mode="FLOAT_TO_BF16")
        assert t.counter_total("blas.calls") > 9 * n_steps  # GEMMs did run
        return t.counter_total("blas.plan.fingerprints")

    def test_fingerprints_depend_on_blocks_not_steps(self):
        # Both runs are one SCF block long; the second has twice the steps.
        assert 0 < self._fingerprints(6) == self._fingerprints(12)


class TestRunnerTelemetryFlag:
    def test_table6_emits_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "telem"
        assert runner_main(["table6", "--telemetry", str(out)]) == 0
        assert (out / "trace.jsonl").is_file()
        assert (out / "trace.chrome.json").is_file()
        assert (out / "summary.txt").is_file()
        assert "telemetry exported" in capsys.readouterr().out

        trace = read_jsonl(out / "trace.jsonl")
        # table6 is device-model-only: model evaluations, no emulation.
        model_counters = [
            name for name in trace["counters"] if name.startswith("blas.model_calls")
        ]
        assert model_counters
        chrome = read_chrome_trace(out / "trace.chrome.json")
        sweep_spans = [
            e
            for e in chrome["traceEvents"]
            if e.get("cat") == "sweep" and e.get("ph") == "X"
        ]
        assert sweep_spans  # one per compute mode in the sweep

    def test_runner_without_flag_leaves_telemetry_off(self, tmp_path, capsys):
        from repro.telemetry import active

        assert runner_main(["table7"]) == 0
        capsys.readouterr()
        assert active() is None
