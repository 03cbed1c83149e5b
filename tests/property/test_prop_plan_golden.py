"""Golden property tests: the fused/cached split-GEMM path is BITWISE
identical to the naive reference engine.

The contract under test is the hard one from the plan/workspace layer:
caching contiguous parts and split stacks, batching the component
products, and reusing workspace buffers must not change a single output
bit relative to the original implementation (per-pair matmuls with
fresh temporaries, most-significant-first accumulation).  The reference
here is composed from the *kept* pre-plan kernels:

* real routines — :func:`repro.blas.split.split_gemm_reference`;
* complex low-precision — :func:`repro.blas.complex3m.gemm_4m` with the
  reference real engine plugged underneath;
* ``COMPLEX_3M`` — :func:`repro.blas.complex3m.gemm_3m`.

Inputs are adversarial on purpose: denormals, signed zeros and wildly
mixed magnitudes, where any reassociation or double rounding would
show up immediately in the low-order bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blas.complex3m import gemm_3m, gemm_4m
from repro.blas.gemm import gemm
from repro.blas.modes import ComputeMode
from repro.blas.plan import prepare
from repro.blas.split import split_gemm_real, split_gemm_reference
from repro.blas.workspace import fused_mode

pytestmark = pytest.mark.usefixtures("clean_mode_env")

#: The five non-standard configurations of the paper's sweep.
SWEEP_MODES = [
    ComputeMode.FLOAT_TO_BF16,
    ComputeMode.FLOAT_TO_BF16X2,
    ComputeMode.FLOAT_TO_BF16X3,
    ComputeMode.FLOAT_TO_TF32,
    ComputeMode.COMPLEX_3M,
]

dims = st.integers(min_value=1, max_value=10)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _adversarial_real(rng, shape):
    """FP32 matrix mixing normals, denormals, signed zeros and huge
    magnitude spreads — the inputs most sensitive to reassociation."""
    x = rng.standard_normal(shape).astype(np.float32)
    # Mixed magnitudes: per-element decades from 2^-40 to 2^+40.
    x *= np.exp2(rng.integers(-40, 41, size=shape)).astype(np.float32)
    flat = x.ravel()
    n = flat.size
    # Denormals (FP32 denormal range is below 2^-126).
    idx = rng.integers(0, n, size=max(1, n // 8))
    flat[idx] = (rng.standard_normal(idx.size) * 1e-42).astype(np.float32)
    # Signed zeros.
    idx = rng.integers(0, n, size=max(1, n // 8))
    flat[idx] = np.float32(-0.0)
    idx = rng.integers(0, n, size=max(1, n // 8))
    flat[idx] = np.float32(0.0)
    # Mantissa-all-ones values: adversarial for the RNE rounding step.
    idx = rng.integers(0, n, size=max(1, n // 8))
    flat[idx] = np.nextafter(
        np.float32(2.0), np.float32(0.0)
    ) * np.exp2(rng.integers(-20, 21, size=idx.size)).astype(np.float32)
    return x


def _adversarial_complex(rng, shape):
    return _adversarial_real(rng, shape) + 1j * _adversarial_real(rng, shape)


@st.composite
def adversarial_inputs(draw, complex_=False):
    m, k, n = draw(dims), draw(dims), draw(dims)
    rng = np.random.default_rng(draw(seeds))
    if complex_:
        a = _adversarial_complex(rng, (m, k)).astype(np.complex64)
        b = _adversarial_complex(rng, (k, n)).astype(np.complex64)
    else:
        a = _adversarial_real(rng, (m, k))
        b = _adversarial_real(rng, (k, n))
    return a, b


def _reference(a, b, mode):
    """The pre-plan cold path, composed from the kept naive kernels."""
    if mode.is_low_precision:
        prec, n_terms = mode.component_precision, mode.n_terms
        if np.iscomplexobj(a):
            return gemm_4m(
                a, b, real_gemm=lambda x, y: split_gemm_reference(x, y, prec, n_terms)
            )
        return split_gemm_reference(a, b, prec, n_terms)
    if mode is ComputeMode.COMPLEX_3M and np.iscomplexobj(a):
        return gemm_3m(a, b)
    return np.matmul(a, b)


def _assert_bitwise(out, ref):
    assert out.dtype == ref.dtype and out.shape == ref.shape
    view = np.uint64 if out.dtype == np.complex64 else np.uint32
    np.testing.assert_array_equal(out.view(view), ref.view(view))


class TestGoldenSgemm:
    @given(adversarial_inputs(), st.sampled_from(SWEEP_MODES))
    @settings(max_examples=80, deadline=None)
    def test_routed_path_bitwise(self, ab, mode):
        a, b = ab
        ref = _reference(a, b, mode)
        for engine in ("batched", "loop"):
            with fused_mode(engine):
                _assert_bitwise(gemm(a, b, mode=mode), ref)

    @given(adversarial_inputs(), st.sampled_from(SWEEP_MODES))
    @settings(max_examples=40, deadline=None)
    def test_prepared_operands_bitwise(self, ab, mode):
        a, b = ab
        ref = _reference(a, b, mode)
        _assert_bitwise(gemm(prepare(a.copy()), prepare(b.copy()), mode=mode), ref)

    @given(adversarial_inputs())
    @settings(max_examples=40, deadline=None)
    def test_split_engine_direct(self, ab):
        from repro.types import Precision

        a, b = ab
        for prec, n_terms in [
            (Precision.BF16, 1),
            (Precision.BF16, 2),
            (Precision.BF16, 3),
            (Precision.TF32, 1),
        ]:
            ref = split_gemm_reference(a, b, prec, n_terms)
            for engine in ("batched", "loop"):
                with fused_mode(engine):
                    _assert_bitwise(split_gemm_real(a, b, prec, n_terms), ref)


class TestGoldenCgemm:
    @given(adversarial_inputs(complex_=True), st.sampled_from(SWEEP_MODES))
    @settings(max_examples=80, deadline=None)
    def test_routed_path_bitwise(self, ab, mode):
        a, b = ab
        ref = _reference(a, b, mode)
        for engine in ("batched", "loop"):
            with fused_mode(engine):
                _assert_bitwise(gemm(a, b, mode=mode), ref)

    @given(adversarial_inputs(complex_=True), st.sampled_from(SWEEP_MODES))
    @settings(max_examples=40, deadline=None)
    def test_prepared_operands_bitwise(self, ab, mode):
        a, b = ab
        ref = _reference(a, b, mode)
        _assert_bitwise(gemm(prepare(a.copy()), prepare(b.copy()), mode=mode), ref)

    @given(adversarial_inputs(complex_=True), st.sampled_from(SWEEP_MODES))
    @settings(max_examples=30, deadline=None)
    def test_repeated_plain_calls_do_not_change_bits(self, ab, mode):
        a, b = ab
        cold = gemm(a, b, mode=mode)
        warm1 = gemm(a, b, mode=mode)
        warm2 = gemm(a, b, mode=mode)
        _assert_bitwise(warm1, cold)
        _assert_bitwise(warm2, cold)


class TestCacheInvalidation:
    """Mutating a frozen operand must refresh the plan — stale split
    terms would silently poison every GEMM of the next SCF block."""

    def _make_nlp(self, seed=0):
        from repro.dcmesh.mesh import Mesh
        from repro.dcmesh.nlp import NonlocalPropagator
        from repro.dcmesh.wavefunction import OrbitalSet

        mesh = Mesh((8, 8, 8), (5.0, 5.0, 5.0))
        orb = OrbitalSet.random(mesh, 5, 2, seed=seed)
        rng = np.random.default_rng(seed + 100)
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = 0.5 * (h + h.conj().T) * 0.2
        psi0 = orb.psi.astype(np.complex64)
        return mesh, psi0, h, NonlocalPropagator(psi0, h, dt=0.05, mesh=mesh)

    @pytest.mark.parametrize("mode", ["FLOAT_TO_BF16X3", "COMPLEX_3M"])
    def test_mutated_psi0_refreshes_plan(self, mode):
        from repro.blas.modes import compute_mode
        from repro.dcmesh.nlp import NonlocalPropagator

        mesh, psi0, h, nlp = self._make_nlp()
        rng = np.random.default_rng(7)
        psi = (
            rng.standard_normal(psi0.shape) + 1j * rng.standard_normal(psi0.shape)
        ).astype(np.complex64)
        with compute_mode(mode):
            nlp.apply(psi)  # warm the plan caches
            # SCF refresh mutates the reference orbitals in place.
            psi0 *= np.complex64(0.75)
            psi0[0, 0] += np.complex64(0.5 + 0.25j)
            assert nlp.refresh_plans() is True
            after = nlp.apply(psi)
            # A propagator built fresh on the mutated psi0 (no cached
            # state anywhere) is the ground truth.
            from repro.blas.plan import release

            release(psi0)
            fresh = NonlocalPropagator(psi0, h, dt=0.05, mesh=mesh).apply(psi)
        np.testing.assert_array_equal(
            after.view(np.uint64), fresh.view(np.uint64)
        )

    def test_refresh_is_noop_when_unchanged(self):
        _, _, _, nlp = self._make_nlp(seed=3)
        rng = np.random.default_rng(11)
        psi = (
            rng.standard_normal(nlp.psi0.shape)
            + 1j * rng.standard_normal(nlp.psi0.shape)
        ).astype(np.complex64)
        nlp.apply(psi)
        assert nlp.refresh_plans() is False

    def test_explicit_invalidate_matches_fresh(self):
        from repro.blas.modes import compute_mode

        _, psi0, _, nlp = self._make_nlp(seed=5)
        rng = np.random.default_rng(13)
        psi = (
            rng.standard_normal(psi0.shape) + 1j * rng.standard_normal(psi0.shape)
        ).astype(np.complex64)
        with compute_mode("FLOAT_TO_TF32"):
            before = nlp.apply(psi)
            nlp.invalidate_plans()
            after = nlp.apply(psi)  # rebuilt derived forms, same bytes in
        np.testing.assert_array_equal(
            before.view(np.uint64), after.view(np.uint64)
        )


#: The nine runs of the precision study: the paper's six configurations,
#: the two software-emulation modes and the adaptive scheduler.
LADDER_MODES = [
    "STANDARD",
    "FLOAT_TO_BF16",
    "FLOAT_TO_TF32",
    "FLOAT_TO_BF16X2",
    "FLOAT_TO_BF16X3",
    "COMPLEX_3M",
    "OZAKI_INT8",
    "EMULATED_FP64",
    "adaptive",
]


@pytest.fixture(scope="module")
def lfd_state():
    """Small-lattice LFD state: SCF reference psi0 and an evolved psi(t)."""
    from repro.dcmesh.simulation import Simulation, SimulationConfig

    sim = Simulation(SimulationConfig.small_test(n_qd_steps=3, nscf=3))
    ground = sim.setup()
    psi = sim.run(mode="STANDARD").final_psi
    psi0 = ground.orbitals.psi.astype(psi.dtype)
    n_orb = psi0.shape[1]
    rng = np.random.default_rng(21)
    h = rng.standard_normal((n_orb, n_orb)) + 1j * rng.standard_normal((n_orb, n_orb))
    h = 0.05 * (h + h.conj().T)
    return sim.mesh, psi0, psi, ground.orbitals.occupations, ground.v_eff, h


class TestExplicitPsi0Plans:
    """``calc_energy``/``remap_occ`` fed the SCF block's prepared plans
    (``NonlocalPropagator.psi0_plan`` and the psi0 column blocks) return
    exactly the bits they return for plain ``psi0`` arrays."""

    @staticmethod
    def _mode_scope(mode):
        from repro.blas.modes import compute_mode
        from repro.core.scheduler import AdaptiveScheduler

        if mode == "adaptive":
            return AdaptiveScheduler().scope()
        return compute_mode(mode)

    @pytest.mark.parametrize("mode", LADDER_MODES)
    def test_prepared_psi0_is_bitwise_identical(self, lfd_state, mode):
        from repro.blas.plan import release
        from repro.dcmesh.energy import calc_energy
        from repro.dcmesh.nlp import NonlocalPropagator
        from repro.dcmesh.occupation import prepare_psi0_blocks, remap_occ

        mesh, psi0, psi, f, v_eff, h = lfd_state
        psi0 = psi0.copy()  # a private array: its registry plan is ours
        try:
            with self._mode_scope(mode):
                e_ref = calc_energy(psi, psi0, f, mesh, v_eff, h)
                r_ref = remap_occ(psi, psi0, f, mesh)
                nlp = NonlocalPropagator(psi0, h, 0.04, mesh)
                nlp.apply(psi)  # the nlp GEMMs warm the shared psi0 plan
                blocks = prepare_psi0_blocks(psi0, f)
                for _ in range(2):  # cold, then served from the plans
                    e = calc_energy(psi, nlp.psi0_plan, f, mesh, v_eff, h)
                    r = remap_occ(psi, psi0, f, mesh, psi0_blocks=blocks)
                    got = np.array([e.ekin, e.epot, e.enl, e.etot, r.nexc])
                    ref = np.array(
                        [e_ref.ekin, e_ref.epot, e_ref.enl, e_ref.etot, r_ref.nexc]
                    )
                    np.testing.assert_array_equal(
                        got.view(np.uint64), ref.view(np.uint64)
                    )
                    for name in ("occ_remapped", "per_orbital_exc"):
                        np.testing.assert_array_equal(
                            getattr(r, name).view(np.uint64),
                            getattr(r_ref, name).view(np.uint64),
                        )
        finally:
            release(psi0)

    def test_blocks_must_split_psi0_at_n_occ(self, lfd_state):
        from repro.dcmesh.occupation import prepare_psi0_blocks, remap_occ

        mesh, psi0, psi, f, _, _ = lfd_state
        occ, virt = prepare_psi0_blocks(psi0, f)
        with pytest.raises(ValueError, match="psi0_blocks"):
            remap_occ(psi, psi0, f, mesh, psi0_blocks=(virt, occ))
