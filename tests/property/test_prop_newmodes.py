"""Property tests for the post-paper split modes.

Two contracts per mode:

* **accuracy** — against an FP64 matmul reference, ``OZAKI_INT8`` stays
  inside the analytic per-slice truncation bound and ``EMULATED_FP64``
  delivers FP64-class results from FP32-term products;
* **golden bitwise** — the routed fused/plan-cached paths reproduce the
  kept naive references (:func:`repro.blas.split.ozaki_gemm_reference`,
  :func:`repro.blas.split.emulated_fp64_gemm_reference`, composed with
  ``gemm_4m`` for complex) bit for bit under both fused engines, on the
  same adversarial inputs the paper-mode golden suite uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blas.complex3m import gemm_4m
from repro.blas.gemm import gemm
from repro.blas.modes import ComputeMode, set_ozaki_slices
from repro.blas.plan import prepare
from repro.blas.rounding import OZAKI_SLICE_BITS, ozaki_max_relative_error
from repro.blas.split import (
    emulated_fp64_gemm_reference,
    ozaki_gemm_reference,
)
from repro.blas.workspace import fused_mode

pytestmark = pytest.mark.usefixtures("clean_mode_env")

dims = st.integers(min_value=1, max_value=10)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
slice_counts = st.integers(min_value=1, max_value=4)


def _mixed_magnitude(rng, shape, decades=4, dtype=np.float32):
    scale = 10.0 ** rng.integers(-decades, decades + 1, size=shape).astype(np.float64)
    return (rng.standard_normal(shape) * scale).astype(dtype)


@st.composite
def gemm_inputs(draw, dtype=np.float32, decades=4):
    m, k, n = draw(dims), draw(dims), draw(dims)
    rng = np.random.default_rng(draw(seeds))
    if np.dtype(dtype).kind == "c":
        real = np.float32 if np.dtype(dtype) == np.dtype(np.complex64) else np.float64
        a = (_mixed_magnitude(rng, (m, k), decades, real)
             + 1j * _mixed_magnitude(rng, (m, k), decades, real)).astype(dtype)
        b = (_mixed_magnitude(rng, (k, n), decades, real)
             + 1j * _mixed_magnitude(rng, (k, n), decades, real)).astype(dtype)
    else:
        a = _mixed_magnitude(rng, (m, k), decades, dtype)
        b = _mixed_magnitude(rng, (k, n), decades, dtype)
    return a, b


def _assert_bitwise(out, ref):
    assert out.dtype == ref.dtype and out.shape == ref.shape
    view = {
        np.dtype(np.float32): np.uint32,
        np.dtype(np.float64): np.uint64,
        np.dtype(np.complex64): np.uint64,
    }.get(out.dtype)
    if view is None:                      # complex128: compare part-wise
        np.testing.assert_array_equal(out.real.view(np.uint64), ref.real.view(np.uint64))
        np.testing.assert_array_equal(out.imag.view(np.uint64), ref.imag.view(np.uint64))
    else:
        np.testing.assert_array_equal(out.view(view), ref.view(view))


# ----------------------------------------------------------------------
# Accuracy against the FP64 reference.
# ----------------------------------------------------------------------


class TestOzakiAccuracy:
    """OZAKI_INT8 stays inside the analytic slice-truncation bound.

    With per-fibre scales ``rowmax_a``/``colmax_b``, truncating each
    operand after ``s`` 7-bit slices leaves a residual below
    ``2^(1 - 7s)`` of the fibre max; propagating both residuals through
    the k-sum bounds the output error by
    ``k * rowmax_a * colmax_b * 2^(3 - 7s)`` elementwise.
    """

    @given(gemm_inputs(), slice_counts)
    @settings(max_examples=60, deadline=None)
    def test_elementwise_truncation_bound(self, ab, n_slices):
        a, b = ab
        set_ozaki_slices(n_slices)
        try:
            out = gemm(a, b, mode=ComputeMode.OZAKI_INT8).astype(np.float64)
        finally:
            set_ozaki_slices(None)
        ref = a.astype(np.float64) @ b.astype(np.float64)
        k = a.shape[-1]
        rowmax = np.max(np.abs(a.astype(np.float64)), axis=-1, keepdims=True)
        colmax = np.max(np.abs(b.astype(np.float64)), axis=-2, keepdims=True)
        bound = k * rowmax * colmax * 2.0 ** (3 - OZAKI_SLICE_BITS * n_slices)
        # FP32 output rounding adds at most one half-ulp of the result.
        bound = bound + np.abs(ref) * 2.0**-24
        assert (np.abs(out - ref) <= bound + np.finfo(np.float64).tiny).all()

    def test_more_slices_tighter_error(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((48, 64)).astype(np.float32)
        b = rng.standard_normal((64, 40)).astype(np.float32)
        ref = a.astype(np.float64) @ b.astype(np.float64)

        def err(s):
            set_ozaki_slices(s)
            try:
                out = gemm(a, b, mode=ComputeMode.OZAKI_INT8)
            finally:
                set_ozaki_slices(None)
            return float(np.abs(out.astype(np.float64) - ref).max())

        e1, e2, e3 = err(1), err(2), err(3)
        assert e1 > e2 > 0
        assert e2 > e3 or e3 == 0.0
        # And the analytic ladder mirrors that monotonicity.
        assert ozaki_max_relative_error(1) > ozaki_max_relative_error(2) > \
            ozaki_max_relative_error(3)


class TestEmulatedFP64Accuracy:
    """EMULATED_FP64 delivers FP64-class GEMMs from FP32-term products."""

    @given(gemm_inputs(dtype=np.float64, decades=6))
    @settings(max_examples=60, deadline=None)
    def test_dgemm_near_fp64(self, ab):
        a, b = ab
        out = gemm(a, b, mode=ComputeMode.EMULATED_FP64)
        assert out.dtype == np.float64
        ref = a @ b
        # The three FP32 terms carry all 53 significand bits and every
        # pair product is exact in FP64, so the only error left is the
        # FP64 accumulation of ~6k partial products.
        k = a.shape[-1]
        envelope = np.abs(a) @ np.abs(b)
        bound = envelope * (32 * k * 2.0**-53) + np.finfo(np.float64).tiny
        assert (np.abs(out - ref) <= bound).all()

    @given(gemm_inputs(dtype=np.complex128, decades=3))
    @settings(max_examples=30, deadline=None)
    def test_zgemm_near_fp64(self, ab):
        a, b = ab
        out = gemm(a, b, mode=ComputeMode.EMULATED_FP64)
        assert out.dtype == np.complex128
        ref = a @ b
        k = a.shape[-1]
        envelope = np.abs(a) @ np.abs(b)
        bound = envelope * (64 * k * 2.0**-53) + np.finfo(np.float64).tiny
        assert (np.abs(out - ref) <= bound).all()

    @given(gemm_inputs())
    @settings(max_examples=40, deadline=None)
    def test_sgemm_beats_fp32_class(self, ab):
        a, b = ab
        out = gemm(a, b, mode=ComputeMode.EMULATED_FP64)
        assert out.dtype == np.float32
        ref = a.astype(np.float64) @ b.astype(np.float64)
        k = a.shape[-1]
        envelope = np.abs(a.astype(np.float64)) @ np.abs(b.astype(np.float64))
        # FP64 accumulation, then one rounding to FP32 storage.
        bound = envelope * (32 * k * 2.0**-53) + np.abs(ref) * 2.0**-24
        assert (np.abs(out.astype(np.float64) - ref)
                <= bound + np.finfo(np.float64).tiny).all()


# ----------------------------------------------------------------------
# Golden bitwise: routed/fused/cached paths vs the naive references.
# ----------------------------------------------------------------------


def _reference(a, b, mode):
    """The kept naive path for each (dtype, mode) pairing."""
    if mode is ComputeMode.OZAKI_INT8:
        n_slices = ComputeMode.OZAKI_INT8.n_terms
        if np.iscomplexobj(a):
            return gemm_4m(
                a, b, real_gemm=lambda x, y: ozaki_gemm_reference(x, y, n_slices)
            )
        return ozaki_gemm_reference(a, b, n_slices)
    if np.iscomplexobj(a):
        return gemm_4m(a, b, real_gemm=emulated_fp64_gemm_reference)
    return emulated_fp64_gemm_reference(a, b)


class TestGoldenOzaki:
    @given(gemm_inputs(), slice_counts)
    @settings(max_examples=50, deadline=None)
    def test_sgemm_bitwise(self, ab, n_slices):
        a, b = ab
        set_ozaki_slices(n_slices)
        try:
            ref = _reference(a, b, ComputeMode.OZAKI_INT8)
            for engine in ("batched", "loop"):
                with fused_mode(engine):
                    _assert_bitwise(gemm(a, b, mode=ComputeMode.OZAKI_INT8), ref)
        finally:
            set_ozaki_slices(None)

    @given(gemm_inputs(dtype=np.complex64))
    @settings(max_examples=40, deadline=None)
    def test_cgemm_bitwise(self, ab):
        a, b = ab
        ref = _reference(a, b, ComputeMode.OZAKI_INT8)
        for engine in ("batched", "loop"):
            with fused_mode(engine):
                _assert_bitwise(gemm(a, b, mode=ComputeMode.OZAKI_INT8), ref)

    @given(gemm_inputs())
    @settings(max_examples=25, deadline=None)
    def test_prepared_and_cached_bitwise(self, ab):
        a, b = ab
        ref = _reference(a, b, ComputeMode.OZAKI_INT8)
        _assert_bitwise(
            gemm(prepare(a.copy()), prepare(b.copy()), mode=ComputeMode.OZAKI_INT8),
            ref,
        )
        warm1 = gemm(a, b, mode=ComputeMode.OZAKI_INT8)
        warm2 = gemm(a, b, mode=ComputeMode.OZAKI_INT8)
        _assert_bitwise(warm1, ref)
        _assert_bitwise(warm2, ref)


class TestGoldenEmulatedFP64:
    @given(gemm_inputs())
    @settings(max_examples=40, deadline=None)
    def test_sgemm_bitwise(self, ab):
        a, b = ab
        ref = _reference(a, b, ComputeMode.EMULATED_FP64)
        for engine in ("batched", "loop"):
            with fused_mode(engine):
                _assert_bitwise(gemm(a, b, mode=ComputeMode.EMULATED_FP64), ref)

    @given(gemm_inputs(dtype=np.float64))
    @settings(max_examples=40, deadline=None)
    def test_dgemm_bitwise(self, ab):
        a, b = ab
        ref = _reference(a, b, ComputeMode.EMULATED_FP64)
        for engine in ("batched", "loop"):
            with fused_mode(engine):
                _assert_bitwise(gemm(a, b, mode=ComputeMode.EMULATED_FP64), ref)

    @given(gemm_inputs(dtype=np.complex64))
    @settings(max_examples=30, deadline=None)
    def test_cgemm_bitwise(self, ab):
        a, b = ab
        ref = _reference(a, b, ComputeMode.EMULATED_FP64)
        for engine in ("batched", "loop"):
            with fused_mode(engine):
                _assert_bitwise(gemm(a, b, mode=ComputeMode.EMULATED_FP64), ref)

    @given(gemm_inputs(dtype=np.complex128))
    @settings(max_examples=30, deadline=None)
    def test_zgemm_bitwise(self, ab):
        a, b = ab
        ref = _reference(a, b, ComputeMode.EMULATED_FP64)
        for engine in ("batched", "loop"):
            with fused_mode(engine):
                _assert_bitwise(gemm(a, b, mode=ComputeMode.EMULATED_FP64), ref)

    @given(gemm_inputs(dtype=np.float64))
    @settings(max_examples=25, deadline=None)
    def test_prepared_and_cached_bitwise(self, ab):
        a, b = ab
        ref = _reference(a, b, ComputeMode.EMULATED_FP64)
        _assert_bitwise(
            gemm(prepare(a.copy()), prepare(b.copy()), mode=ComputeMode.EMULATED_FP64),
            ref,
        )
        warm1 = gemm(a, b, mode=ComputeMode.EMULATED_FP64)
        warm2 = gemm(a, b, mode=ComputeMode.EMULATED_FP64)
        _assert_bitwise(warm1, ref)
        _assert_bitwise(warm2, ref)


class TestOzakiFp64Passthrough:
    """OZAKI_INT8 is single-only: double routines fall back to STANDARD."""

    @given(gemm_inputs(dtype=np.float64))
    @settings(max_examples=20, deadline=None)
    def test_dgemm_is_standard(self, ab):
        a, b = ab
        _assert_bitwise(
            gemm(a, b, mode=ComputeMode.OZAKI_INT8),
            gemm(a, b, mode=ComputeMode.STANDARD),
        )
