"""Unit tests: split-plan caching (PreparedOperand, prepare() registry)."""

import numpy as np
import pytest

from repro.blas.gemm import check_finite, finite_checks, finite_checks_enabled, gemm
from repro.blas.plan import (
    PreparedOperand,
    lookup_anonymous,
    operand_handle,
    plan_cache_info,
    prepare,
    release,
)
from repro.blas.workspace import (
    Workspace,
    clear_workspace,
    fused_mode,
    fused_pair_products,
    get_fused_mode,
    get_workspace,
    set_fused_mode,
)
from repro.types import Precision


class TestPreparedOperand:
    def test_oriented_is_cached(self, rng):
        x = rng.standard_normal((6, 8)).astype(np.float32)
        plan = PreparedOperand(x)
        first = plan.oriented("N", np.float32)
        assert plan.oriented("N", np.float32) is first

    def test_oriented_matches_cold_path(self, rng):
        x = (rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))).astype(
            np.complex64
        )
        plan = PreparedOperand(x)
        np.testing.assert_array_equal(
            plan.oriented("C", np.complex64), np.ascontiguousarray(x.conj().T)
        )

    def test_parts_match_cold_path(self, rng):
        x = (rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))).astype(
            np.complex64
        )
        plan = PreparedOperand(x)
        np.testing.assert_array_equal(
            plan.part("N", np.complex64, "re"),
            np.ascontiguousarray(x.real, dtype=np.float32),
        )
        np.testing.assert_array_equal(
            plan.part("T", np.complex64, "im"),
            np.ascontiguousarray(x.T.imag, dtype=np.float32),
        )
        np.testing.assert_array_equal(
            plan.part("N", np.complex64, "re+im"),
            plan.part("N", np.complex64, "re") + plan.part("N", np.complex64, "im"),
        )

    def test_conjugate_negates_imag_part(self, rng):
        x = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))).astype(
            np.complex64
        )
        plan = PreparedOperand(x)
        np.testing.assert_array_equal(
            plan.part("C", np.complex64, "im"),
            np.ascontiguousarray(-x.imag.T, dtype=np.float32),
        )

    def test_split_stack_matches_split_terms(self, rng):
        from repro.blas.rounding import split_terms

        x = rng.standard_normal((6, 9)).astype(np.float32)
        plan = PreparedOperand(x)
        stack = plan.split_stack("N", 7, 3)
        assert stack.shape == (3, 6, 9)
        assert stack.flags.c_contiguous
        for i, term in enumerate(split_terms(x, 7, 3)):
            np.testing.assert_array_equal(stack[i], term)

    def test_oriented_n_same_dtype_is_zero_copy(self, rng):
        # A contiguous same-dtype operand needs no derived copy at all:
        # the cache serves the backing array itself.
        x = rng.standard_normal((4, 4)).astype(np.float32)
        assert PreparedOperand(x).oriented("N", np.float32) is x

    def test_invalidate_drops_cache_and_bumps_version(self, rng):
        x = rng.standard_normal((4, 4)).astype(np.float32)
        plan = PreparedOperand(x)
        first = plan.oriented("T", np.float32)  # "T" forces a packed copy
        v0 = plan.version
        plan.invalidate()
        assert plan.version == v0 + 1
        assert plan.oriented("T", np.float32) is not first

    def test_refresh_if_changed_detects_mutation(self, rng):
        x = rng.standard_normal((4, 4)).astype(np.float32)
        plan = PreparedOperand(x)
        plan.fingerprint()
        stale = plan.oriented("T", np.float32)
        assert plan.refresh_if_changed() is False
        x[0, 0] += 1.0
        assert plan.refresh_if_changed() is True
        fresh = plan.oriented("T", np.float32)
        assert fresh is not stale
        np.testing.assert_array_equal(fresh, x.T)

    def test_refresh_without_baseline_is_conservative(self, rng):
        # No fingerprint was ever taken -> the plan cannot prove its
        # cached forms are fresh, so refresh must invalidate.
        x = rng.standard_normal((4, 4)).astype(np.float32)
        plan = PreparedOperand(x)
        stale = plan.oriented("T", np.float32)
        assert plan.refresh_if_changed() is True
        assert plan.oriented("T", np.float32) is not stale
        # Baseline is now established; a second call is a clean no-op.
        assert plan.refresh_if_changed() is False

    def test_is_finite_memoised(self, rng):
        x = rng.standard_normal((4, 4)).astype(np.float32)
        plan = PreparedOperand(x)
        assert plan.is_finite()
        x[1, 1] = np.inf
        # Stale until told — that is the explicit-API contract.
        assert plan.is_finite()
        plan.invalidate()
        assert not plan.is_finite()


class TestRegistry:
    def test_prepare_is_identity_keyed(self, rng):
        x = rng.standard_normal((4, 4)).astype(np.float32)
        assert prepare(x) is prepare(x)

    def test_prepare_passes_plans_through(self, rng):
        x = rng.standard_normal((4, 4)).astype(np.float32)
        plan = prepare(x)
        assert prepare(plan) is plan

    def test_distinct_arrays_distinct_plans(self, rng):
        x = rng.standard_normal((4, 4)).astype(np.float32)
        y = x.copy()
        assert prepare(x) is not prepare(y)

    def test_release_forgets(self, rng):
        x = rng.standard_normal((4, 4)).astype(np.float32)
        plan = prepare(x)
        release(x)
        assert prepare(x) is not plan


class TestNoContentCache:
    def test_lookup_anonymous_is_a_stub(self, rng):
        x = rng.standard_normal((256, 256)).astype(np.float32)
        assert lookup_anonymous(x) is None
        assert lookup_anonymous(x.copy()) is None

    def test_plain_operands_get_throwaway_plans(self, rng):
        x = rng.standard_normal((256, 256)).astype(np.float32)
        h1 = operand_handle(x, "N", np.float32)
        h2 = operand_handle(x.copy(), "N", np.float32)
        assert h1.plan is not h2.plan
        assert h1.plan.array is x

    def test_plain_gemm_never_hashes_operands(self, rng):
        from repro.telemetry.registry import telemetry

        a = rng.standard_normal((64, 512)).astype(np.float32)
        b = rng.standard_normal((512, 64)).astype(np.float32)
        with telemetry() as t:
            for _ in range(3):
                gemm(a, b, mode="FLOAT_TO_BF16X2")
        assert t.counter_total("blas.plan.fingerprints") == 0

    def test_info_reports_prepare_registry(self, rng):
        x = rng.standard_normal((4, 4)).astype(np.float32)
        before = plan_cache_info()
        plan = prepare(x)
        assert prepare(x) is plan
        after = plan_cache_info()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1
        assert 1 <= after["size"] <= after["maxsize"]
        release(x)
        assert plan_cache_info()["size"] == after["size"] - 1


class TestGemmWithPlans:
    @pytest.mark.parametrize(
        "mode", ["STANDARD", "FLOAT_TO_BF16X3", "FLOAT_TO_TF32", "COMPLEX_3M"]
    )
    def test_prepared_bitwise_equals_raw(self, rng, mode):
        a = (rng.standard_normal((9, 14)) + 1j * rng.standard_normal((9, 14))).astype(
            np.complex64
        )
        b = (rng.standard_normal((14, 6)) + 1j * rng.standard_normal((14, 6))).astype(
            np.complex64
        )
        raw = gemm(a, b, mode=mode)
        planned = gemm(prepare(a), prepare(b), mode=mode)
        np.testing.assert_array_equal(
            raw.view(np.uint64), planned.view(np.uint64)
        )

    def test_prepared_with_trans(self, rng):
        a = (rng.standard_normal((14, 9)) + 1j * rng.standard_normal((14, 9))).astype(
            np.complex64
        )
        b = (rng.standard_normal((14, 6)) + 1j * rng.standard_normal((14, 6))).astype(
            np.complex64
        )
        raw = gemm(a, b, trans_a="C", mode="FLOAT_TO_BF16X2")
        planned = gemm(prepare(a), b, trans_a="C", mode="FLOAT_TO_BF16X2")
        np.testing.assert_array_equal(raw.view(np.uint64), planned.view(np.uint64))

    def test_typed_wrappers_accept_plans(self, rng):
        from repro.blas.gemm import cgemm

        a = (rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))).astype(
            np.complex64
        )
        b = (rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))).astype(
            np.complex64
        )
        np.testing.assert_array_equal(cgemm(prepare(a), b), cgemm(a, b))

    def test_shape_errors_still_raised(self, rng):
        a = rng.standard_normal((4, 5)).astype(np.float32)
        b = rng.standard_normal((6, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="inner dimensions"):
            gemm(prepare(a), prepare(b))


class TestFiniteToggle:
    def test_suite_default_is_on(self):
        # The tests/conftest autouse fixture switches the scans on.
        assert finite_checks_enabled()

    def test_off_skips_scan(self, rng):
        a = rng.standard_normal((3, 3)).astype(np.float32)
        a[0, 0] = np.nan
        b = rng.standard_normal((3, 3)).astype(np.float32)
        with finite_checks(False):
            out = gemm(a, b)  # no raise
        assert np.isnan(out).any()
        with pytest.raises(FloatingPointError, match="non-finite"):
            gemm(a, b)

    def test_toggle_roundtrip(self):
        check_finite(False)
        assert not finite_checks_enabled()
        check_finite(True)
        assert finite_checks_enabled()


class TestWorkspace:
    def test_buffers_reused(self):
        ws = Workspace()
        b1 = ws.get("prod", (4, 5), np.float32)
        b2 = ws.get("prod", (4, 5), np.float32)
        assert b1 is b2
        assert ws.get("prod", (4, 6), np.float32) is not b1
        ws.clear()
        assert ws.get("prod", (4, 5), np.float32) is not b1

    def test_thread_local_workspace(self):
        import threading

        ws_main = get_workspace()
        seen = {}

        def other():
            seen["ws"] = get_workspace()

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert seen["ws"] is not ws_main
        clear_workspace()

    def test_fused_mode_validation(self):
        with pytest.raises(ValueError, match="fused mode"):
            set_fused_mode("nope")
        assert get_fused_mode() in ("auto", "batched", "loop")

    def test_fused_pair_products_both_paths_bitwise(self, rng):
        from repro.blas.split import component_pairs

        a_terms = np.stack(
            [rng.standard_normal((7, 11)).astype(np.float32) for _ in range(3)]
        )
        b_terms = np.stack(
            [rng.standard_normal((11, 5)).astype(np.float32) for _ in range(3)]
        )
        pairs = component_pairs(3)
        naive = None
        for i, j in pairs:
            prod = np.matmul(a_terms[i - 1], b_terms[j - 1])
            naive = prod if naive is None else naive + prod
        for mode in ("batched", "loop"):
            with fused_mode(mode):
                out = fused_pair_products(a_terms, b_terms, pairs)
            np.testing.assert_array_equal(
                out.view(np.uint32), naive.view(np.uint32)
            )

    def test_fused_result_is_not_a_workspace_buffer(self, rng):
        from repro.blas.split import component_pairs

        a_terms = np.stack(
            [rng.standard_normal((3, 4)).astype(np.float32) for _ in range(2)]
        )
        b_terms = np.stack(
            [rng.standard_normal((4, 3)).astype(np.float32) for _ in range(2)]
        )
        pairs = component_pairs(2)
        out1 = fused_pair_products(a_terms, b_terms, pairs).copy()
        out2 = fused_pair_products(a_terms, b_terms, pairs)
        np.testing.assert_array_equal(out1, out2)  # second call didn't clobber


class TestOperandHandle:
    def test_handle_shape_tracks_trans(self, rng):
        x = rng.standard_normal((3, 7)).astype(np.float32)
        h = operand_handle(x, "T", np.float32)
        assert h.shape == (7, 3)

    def test_split_gemm_real_accepts_plans(self, rng):
        from repro.blas.split import split_gemm_real, split_gemm_reference

        a = rng.standard_normal((6, 10)).astype(np.float32)
        b = rng.standard_normal((10, 4)).astype(np.float32)
        ref = split_gemm_reference(a, b, Precision.BF16, 3)
        out = split_gemm_real(prepare(a), prepare(b), Precision.BF16, 3)
        np.testing.assert_array_equal(out.view(np.uint32), ref.view(np.uint32))


class TestSplitExtension:
    """Escalation-path caching: shorter splits extend, never recompute."""

    def _counts(self, t, result, mode):
        return t.counter_value("blas.plan.split", result=result, mode=mode, site="-")

    def test_extension_is_bitwise_equal_to_from_scratch(self, rng):
        from repro.blas.rounding import split_terms

        x = rng.standard_normal((9, 13)).astype(np.float32)
        plan = PreparedOperand(x)
        plan.split_stack("N", 7, 1)
        extended = plan.split_stack("N", 7, 3)  # extends the 1-term split
        cold = split_terms(x, 7, 3)
        for i in range(3):
            np.testing.assert_array_equal(extended[i], cold[i])

    def test_counters_hit_extend_full(self, rng):
        from repro.telemetry.registry import disable, enable

        x = rng.standard_normal((6, 6)).astype(np.float32)
        plan = PreparedOperand(x)
        t = enable()
        try:
            plan.split_stack("N", 7, 1)   # full
            plan.split_stack("N", 7, 2)   # extend from 1-term
            plan.split_stack("N", 7, 2)   # hit
            plan.split_stack("N", 7, 3)   # extend from 2-term
            plan.split_stack("N", 10, 1)  # different keep_bits: full
        finally:
            disable()
        assert self._counts(t, "full", "bf16") == 1
        assert self._counts(t, "extend", "bf16x2") == 1
        assert self._counts(t, "hit", "bf16x2") == 1
        assert self._counts(t, "extend", "bf16x3") == 1
        assert self._counts(t, "full", "tf32") == 1

    def test_escalate_demote_escalate_cycle_hits_cache(self, rng):
        """The adaptive scheduler's round trip must be all cache hits.

        BF16 -> BF16X2 (escalate) -> BF16 (demote) -> BF16X2
        (re-escalate): after the first escalation every request is
        served from cache — demotion uses the prefix of the wider
        split, re-escalation finds the wider split still cached.
        """
        from repro.telemetry.registry import disable, enable

        x = rng.standard_normal((8, 8)).astype(np.float32)
        plan = PreparedOperand(x)
        t = enable()
        try:
            first = plan.split_stack("N", 7, 1)    # BF16: full
            wide = plan.split_stack("N", 7, 2)     # escalate: extend
            demoted = plan.split_stack("N", 7, 1)  # demote: hit
            again = plan.split_stack("N", 7, 2)    # re-escalate: hit
        finally:
            disable()
        assert demoted is first and again is wide
        assert self._counts(t, "full", "bf16") == 1
        assert self._counts(t, "extend", "bf16x2") == 1
        assert self._counts(t, "hit", "bf16") == 1
        assert self._counts(t, "hit", "bf16x2") == 1
        np.testing.assert_array_equal(wide[0], first[0])  # prefix property

    def test_invalidated_counter_name(self, rng):
        from repro.telemetry.registry import disable, enable

        x = rng.standard_normal((4, 4)).astype(np.float32)
        plan = PreparedOperand(x)
        plan.split_stack("N", 7, 2)
        t = enable()
        try:
            plan.invalidate()
        finally:
            disable()
        assert t.counter_value("blas.plan.invalidated") == 1.0
