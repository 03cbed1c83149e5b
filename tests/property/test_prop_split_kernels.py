"""Bitwise property tests for the in-place split kernels.

Every kernel in :mod:`repro.blas.rounding` that writes its terms
through ``out=`` must produce exactly the bits of the allocating
implementation it replaced.  That implementation is transcribed below
(``naive_*``): one fresh array per term, a fresh residual per term, a
C-contiguous copy of the input first.  Results are compared as
``uint32``/``uint64`` views, so signed zeros and NaN payloads count.

Inputs are adversarial on purpose — signed zeros, subnormals, values
already exact in BF16 (zero residuals), +-Inf, NaNs with payloads,
mantissa-all-ones and near-overflow values, and mixed magnitudes — and
are fed through the strided layouts the plan layer hands the kernels:
transposed views, ``.imag`` of complex64 and the negated imaginary part
of a conjugate transpose.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blas.plan import PreparedOperand, _op_view, _oriented
from repro.blas.rounding import (
    emulated_fp64_split_terms,
    extend_split,
    ozaki_slice_terms,
    round_mantissa,
    split_terms_residual,
)

_EXP_MASK = np.uint32(0x7F800000)

# -- naive allocating transcriptions (the pre-``out=`` kernels) ---------


def naive_round_mantissa(x, keep_bits):
    x32 = np.ascontiguousarray(x, dtype=np.float32)
    if keep_bits == 23:
        return x32.copy() if x32 is x else x32
    drop = 23 - keep_bits
    u = x32.view(np.uint32)
    half = np.uint32((1 << (drop - 1)) - 1)
    guard = (u >> np.uint32(drop)) & np.uint32(1)
    keep_mask = np.uint32((0xFFFFFFFF << drop) & 0xFFFFFFFF)
    rounded = (u + half + guard) & keep_mask
    special = (u & _EXP_MASK) == _EXP_MASK
    return np.where(special, u, rounded).view(np.float32)


def naive_split_terms_residual(x, keep_bits, n_terms):
    residual = np.ascontiguousarray(x, dtype=np.float32)
    terms = []
    for _ in range(n_terms):
        t = naive_round_mantissa(residual, keep_bits)
        terms.append(t)
        residual = residual - t
    return tuple(terms), residual


def naive_extend_split(terms, x, keep_bits, extra_terms):
    residual = np.ascontiguousarray(x, dtype=np.float32)
    for t in terms:
        residual = residual - t
    out = list(terms)
    for _ in range(extra_terms):
        t = naive_round_mantissa(residual, keep_bits)
        out.append(t)
        residual = residual - t
    return tuple(out)


def naive_ozaki_slice_terms(x, n_slices, axis):
    x64 = np.ascontiguousarray(x, dtype=np.float64)
    absmax = np.max(np.abs(x64), axis=axis, keepdims=True)
    _, e = np.frexp(absmax)
    r = np.ldexp(x64, -e)
    terms = []
    for i in range(n_slices):
        shifted = r * 128.0
        q = np.trunc(shifted)
        r = shifted - q
        terms.append(np.ldexp(q, e - 7 * (i + 1)))
    return tuple(terms)


def naive_emulated_fp64_split_terms(x, n_terms):
    residual = np.ascontiguousarray(x, dtype=np.float64)
    terms = []
    for _ in range(n_terms):
        t = residual.astype(np.float32).astype(np.float64)
        terms.append(t)
        residual = residual - t
    return tuple(terms)


def naive_part(x, trans, part):
    """The pre-view base: a contiguous copy of op(x) or of its part."""
    op = _oriented(x, trans)
    if part is not None:
        op = op.real if part == "re" else op.imag
    return np.ascontiguousarray(op)


# -- adversarial inputs in strided layouts ------------------------------


def adversarial_fp32(rng, shape):
    """Finite adversarial values plus the IEEE special patterns."""
    x = rng.standard_normal(shape).astype(np.float32)
    x *= np.exp2(rng.integers(-40, 41, size=shape)).astype(np.float32)
    u = x.reshape(-1).view(np.uint32)
    n = u.size

    def pick():
        return rng.integers(0, n, size=max(1, n // 10))

    def sign(size):
        return rng.integers(0, 2, size=size, dtype=np.uint32) << np.uint32(31)

    idx = pick()  # subnormals
    u[idx] = sign(idx.size) | rng.integers(1, 1 << 23, size=idx.size, dtype=np.uint32)
    idx = pick()  # signed zeros
    u[idx] = sign(idx.size)
    idx = pick()  # exact BF16 values: their residuals are zero
    u[idx] &= np.uint32(0xFFFF0000)
    idx = pick()  # mantissa all ones: RNE carries into the exponent
    u[idx] = (u[idx] & np.uint32(0xFF800000)) | np.uint32(0x007FFFFF)
    idx = pick()  # largest finite: rounds up to Inf
    u[idx] = sign(idx.size) | np.uint32(0x7F7FFFFF)
    idx = pick()  # +-Inf
    u[idx] = sign(idx.size) | _EXP_MASK
    idx = pick()  # NaNs with payloads, quiet and signalling
    u[idx] = (
        sign(idx.size)
        | _EXP_MASK
        | rng.integers(1, 1 << 23, size=idx.size, dtype=np.uint32)
    )
    return x


def finite_fp32(rng, shape):
    x = adversarial_fp32(rng, shape)
    x[~np.isfinite(x)] = np.float32(1.5)
    return x


def complex64_of(re, im):
    """Complex array with exactly these part bit patterns (``re + 1j*im``
    would turn an infinite part into a NaN in the other)."""
    z = np.empty(re.shape, np.complex64)
    z.real, z.imag = re, im
    return z


LAYOUTS = ("contig", "transposed", "imag", "imag_transposed", "neg_imag")


def layout_view(rng, m, k, layout, special=True):
    """An (m, k) float32 operand laid out as ``layout``."""
    make = adversarial_fp32 if special else finite_fp32
    if layout == "contig":
        return make(rng, (m, k))
    if layout == "transposed":
        return make(rng, (k, m)).T
    z = complex64_of(make(rng, (k, m)), make(rng, (k, m)))
    if layout == "imag":
        return z.T.copy().imag
    if layout == "imag_transposed":
        return z.T.imag
    return _op_view(z, "C", "im")  # np.negative of a transposed .imag


def assert_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    view = np.uint64 if got.dtype == np.float64 else np.uint32
    np.testing.assert_array_equal(got.view(view), ref.view(view))


dims = st.integers(min_value=1, max_value=9)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
layouts = st.sampled_from(LAYOUTS)
keep_bits = st.sampled_from([7, 10, 0, 22, 23])


@pytest.fixture(autouse=True)
def _quiet_fp():
    # Inf - Inf and the wrapped casts of specials warn identically in
    # both implementations; the bits are what is under test.
    with np.errstate(all="ignore"):
        yield


class TestRoundMantissa:
    @given(seeds, dims, dims, layouts, keep_bits)
    @settings(max_examples=60, deadline=None)
    def test_out_and_fresh_match_naive(self, seed, m, k, layout, keep):
        x = layout_view(np.random.default_rng(seed), m, k, layout)
        ref = naive_round_mantissa(x, keep)
        assert_bits(round_mantissa(x, keep), ref)
        stack = np.full((2, m, k), np.nan, dtype=np.float32)
        assert np.shares_memory(round_mantissa(x, keep, out=stack[1]), stack[1])
        assert_bits(stack[1], ref)

    def test_out_validation(self):
        x = np.ones((2, 3), np.float32)
        with pytest.raises(ValueError, match="out must be"):
            round_mantissa(x, 7, out=np.empty((3, 2), np.float32))
        with pytest.raises(ValueError, match="out must be"):
            round_mantissa(x, 7, out=np.empty((2, 3), np.float64))
        with pytest.raises(ValueError, match="overlap"):
            round_mantissa(x, 7, out=x)


class TestSplitKernels:
    @given(seeds, dims, dims, layouts, st.integers(1, 4), keep_bits)
    @settings(max_examples=60, deadline=None)
    def test_split_terms_residual(self, seed, m, k, layout, n_terms, keep):
        x = layout_view(np.random.default_rng(seed), m, k, layout)
        ref_terms, ref_resid = naive_split_terms_residual(x, keep, n_terms)
        stack = np.empty((n_terms, m, k), np.float32)
        terms, resid = split_terms_residual(x, keep, n_terms, out=stack)
        assert_bits(stack, np.stack(ref_terms))
        assert_bits(np.stack(terms), np.stack(ref_terms))
        assert_bits(resid, ref_resid)
        fresh, _ = split_terms_residual(x, keep, n_terms)
        assert_bits(np.stack(fresh), np.stack(ref_terms))

    @given(seeds, dims, dims, layouts, st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_extend_split(self, seed, m, k, layout, n_prev, extra):
        x = layout_view(np.random.default_rng(seed), m, k, layout)
        prev = naive_split_terms_residual(x, 7, n_prev)[0]
        ref = naive_extend_split(prev, x, 7, extra)
        stack = np.empty((n_prev + extra, m, k), np.float32)
        extend_split(np.stack(prev), x, 7, extra, out=stack)
        assert_bits(stack, np.stack(ref))
        assert_bits(np.stack(extend_split(prev, x, 7, extra)), np.stack(ref))
        # ...and the extension equals a from-scratch split.
        scratch = naive_split_terms_residual(x, 7, n_prev + extra)[0]
        assert_bits(stack, np.stack(scratch))

    @given(seeds, dims, dims, layouts, st.integers(1, 4), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_ozaki_slice_terms(self, seed, m, k, layout, n_slices, special):
        x = layout_view(np.random.default_rng(seed), m, k, layout, special=special)
        for axis in (-1, -2):
            ref = naive_ozaki_slice_terms(x, n_slices, axis)
            stack = np.empty((n_slices, m, k), np.float64)
            ozaki_slice_terms(x, n_slices, axis=axis, out=stack)
            assert_bits(stack, np.stack(ref))
            fresh = ozaki_slice_terms(x, n_slices, axis=axis)
            assert_bits(np.stack(fresh), np.stack(ref))

    @given(seeds, dims, dims, layouts, st.integers(1, 3), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_emulated_fp64_split_terms(self, seed, m, k, layout, n_terms, wide):
        rng = np.random.default_rng(seed)
        x = layout_view(rng, m, k, layout)
        if wide:
            # FP64 data below FP32's precision: every term is non-zero.
            x = x.astype(np.float64) * (1.0 + rng.standard_normal((m, k)) * 2**-30)
        ref = naive_emulated_fp64_split_terms(x, n_terms)
        stack = np.empty((n_terms, m, k), np.float64)
        emulated_fp64_split_terms(x, n_terms, out=stack)
        assert_bits(stack, np.stack(ref))
        assert_bits(np.stack(emulated_fp64_split_terms(x, n_terms)), np.stack(ref))

    def test_stack_shape_validated(self):
        x = np.ones((2, 3), np.float32)
        with pytest.raises(ValueError, match="out must be"):
            split_terms_residual(x, 7, 2, out=np.empty((3, 2, 3), np.float32))
        with pytest.raises(ValueError, match="out must be"):
            ozaki_slice_terms(x, 2, axis=-1, out=np.empty((2, 2, 3), np.float32))


class TestPlanStacksFromViews:
    """The plan's stacks, built from strided views of op(A), equal the
    naive kernels run on the contiguous ``oriented``/``part`` copies the
    plan used to build first."""

    @given(seeds, dims, dims, st.sampled_from("NTC"), st.sampled_from(["re", "im"]))
    @settings(max_examples=40, deadline=None)
    def test_complex_part_stacks(self, seed, m, k, trans, part):
        rng = np.random.default_rng(seed)
        z = complex64_of(adversarial_fp32(rng, (m, k)), adversarial_fp32(rng, (m, k)))
        base = naive_part(z, trans, part)
        assert_bits(_op_view(z, trans, part), base)
        plan = PreparedOperand(z)
        cdt = np.complex64
        assert_bits(
            plan.split_stack(trans, 7, 3, part=part, dtype=cdt),
            np.stack(naive_split_terms_residual(base, 7, 3)[0]),
        )
        for operand, axis in (("a", -1), ("b", -2)):
            assert_bits(
                plan.ozaki_stack(trans, 3, part=part, operand=operand, dtype=cdt),
                np.stack(naive_ozaki_slice_terms(base, 3, axis)),
            )
        assert_bits(
            plan.efp64_stack(trans, 1, part=part, dtype=cdt),
            np.stack(naive_emulated_fp64_split_terms(base, 1)),
        )
        assert not any(key[0] in ("oriented", "part") for key in plan._derived)

    @given(seeds, dims, dims, st.sampled_from("NTC"))
    @settings(max_examples=30, deadline=None)
    def test_real_stacks(self, seed, m, k, trans):
        x = adversarial_fp32(np.random.default_rng(seed), (m, k))
        base = naive_part(x, trans, None)
        plan = PreparedOperand(x)
        assert_bits(
            plan.split_stack(trans, 10, 2),
            np.stack(naive_split_terms_residual(base, 10, 2)[0]),
        )
        wide = naive_part(x.astype(np.float64), trans, None)
        assert_bits(
            plan.efp64_stack(trans, 3, dtype=np.float64),
            np.stack(naive_emulated_fp64_split_terms(wide, 3)),
        )
