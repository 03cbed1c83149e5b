"""Bit-exact FP32 -> BF16 / TF32 rounding and multi-term splitting.

These are the primitives behind oneMKL's ``FLOAT_TO_BF16{,X2,X3}`` and
``FLOAT_TO_TF32`` compute modes.  Both target formats share FP32's
8-bit exponent, so converting is purely a mantissa truncation with
round-to-nearest-even (RNE), which we perform directly on the IEEE-754
bit patterns:

* BF16 keeps the top 7 of FP32's 23 mantissa bits (drops 16),
* TF32 keeps the top 10 (drops 13).

The RNE-on-bits trick: for ``d`` dropped bits, add ``2^(d-1) - 1`` plus
the guard bit (bit ``d`` of the original), then clear the low ``d``
bits.  Mantissa overflow carries into the exponent, which is exactly
IEEE round-up behaviour.  Since the exponent field width is unchanged,
denormals and the finite range are handled for free; Inf/NaN inputs are
passed through untouched.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.types import MANTISSA_BITS, Precision

__all__ = [
    "round_mantissa",
    "round_fp32_to_bf16",
    "round_fp32_to_tf32",
    "round_to_precision",
    "split_terms",
    "split_terms_residual",
    "extend_split",
    "split_bf16",
    "split_tf32",
    "ozaki_slice_terms",
    "emulated_fp64_split_terms",
    "max_relative_error",
    "ozaki_max_relative_error",
]

#: Bits per Ozaki INT8 slice: 7 magnitude bits (slices are truncated
#: towards zero, so every slice value fits the signed-int8 range
#: [-127, 127] with the sign carried separately by the float).
OZAKI_SLICE_BITS = 7

_FP32_MANTISSA = 23


def _checked_out(out, shape, dtype) -> np.ndarray:
    """``out`` validated as a writable ``shape``/``dtype`` array, or a fresh one."""
    if out is None:
        return np.empty(shape, dtype=dtype)
    if out.shape != tuple(shape) or out.dtype != dtype:
        raise ValueError(
            f"out must be a {np.dtype(dtype).name} array of shape {tuple(shape)}, "
            f"got {out.dtype.name} {out.shape}"
        )
    return out


def round_mantissa(
    x: np.ndarray, keep_bits: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Round FP32 array ``x`` to ``keep_bits`` mantissa bits with RNE.

    Returns a *float32* array whose values are exactly representable in
    the reduced format (low ``23 - keep_bits`` mantissa bits are zero).
    The exponent range is unchanged (8 bits), matching BF16 and TF32.

    Parameters
    ----------
    x:
        Array convertible to ``float32``.  Inputs of other float widths
        are first cast to FP32 (itself an RNE rounding), mirroring what
        happens when data is handed to an FP32 BLAS call.  Strided
        float32 views are read in place.
    keep_bits:
        Number of explicit mantissa bits to retain, in ``[0, 23]``.
    out:
        Optional float32 array of ``x``'s shape (any strides) that
        receives the result; it must not overlap ``x``.  Without it a
        fresh C-contiguous array is returned.
    """
    if not 0 <= keep_bits <= _FP32_MANTISSA:
        raise ValueError(f"keep_bits must be in [0, 23], got {keep_bits}")
    x32 = np.asarray(x, dtype=np.float32)
    out = _checked_out(out, x32.shape, np.float32)
    if np.may_share_memory(out, x32):
        raise ValueError("round_mantissa: out must not overlap x")
    if keep_bits == _FP32_MANTISSA:
        np.copyto(out, x32)
        return out
    drop = _FP32_MANTISSA - keep_bits
    u = x32.view(np.uint32)
    o = out.view(np.uint32)
    # All shift/mask constants as np.uint32: mixing Python ints into
    # uint32 ops relies on NumPy's value-based casting, which NumPy >= 2
    # (NEP 50) resolves differently (and loudly) — keep every operand in
    # the array's dtype so the arithmetic is unambiguous and warning-free.
    half = np.uint32((1 << (drop - 1)) - 1)
    keep_mask = np.uint32((0xFFFFFFFF << drop) & 0xFFFFFFFF)
    # o = (u + half + guard) & keep_mask, one in-place pass per step.
    # The sum wraps (mod 2^32) only for Inf/NaN patterns; for every
    # finite input it stays in range and a mantissa overflow carries
    # into the exponent — exactly IEEE round-up (see the regression
    # test at the all-ones-mantissa boundary).
    np.right_shift(u, np.uint32(drop), out=o)
    np.bitwise_and(o, np.uint32(1), out=o)
    np.add(o, half, out=o)
    np.add(o, u, out=o)
    np.bitwise_and(o, keep_mask, out=o)
    # Inf (zero mantissa, zero guard bit) survives the masked add
    # unchanged; NaN patterns do not, so restore them from the input.
    nan = np.isnan(x32)
    if nan.any():
        np.copyto(o, u, where=nan)
    return out


def round_fp32_to_bf16(x: np.ndarray) -> np.ndarray:
    """Round to BF16 (7 mantissa bits), result stored in FP32."""
    return round_mantissa(x, MANTISSA_BITS[Precision.BF16])


def round_fp32_to_tf32(x: np.ndarray) -> np.ndarray:
    """Round to TF32 (10 mantissa bits), result stored in FP32."""
    return round_mantissa(x, MANTISSA_BITS[Precision.TF32])


def round_to_precision(x: np.ndarray, precision: Precision) -> np.ndarray:
    """Round FP32 data to ``precision``'s grid, keeping an FP32 carrier."""
    if precision in (Precision.FP32, Precision.FP64):
        return np.ascontiguousarray(x, dtype=np.float32)
    if precision is Precision.FP16:
        # FP16 narrows the exponent too; round-trip through the dtype.
        # Out-of-range values overflow to inf by design (IEEE behaviour).
        with np.errstate(over="ignore"):
            return np.asarray(x, dtype=np.float16).astype(np.float32)
    try:
        keep = MANTISSA_BITS[precision]
    except KeyError:
        raise ValueError(f"cannot round to {precision}") from None
    return round_mantissa(x, keep)


def split_terms(x: np.ndarray, keep_bits: int, n_terms: int) -> Tuple[np.ndarray, ...]:
    """Decompose FP32 ``x`` into ``n_terms`` reduced-precision components.

    Successive residual extraction: ``t1 = rnd(x)``, ``t2 = rnd(x - t1)``,
    ``t3 = rnd(x - t1 - t2)`` ... with residuals computed exactly in FP32
    (each subtraction is exact by Sterbenz-style cancellation whenever
    the rounding error is small relative to the operands, and at worst
    an FP32 rounding otherwise).  This is the decomposition oneMKL's
    ``FLOAT_TO_BF16X{2,3}`` modes use: ``x ~= t1 + t2 + t3`` with each
    term representable in BF16.
    """
    return split_terms_residual(x, keep_bits, n_terms)[0]


def split_terms_residual(
    x: np.ndarray, keep_bits: int, n_terms: int, out: Optional[np.ndarray] = None
) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """Like :func:`split_terms` but also return the final FP32 residual.

    The residual after ``n`` terms is the exact starting point for term
    ``n + 1``: because each term depends only on the running residual,
    the first ``n`` terms of an ``(n + k)``-term split are bitwise equal
    to the ``n``-term split (the prefix property
    :func:`extend_split` relies on).

    ``out`` is an optional float32 ``(n_terms, *x.shape)`` stack that
    receives the terms (returned as its rows); ``x`` may be any strided
    view.  One residual buffer is updated in place.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    residual = np.array(x, dtype=np.float32, order="C")
    out = _checked_out(out, (n_terms,) + residual.shape, np.float32)
    for t in out:
        round_mantissa(residual, keep_bits, out=t)
        np.subtract(residual, t, out=residual)
    return tuple(out), residual


def extend_split(
    terms: Sequence[np.ndarray],
    x: np.ndarray,
    keep_bits: int,
    extra_terms: int,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, ...]:
    """Append ``extra_terms`` more components to the split ``terms`` of ``x``.

    ``terms`` must be a split of ``x`` with the same ``keep_bits``.  The
    running residual is rebuilt from ``x`` by subtracting ``terms`` in
    order, the FP32 subtraction sequence :func:`split_terms_residual`
    runs, so the returned terms are bitwise identical to a from-scratch
    split of ``x`` with ``len(terms) + extra_terms`` terms.  Callers
    therefore need not keep a full-size residual beside every split.

    ``out`` is an optional float32 ``(len(terms) + extra_terms,
    *x.shape)`` stack: ``terms`` are copied into its leading rows and
    the new terms are rounded straight into the rest.
    """
    if extra_terms < 1:
        raise ValueError(f"extra_terms must be >= 1, got {extra_terms}")
    residual = np.array(x, dtype=np.float32, order="C")
    n_prev = len(terms)
    out = _checked_out(out, (n_prev + extra_terms,) + residual.shape, np.float32)
    for t, prev in zip(out, terms):
        np.copyto(t, prev)
        np.subtract(residual, t, out=residual)
    for t in out[n_prev:]:
        round_mantissa(residual, keep_bits, out=t)
        np.subtract(residual, t, out=residual)
    return tuple(out)


def split_bf16(x: np.ndarray, n_terms: int) -> Tuple[np.ndarray, ...]:
    """BF16 multi-term split (see :func:`split_terms`)."""
    return split_terms(x, MANTISSA_BITS[Precision.BF16], n_terms)


def split_tf32(x: np.ndarray, n_terms: int = 1) -> Tuple[np.ndarray, ...]:
    """TF32 multi-term split (see :func:`split_terms`)."""
    return split_terms(x, MANTISSA_BITS[Precision.TF32], n_terms)


def ozaki_slice_terms(
    x: np.ndarray, n_slices: int, axis: int, out: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, ...]:
    """Ozaki-scheme decomposition into scaled-INT8 slice terms.

    Every element of ``x`` is written as a sum of ``n_slices`` terms
    ``q_i * 2**(e - 7*(i+1))`` where ``q_i`` is an integer in
    ``[-127, 127]`` (an INT8 value) and ``e`` is a shared power-of-two
    exponent per 1-D fibre along ``axis`` — the *contraction* axis of
    the GEMM the terms feed (``axis=-1`` for the left operand's rows,
    ``axis=-2`` for the right operand's columns), so that every dot
    product in the output sees one fixed scale per (slice, slice) pair
    and the INT8xINT8 -> INT32 accumulation is exact.

    The terms are returned as *float64* arrays holding those exactly
    representable scaled integers: a float64 matmul of two such terms
    is then a bit-exact emulation of the integer tensor-core product
    (each scalar product is ``q * q' * 2**(...)`` with ``|q*q'| <=
    127**2 < 2**14``, and the k-fold sum stays far below ``2**53``).

    Exactness of the decomposition arithmetic itself: the fibre scale
    comes from ``np.frexp`` (exact; ``absmax < 2**e``), the running
    remainder is multiplied by powers of two (exact), and truncation /
    fractional-part extraction of a float64 below 128 is exact.  After
    ``s`` slices the unrepresented remainder of an element is below
    ``2**(e - 7s)``, i.e. below ``2**(1-7s)`` of its fibre's absmax.

    ``out`` is an optional float64 ``(n_slices, *x.shape)`` stack that
    receives the terms (returned as its rows); ``x`` may be any strided
    view.  The running remainder lives in one float64 buffer.
    """
    if n_slices < 1:
        raise ValueError(f"n_slices must be >= 1, got {n_slices}")
    r = np.array(x, dtype=np.float64, order="C")
    if r.ndim < 2:
        raise ValueError(f"ozaki_slice_terms needs >= 2-D input, got {r.ndim}-D")
    out = _checked_out(out, (n_slices,) + r.shape, np.float64)
    # |x| goes through the first slice's row as scratch.
    absmax = np.max(np.abs(r, out=out[0]), axis=axis, keepdims=True)
    # frexp: absmax = f * 2**e with f in [0.5, 1) -> absmax < 2**e and
    # the scale is an exact power of two (zero fibres get e = 0).
    _, e = np.frexp(absmax)
    np.ldexp(r, -e, out=r)              # |r| < 1, exact
    radix = float(1 << OZAKI_SLICE_BITS)
    for i, q in enumerate(out):
        np.multiply(r, radix, out=r)    # shifted: |r| < 128, exact
        np.trunc(r, out=q)              # integer slice, |q| <= 127
        np.subtract(r, q, out=r)        # exact fractional remainder
        np.ldexp(q, e - OZAKI_SLICE_BITS * (i + 1), out=q)
    return tuple(out)


def emulated_fp64_split_terms(
    x: np.ndarray, n_terms: int, out: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, ...]:
    """Decompose FP64 data into ``n_terms`` FP32-representable terms.

    Greedy residual extraction at FP32 granularity: ``t1 = fp32(x)``,
    ``t2 = fp32(x - t1)``, ... with the residuals computed exactly in
    FP64 (each term is exactly representable in FP64, and the
    subtraction cancels the shared leading bits).  Three 24-bit
    significands carry 72 > 53 bits, so for inputs within FP32's
    exponent range the three-term split is *exact* — the basis of the
    emulated-FP64 compute mode, where FP32-term pair products (each
    exact: 24+24 <= 53 bits) are accumulated in FP64.

    The terms are returned as float64 arrays holding FP32-representable
    values, ready for exact pair products under float64 matmul.
    ``out`` is an optional float64 ``(n_terms, *x.shape)`` stack that
    receives them (returned as its rows); ``x`` may be any strided view.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    residual = np.array(x, dtype=np.float64, order="C")
    out = _checked_out(out, (n_terms,) + residual.shape, np.float64)
    narrow = np.empty(residual.shape, dtype=np.float32)
    for t in out:
        np.copyto(narrow, residual, casting="same_kind")  # fp32(residual)
        np.copyto(t, narrow)                               # exact widening
        np.subtract(residual, t, out=residual)
    return tuple(out)


def max_relative_error(keep_bits: int) -> float:
    """Worst-case relative input error of rounding to ``keep_bits``.

    Section V-B of the paper: rounding off all but the lowest ``n``
    mantissa bits induces at most a ``2**-(n+1)`` relative perturbation
    of each (normal) input.
    """
    return 2.0 ** -(keep_bits + 1)


def ozaki_max_relative_error(n_slices: int) -> float:
    """Analytic relative-error level of an ``n_slices`` Ozaki GEMM.

    Each input element is represented to within ``2**(1 - 7s)`` of its
    fibre's absmax (see :func:`ozaki_slice_terms`), so a dot product
    carries a perturbation of roughly twice that relative to the
    ``k * rowmax * colmax`` scale: ``2**-(7s - 1)`` — ``2**-20`` at the
    default three slices, between BF16x2 and FP32 on the error ladder.
    """
    if n_slices < 1:
        raise ValueError(f"n_slices must be >= 1, got {n_slices}")
    return 2.0 ** -(OZAKI_SLICE_BITS * n_slices - 1)
