"""``remap_occ`` — occupation remapping and the excited-electron count.

"Nexc is computed through a BLAS call in function remap_occ and is
based on a matrix-matrix multiplication" (Section V-A); Table VII
pins the GEMM shape for the 40-atom system: ``m = 128`` (the number of
doubly-occupied orbitals), ``n = N_orb - 128`` (the virtual block) and
``k = 64^3`` (the mesh).

The calculation projects the time-evolved, initially-occupied orbitals
onto the initial *virtual* manifold:

    P = Psi_occ^H(t) Psi0_virt dV   cgemm  (N_occ, N_virt, N_grid)  [big]
    Q = Psi0_occ^H Psi_occ(t) dV    cgemm  (N_occ, N_occ, N_grid)   [big]
    W = P P^H                       cgemm  (N_occ, N_occ, N_virt)   [small]

``nexc = sum_i f_i sum_a |P_ia|^2`` — occupation leaked into the
virtuals; ``Q`` gives the remapped occupation of each initial orbital
(and a completeness check: diag(Q Q^H) + diag(W) ~ 1 per orbital for a
unitary propagation); ``W``'s diagonal is the per-orbital excitation.

``Psi0`` is frozen for a whole SCF block, so a caller that runs many
steps builds the prepared plans of its two column blocks once
(:func:`prepare_psi0_blocks`) and hands them to every :func:`remap_occ`
call: their split terms are then derived once per block, not per step.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.blas.gemm import call_site, gemm
from repro.blas.plan import PreparedOperand
from repro.dcmesh.mesh import Mesh

__all__ = ["RemapResult", "prepare_psi0_blocks", "remap_occ"]


@dataclasses.dataclass(frozen=True)
class RemapResult:
    """Occupation-remap outputs for one QD step."""

    nexc: float                 #: number of excited electrons
    occ_remapped: np.ndarray    #: occupation carried by each initial occupied orbital
    per_orbital_exc: np.ndarray #: excitation per (initially occupied) orbital
    p_shape: tuple              #: (m, n, k) of the headline GEMM (Table VII)


def _n_occupied(occupations: np.ndarray) -> int:
    return int(np.count_nonzero(np.asarray(occupations, dtype=np.float64) > 0))


def prepare_psi0_blocks(
    psi0: np.ndarray, occupations: np.ndarray
) -> Tuple[PreparedOperand, PreparedOperand]:
    """Plans of the occupied ``psi0[:, :n_occ]`` and virtual
    ``psi0[:, n_occ:]`` column blocks, for reuse across
    :func:`remap_occ` calls while ``psi0`` stays unchanged."""
    psi0 = np.asarray(psi0)
    n_occ = _n_occupied(occupations)
    return PreparedOperand(psi0[:, :n_occ]), PreparedOperand(psi0[:, n_occ:])


def remap_occ(
    psi: np.ndarray,
    psi0: np.ndarray,
    occupations: np.ndarray,
    mesh: Mesh,
    *,
    psi0_blocks: Optional[Tuple[PreparedOperand, PreparedOperand]] = None,
) -> RemapResult:
    """Remap final wavefunctions to occupation numbers.

    Parameters
    ----------
    psi:
        Propagating orbitals ``(N_grid, N_orb)`` at LFD precision.
    psi0:
        SCF reference orbitals, same shape/precision.
    occupations:
        Reference occupations (2.0 for the first ``N_occ`` columns).
    psi0_blocks:
        Optional :func:`prepare_psi0_blocks` plans of ``psi0``; used in
        place of slicing ``psi0`` (results are bitwise identical).
    """
    psi = np.asarray(psi)
    psi0 = np.asarray(psi0)
    if psi.shape != psi0.shape:
        raise ValueError(f"psi {psi.shape} and psi0 {psi0.shape} differ")
    f = np.asarray(occupations, dtype=np.float64)
    n_orb = psi.shape[1]
    n_occ = _n_occupied(f)
    if n_occ == 0 or n_occ >= n_orb:
        raise ValueError(
            f"remap_occ needs both occupied and virtual orbitals, got "
            f"{n_occ} occupied of {n_orb}"
        )
    dv = mesh.dv
    f_occ = f[:n_occ]

    if psi0_blocks is None:
        psi0_occ, psi0_virt = psi0[:, :n_occ], psi0[:, n_occ:]
    else:
        psi0_occ, psi0_virt = psi0_blocks
        if psi0_occ.array.shape != (psi.shape[0], n_occ) or (
            psi0_virt.array.shape != (psi.shape[0], n_orb - n_occ)
        ):
            raise ValueError(
                f"psi0_blocks {psi0_occ.array.shape} + {psi0_virt.array.shape} "
                f"do not split psi0 {psi0.shape} at n_occ={n_occ}"
            )
    # One plan for psi(t)'s occupied block serves both GEMMs (op(A) in
    # P, B in Q); it lives for this call only.
    psi_occ = PreparedOperand(psi[:, :n_occ])

    with call_site("remap_occ"):
        # Table VII shape: (m=N_occ, n=N_virt, k=N_grid).
        p = gemm(psi_occ, psi0_virt, trans_a="C", alpha=dv)
        # Remapped occupations of the initial occupied manifold.
        q = gemm(psi0_occ, psi_occ, trans_a="C", alpha=dv)
        # Per-orbital excitation matrix (small).
        w = gemm(p, p, trans_b="C")

    per_orbital = f_occ * np.real(np.diagonal(w))
    nexc = float(per_orbital.sum())
    occ_remapped = f_occ * np.real(np.sum(np.abs(q) ** 2, axis=0))
    return RemapResult(
        nexc=nexc,
        occ_remapped=occ_remapped,
        per_orbital_exc=per_orbital,
        p_shape=(n_occ, n_orb - n_occ, psi.shape[0]),
    )
