"""Block propagation algorithms on top of the SpMM operator.

These are the workloads the SpMM regime exists for: many dense columns
pushed through one sparse matrix per iteration.

* :func:`multi_pagerank` — ``B`` personalized PageRank vectors (one
  per personalization column / seed vertex) advanced together; each
  iteration is a single :class:`~repro.core.spmm.TileSpMM` block
  multiply instead of ``B`` SpMV calls, so the matrix streams once.
* :func:`label_propagation` — semi-supervised label spreading: a
  one-hot seed block of ``L`` label columns is propagated through the
  column-normalised adjacency until the per-vertex ``argmax`` label
  assignment stabilises.

Both reuse :func:`~repro.graphs.pagerank.pagerank`'s conventions
exactly: ``A[i, j]`` is edge ``j -> i``, the transition matrix is the
column-weight-normalised ``P = A D^{-1}``, and duplicate / explicit-zero
entries are canonicalized away before degrees are computed.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..core.spmm import TileSpMM
from ..errors import ShapeError
from ..gpusim import Device
from ..runtime import PlanCache

__all__ = ["multi_pagerank", "label_propagation"]


def _normalized_transition(matrix):
    """``(P, dangling, n)``: the column-stochastic transition matrix,
    the dangling-vertex mask, and the vertex count — the exact
    preprocessing :func:`~repro.graphs.pagerank.pagerank` performs."""
    from ..formats.base import SparseMatrix
    from ..formats.coo import COOMatrix

    if isinstance(matrix, SparseMatrix):
        coo = matrix.to_coo()
    else:
        coo = COOMatrix.from_dense(np.asarray(matrix))
    if coo.shape[0] != coo.shape[1]:
        raise ShapeError(f"propagation requires a square matrix, "
                         f"got {coo.shape}")
    n = coo.shape[0]
    coo = coo.canonicalize().drop_zeros()
    out_weight = np.zeros(n, dtype=np.float64)
    np.add.at(out_weight, coo.col, coo.val.astype(np.float64))
    dangling = out_weight == 0
    inv_weight = np.where(dangling, 0.0,
                          1.0 / np.where(dangling, 1.0, out_weight))
    P = COOMatrix(coo.shape, coo.row, coo.col,
                  coo.val * inv_weight[coo.col])
    return P, dangling, n


def _personalization_block(personalization, n: int) -> np.ndarray:
    """Coerce seeds / columns to a column-stochastic ``(n, B)`` block."""
    p = np.asarray(personalization)
    if p.ndim == 1 and p.dtype.kind in "iu":
        # seed vertices: one personalization column per seed
        V = np.zeros((n, len(p)), dtype=np.float64)
        for j, s in enumerate(p):
            if not (0 <= int(s) < n):
                raise ShapeError(f"seed vertex {int(s)} out of range "
                                 f"for n={n}")
            V[int(s), j] = 1.0
        return V
    V = p.astype(np.float64, copy=True)
    if V.ndim == 1:
        V = V[:, None]
    if V.ndim != 2 or V.shape[0] != n:
        raise ShapeError(f"personalization block must be (n={n}, B), "
                         f"got shape {V.shape}")
    sums = V.sum(axis=0)
    if np.any(sums <= 0):
        raise ShapeError("every personalization column needs positive "
                         "total mass")
    return V / sums


def multi_pagerank(matrix, personalization,
                   damping: float = 0.85, tol: float = 1e-10,
                   max_iter: int = 200, nt: int = 16,
                   device: Optional[Device] = None,
                   ) -> Tuple[np.ndarray, int]:
    """``B`` personalized PageRank columns in one SpMM per iteration.

    Parameters
    ----------
    matrix:
        Square adjacency (``A[i, j]`` = edge ``j -> i``); weights are
        respected as in :func:`~repro.graphs.pagerank.pagerank`.
    personalization:
        Either an integer array of seed vertices (one one-hot column
        per seed) or an ``(n, B)`` array of non-negative columns
        (normalised to sum to 1).
    damping, tol, max_iter, nt, device:
        As in :func:`~repro.graphs.pagerank.pagerank`; ``tol`` is the
        per-column L1 convergence threshold and iteration stops when
        **every** column has converged.

    Returns ``(R, iterations)`` where ``R`` is ``(n, B)`` and every
    column sums to 1.  With a single uniform personalization column
    this computes exactly :func:`~repro.graphs.pagerank.pagerank`'s
    iterate (same fold, per column).
    """
    if not (0.0 < damping < 1.0):
        raise ShapeError(f"damping must be in (0, 1), got {damping}")
    P, dangling, n = _normalized_transition(matrix)
    if n == 0:
        return np.zeros((0, 1)), 0
    V = _personalization_block(personalization, n)
    B = V.shape[1]
    op = TileSpMM(P, nt=nt, device=device, plan_cache=PlanCache())

    R = V.copy()
    it = 0
    for it in range(1, max_iter + 1):
        spread = op.multiply_block(R, output="dense",
                                   tag=f"pr_iter={it}")
        dangling_mass = R[dangling].sum(axis=0)
        R_new = damping * (spread + dangling_mass[None, :] * V) \
            + (1.0 - damping) * V
        delta = np.abs(R_new - R).sum(axis=0)
        R = R_new
        if float(delta.max()) < tol:
            break
    return R / R.sum(axis=0), it


def label_propagation(matrix, seeds,
                      max_iter: int = 100, nt: int = 16,
                      device: Optional[Device] = None,
                      ) -> Tuple[np.ndarray, int]:
    """Semi-supervised label spreading through one SpMM per iteration.

    Parameters
    ----------
    matrix:
        Square adjacency (``A[i, j]`` = edge ``j -> i``): label mass
        flows along edges from ``j`` to ``i``.
    seeds:
        Length-``n`` integer array: label id per seeded vertex, ``-1``
        for unlabelled.  Labels are re-indexed densely into the block's
        columns.
    max_iter, nt, device:
        Iteration cap and the SpMM engine's tile size / device.

    The seed rows are clamped back to their one-hot rows after every
    multiply (the hard-clamp variant), and iteration stops as soon as
    the per-vertex ``argmax`` assignment is stable.  Returns
    ``(labels, iterations)``; vertices no label mass ever reaches keep
    ``-1``.
    """
    P, _dangling, n = _normalized_transition(matrix)
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.shape != (n,):
        raise ShapeError(f"seeds must be a length-{n} label array, "
                         f"got shape {seeds.shape}")
    seeded = np.flatnonzero(seeds >= 0)
    if seeded.size == 0:
        raise ShapeError("label propagation needs at least one seed")
    label_ids = np.unique(seeds[seeded])
    L = len(label_ids)
    col_of = {int(lab): j for j, lab in enumerate(label_ids)}

    Y = np.zeros((n, L), dtype=np.float64)
    for v in seeded:
        Y[v, col_of[int(seeds[v])]] = 1.0
    clamp = Y[seeded].copy()

    op = TileSpMM(P, nt=nt, device=device, plan_cache=PlanCache())
    reached = Y.any(axis=1)
    labels = np.where(reached, np.argmax(Y, axis=1), -1)
    it = 0
    for it in range(1, max_iter + 1):
        Y = op.multiply_block(Y, output="dense", tag=f"lp_iter={it}")
        Y[seeded] = clamp
        reached = Y.any(axis=1)
        new_labels = np.where(reached, np.argmax(Y, axis=1), -1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    out = np.where(labels >= 0, label_ids[np.maximum(labels, 0)], -1)
    return out, it
