"""PageRank over the tiled SpMV path.

PageRank's iterate is dense (every vertex holds rank mass), so this is
the SpMV regime the TileSpMV baseline targets — including it exercises
the dense-vector path of the tiled kernels and gives the benchmark
suite a dense-iterate contrast to BFS's sparse frontiers.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.spmspv import TileSpMSpV
from ..errors import ShapeError
from ..gpusim import Device
from ..runtime import PlanCache

__all__ = ["pagerank"]


def pagerank(matrix, damping: float = 0.85, tol: float = 1e-10,
             max_iter: int = 200, nt: int = 16,
             device: Optional[Device] = None
             ) -> Tuple[np.ndarray, int]:
    """Power-iteration PageRank.

    Edge convention matches the library (``A[i, j]`` is ``j -> i``), so
    one iterate is ``r' = d * A D^{-1} r + (1 - d)/n`` with ``D`` the
    diagonal of *column weight sums* (total out-edge weight per
    vertex); dangling mass is redistributed uniformly.

    Edge weights are respected: vertex ``j`` spreads its rank to its
    out-neighbours proportionally to ``A[i, j]``, matching
    ``networkx.pagerank`` on weighted digraphs.  The matrix is
    canonicalized first, so duplicate COO entries merge into one edge
    (instead of inflating the degree) and explicit-zero edges do not
    make a dangling vertex look non-dangling.

    Returns ``(ranks, iterations)``; ``ranks`` sums to 1.
    """
    from ..formats.base import SparseMatrix
    from ..formats.coo import COOMatrix

    if not (0.0 < damping < 1.0):
        raise ShapeError(f"damping must be in (0, 1), got {damping}")
    if isinstance(matrix, SparseMatrix):
        coo = matrix.to_coo()
    else:
        coo = COOMatrix.from_dense(np.asarray(matrix))
    if coo.shape[0] != coo.shape[1]:
        raise ShapeError(f"pagerank requires a square matrix, "
                         f"got {coo.shape}")
    n = coo.shape[0]
    if n == 0:
        return np.zeros(0), 0

    coo = coo.canonicalize().drop_zeros()
    out_weight = np.zeros(n, dtype=np.float64)
    np.add.at(out_weight, coo.col, coo.val.astype(np.float64))
    dangling = out_weight == 0
    inv_weight = np.where(dangling, 0.0,
                          1.0 / np.where(dangling, 1.0, out_weight))
    # column-normalised transition matrix P = A D^{-1}
    P = COOMatrix(coo.shape, coo.row, coo.col,
                  coo.val * inv_weight[coo.col])
    # P is built per call, so its plan can never be hit again: keep it
    # out of the process-wide cache
    op = TileSpMSpV(P, nt=nt, device=device, plan_cache=PlanCache())

    r = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for it in range(1, max_iter + 1):
        spread = op.multiply(r, output="dense")
        dangling_mass = r[dangling].sum() / n
        r_new = damping * (spread + dangling_mass) + teleport
        delta = np.abs(r_new - r).sum()
        r = r_new
        if delta < tol:
            break
    return r / r.sum(), it
