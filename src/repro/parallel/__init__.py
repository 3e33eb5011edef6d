"""Parallel multi-worker shard execution.

Runs the row-strip shards of a
:class:`~repro.shards.sharded_matrix.ShardedTiledMatrix` concurrently:
a cost-model work scheduler places shards on workers
(:mod:`repro.parallel.work`), a pool executor runs each worker's queue
as one in-order task against a private resident-set slice
(:mod:`repro.parallel.executor`), and the engine merges results as
they land — bit-identical to sequential execution, with the overlap
priced honestly on a
:class:`~repro.gpusim.MultiDeviceTimeline`.

Switched on by ``REPRO_WORKERS=N`` or an explicit
:class:`ParallelConfig` on any sharded operator.
"""

from .config import BACKEND_ENV, WORKERS_ENV, ParallelConfig, env_workers
from .executor import ParallelExecutor, ShardResult, WorkerSlice
from .work import WorkItem, WorkPlan, WorkScheduler

__all__ = [
    "ParallelConfig", "WORKERS_ENV", "BACKEND_ENV", "env_workers",
    "WorkScheduler", "WorkPlan", "WorkItem",
    "ParallelExecutor", "WorkerSlice", "ShardResult",
]
