"""Parallel execution configuration and the ``REPRO_WORKERS`` switch.

Worker-pool shard execution is off by default; it turns on either
explicitly (pass a :class:`ParallelConfig` — or a plain worker count —
to any sharded operator) or globally via environment variables:

* ``REPRO_WORKERS=N`` — run sharded multiplies on ``N`` workers.
* ``REPRO_WORKERS_BACKEND=serial|thread|process`` — pin the pool
  backend (default ``auto``).

``auto`` resolves per store: in-memory shard stores get the ``thread``
backend (shards are already in RAM; a process pool would only pay
pickling), directory-backed stores get ``process`` when the platform
can ``fork`` (each worker re-attaches the mmap directory itself —
real page-in parallelism), falling back to ``thread`` otherwise.
``serial`` runs the same worker decomposition on the calling thread in
deterministic order — the reference the other backends are checked
against, and what a single worker always uses.

Both variables are read per call (like ``REPRO_FASTPATH``), so tests
monkeypatch ``os.environ`` without reload tricks.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Optional, Union

__all__ = ["ParallelConfig", "WORKERS_ENV", "BACKEND_ENV",
           "env_workers"]

WORKERS_ENV = "REPRO_WORKERS"
BACKEND_ENV = "REPRO_WORKERS_BACKEND"

_BACKENDS = ("auto", "serial", "thread", "process")


def env_workers() -> int:
    """The ``REPRO_WORKERS`` worker count (1 when unset/garbage)."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _env_backend() -> str:
    raw = os.environ.get(BACKEND_ENV, "auto").strip().lower()
    return raw if raw in _BACKENDS else "auto"


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass(frozen=True)
class ParallelConfig:
    """How a sharded operator spreads its shards over workers.

    Parameters
    ----------
    workers:
        Worker (simulated device) count; ``1`` disables the pool
        entirely — the engine runs its classic sequential loop.
    backend:
        ``auto`` / ``serial`` / ``thread`` / ``process``; see module
        docstring for how ``auto`` resolves.
    affinity:
        Keep a shard sticky to the worker that last ran it (its slice
        of the resident set already holds the pages), stealing only
        when the sticky worker is overloaded by more than the shard's
        own cost estimate.
    """

    workers: int = 1
    backend: str = "auto"
    affinity: bool = True

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.backend not in _BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; "
                             f"expected one of {_BACKENDS}")

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls) -> "ParallelConfig":
        """The ambient configuration (``REPRO_WORKERS`` et al.)."""
        return cls(workers=env_workers(), backend=_env_backend())

    @classmethod
    def coerce(cls, value: Union[None, int, "ParallelConfig"]
               ) -> "ParallelConfig":
        """Normalise an operator's ``parallel=`` argument.

        ``None`` reads the environment, an ``int`` is a worker count
        with default knobs, a config passes through.
        """
        if value is None:
            return cls.from_env()
        if isinstance(value, ParallelConfig):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return cls(workers=value)
        raise TypeError(f"parallel must be None, an int worker count, "
                        f"or a ParallelConfig, got {value!r}")

    def resolved_backend(self, store=None) -> str:
        """The concrete backend for ``store`` (never ``auto``)."""
        if self.workers <= 1:
            return "serial"
        if self.backend != "auto":
            return self.backend
        out_of_core = store is not None and hasattr(store, "root")
        if out_of_core and _fork_available():
            return "process"
        return "thread"

    def slice_budget(self, total: Optional[int]) -> Optional[int]:
        """One worker's share of the engine's resident-set budget."""
        if total is None:
            return None
        return max(1, total // self.workers)
