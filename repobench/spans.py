"""Host spans for the traced benchmark run.

The benchmark measures the library from outside: :func:`install`
wraps public functions and methods of ``repro`` in span recorders and
patches every name that refers to them, at the definition site *and*
at each lookup site.  ``repro.core.batched`` imports
``batched_union_kernel`` by name, so patching only
``repro.core.spmspv_kernels.batched_union_kernel`` would miss the
batched engine's calls; :func:`install` therefore scans every loaded
``repro`` module for globals that are the original object.

Spans live in memory as tuples until the run ends, when
:func:`write_chrome_trace` and :func:`self_time_table` turn them into
a Chrome trace and a per-layer self-time table.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns
from typing import Dict, List, NamedTuple, Optional

__all__ = ["LAYERS", "Span", "SpanRecorder", "install", "op", "phase",
           "self_times", "self_time_table", "write_chrome_trace"]


#: Layer name -> the ``repro`` callables whose time it owns, as
#: ``"module:qualname"``.  A class attribute may be a function, a
#: classmethod or a property (its getter is wrapped).
LAYERS: Dict[str, tuple] = {
    "tiles.build": (
        "repro.core.tilebfs:_build_bfs_plan",
        "repro.core.spmspv:_build_spmspv_plan",
        "repro.shards.sharded_matrix:ShardedTiledMatrix.from_coo",
    ),
    "serving.submit": ("repro.serving.service:GraphQueryService.submit_nowait",),
    "serving.admission": ("repro.serving.admission:AdmissionController.admit",),
    "serving.pump": ("repro.serving.service:GraphQueryService.pump",
                     "repro.serving.service:GraphQueryService.drain"),
    "runtime.queue_submit": ("repro.runtime.batch_queue:BatchQueue.submit",),
    "runtime.dispatch": ("repro.runtime.batch_queue:BatchQueue._dispatch",),
    "runtime.launch": ("repro.runtime.context:ExecutionContext.launch",),
    "vectors.convert": (
        "repro.core.spmspv:as_tiled_vector",
        "repro.tiles.tiled_vector:TiledVector.from_sparse",
        "repro.tiles.tiled_vector:TiledVector.from_dense",
        "repro.core.spmm:as_dense_block",
    ),
    "core.spmspv_kernel": (
        "repro.core.spmspv_kernels:tiled_kernel",
        "repro.core.spmspv_kernels:csc_tiled_kernel",
        "repro.core.spmspv_kernels:coo_side_kernel",
        "repro.core.spmspv_kernels:batched_tiled_kernel",
    ),
    "core.union_kernel": ("repro.core.spmspv_kernels:batched_union_kernel",),
    "core.spmm_fold": (
        "repro.core.spmm_kernels:spmm_row_warp_kernel",
        "repro.core.spmm_kernels:spmm_merge_path_kernel",
        "repro.core.spmm_kernels:spmm_coo_side_kernel",
    ),
    "core.bfs_kernel": (
        "repro.core.bfs_kernels:push_csc_kernel",
        "repro.core.bfs_kernels:push_csr_kernel",
        "repro.core.bfs_kernels:pull_csc_kernel",
        "repro.core.tilebfs:TileBFS._side_kernel",
    ),
    "fastpath.fused": ("repro.fastpath.fused_bfs:run_fused",),
    "gpusim.submit": ("repro.gpusim.device:Device.submit",),
    "gpusim.elapsed": ("repro.gpusim.device:Device.elapsed_ms",),
    "gpusim.check": ("repro.gpusim.counters:KernelCounters.check",),
    "gpusim.cost": ("repro.gpusim.cost:CostModel.evaluate",),
    "shards.store_get": ("repro.shards.store:DirectoryShardStore.get",),
    "shards.multiply_block": (
        "repro.shards.engine:ShardedSpMSpV.multiply_block",),
    "parallel.chunk": ("repro.parallel.executor:_run_chunk",),
}

#: The layers whose self time is accounting (``gpusim.accounting_ms``).
ACCOUNTING = ("gpusim.submit", "gpusim.elapsed", "gpusim.check",
              "gpusim.cost")
#: The layers counted as kernel calls (``core.kernel_calls_per_op``).
KERNELS = ("core.spmspv_kernel", "core.union_kernel", "core.spmm_fold",
           "core.bfs_kernel")


class Span(NamedTuple):
    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    op: int
    kind: str
    thread: int


class SpanRecorder:
    """In-memory span store with a per-thread parent stack.

    ``on`` gates recording, so the wrappers stay installed for the
    whole traced run while untraced ops pay one attribute read per
    call.  A span opened on a worker thread with an empty stack is
    parented to the current op span, which ties pool work to its op.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.on = False
        self.op_id = -1
        self.op_kind = ""
        self._op_sid: Optional[int] = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self._op_sid
        stack.append(sid)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            self.spans.append(Span(sid, name, t0, t1, parent, self.op_id,
                                   self.op_kind, threading.get_ident()))

    @contextmanager
    def op(self, op_id: int, kind: str, traced: bool = True):
        """One measured op: a root span ``op`` every layer span of the
        op (on any thread) descends from.  ``traced=False`` runs the op
        with recording off."""
        self.on = traced
        self.op_id, self.op_kind = op_id, kind
        if not traced:
            try:
                yield
            finally:
                self.op_id, self.op_kind = -1, ""
            return
        sid = next(self._ids)
        self._op_sid = sid
        stack = self._stack()
        stack.append(sid)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            self.spans.append(Span(sid, "op", t0, t1, None, op_id, kind,
                                   threading.get_ident()))
            self._op_sid = None
            self.op_id, self.op_kind = -1, ""
            self.on = False

    @contextmanager
    def phase(self, kind: str):
        """Record every span in the block (no op span), e.g. set-up."""
        self.on = True
        self.op_id, self.op_kind = -1, kind
        try:
            yield
        finally:
            self.on = False
            self.op_id, self.op_kind = -1, ""


def op(rec: Optional[SpanRecorder], op_id: int, kind: str, traced: bool):
    """:meth:`SpanRecorder.op`, or nothing without a recorder."""
    return rec.op(op_id, kind, traced) if rec is not None else nullcontext()


def phase(rec: Optional[SpanRecorder], kind: str):
    """:meth:`SpanRecorder.phase`, or nothing without a recorder."""
    return rec.phase(kind) if rec is not None else nullcontext()


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = sys.modules.get(module_name)
    if owner is None:
        __import__(module_name)
        owner = sys.modules[module_name]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _wrap(rec: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs)
    return wrapper


def install(rec: SpanRecorder):
    """Wrap every callable of ``LAYERS``; returns an ``uninstall``
    function restoring the originals at every patched site."""
    undo = []
    for name, targets in LAYERS.items():
        for target in targets:
            owner, attr = _resolve(target)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, property):
                new = property(_wrap(rec, name, raw.fget), raw.fset,
                               raw.fdel, raw.__doc__)
            elif isinstance(raw, classmethod):
                new = classmethod(_wrap(rec, name, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(_wrap(rec, name, raw.__func__))
            else:
                new = _wrap(rec, name, raw)
            setattr(owner, attr, new)
            undo.append((owner, attr, raw))
            if inspect.isclass(owner):
                continue        # attribute lookup goes through the class
            # module-level function: also patch every by-name import
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("repro") or mod is owner:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, new)
                        undo.append((mod, key, raw))

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
    return uninstall


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> self time in ms: the span's duration minus the part
    its child spans on the same thread cover.  Children on another
    thread (pool work under an op) run in parallel with their parent,
    so they are not subtracted."""
    by_sid = {s.sid: s for s in spans}
    child_ns: Dict[int, int] = {}
    for s in spans:
        parent = by_sid.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            child_ns[s.parent] = child_ns.get(s.parent, 0) \
                + (s.end_ns - s.start_ns)
    return {s.sid: (s.end_ns - s.start_ns - child_ns.get(s.sid, 0)) / 1e6
            for s in spans}


def self_time_table(spans: List[Span]) -> List[dict]:
    """Per (op kind, layer) rows: calls, self ms and inclusive ms,
    sorted by self time."""
    selfs = self_times(spans)
    rows: Dict[tuple, dict] = {}
    for s in spans:
        row = rows.setdefault((s.kind, s.name), {
            "kind": s.kind, "layer": s.name, "calls": 0,
            "self_ms": 0.0, "total_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += selfs[s.sid]
        row["total_ms"] += (s.end_ns - s.start_ns) / 1e6
    return sorted(rows.values(), key=lambda r: (r["kind"], -r["self_ms"]))


def format_table(rows: List[dict]) -> str:
    lines = [f"{'kind':<8} {'layer':<24} {'calls':>8} {'self_ms':>12} "
             f"{'total_ms':>12}"]
    for r in rows:
        lines.append(f"{r['kind']:<8} {r['layer']:<24} {r['calls']:>8} "
                     f"{r['self_ms']:>12.3f} {r['total_ms']:>12.3f}")
    return "\n".join(lines)


def write_chrome_trace(spans: List[Span], path) -> None:
    """Chrome ``trace_event`` JSON: one complete event per span, one
    track per thread."""
    if not spans:
        events = []
    else:
        t0 = min(s.start_ns for s in spans)
        main = threading.main_thread().ident
        threads = sorted({s.thread for s in spans}, key=lambda t: t != main)
        tids = {t: i for i, t in enumerate(threads)}
        events = [{
            "name": s.name, "ph": "X", "pid": 1, "tid": tids[s.thread],
            "ts": (s.start_ns - t0) / 1e3,
            "dur": (s.end_ns - s.start_ns) / 1e3,
            "args": {"op": s.op, "kind": s.kind, "span": s.sid,
                     "parent": s.parent},
        } for s in spans]
        events += [{"name": "thread_name", "ph": "M", "pid": 1, "tid": i,
                     "args": {"name": "main" if t == main else f"worker-{i}"}}
                    for t, i in tids.items()]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
