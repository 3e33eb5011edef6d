"""Timing loop, statistics and metric assembly shared by the workloads.

Every workload produces a :class:`Run`: per-op host times of the
accounted path (a ``Device`` attached) and of the functional path (no
device), process CPU time, modeled time of a fixed, seed-determined
prefix of the op set, set-up times, and check counts.  :func:`end_to_end`
turns a run into the end-to-end metrics; :func:`per_layer` turns the
traced run's spans and counters into the per-layer metrics.
"""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns, process_time_ns
from typing import Callable, Dict, List, Optional

import numpy as np

from spans import ACCOUNTING, KERNELS, SpanRecorder, op, phase, self_times

#: Ops run before measuring, left out of every metric.
WARMUP_OPS = 2


@dataclass
class Run:
    """Raw measurements of one workload run."""

    setup_s: List[float] = field(default_factory=list)
    acc_ms: List[float] = field(default_factory=list)
    func_ms: List[float] = field(default_factory=list)
    #: process CPU ms of the accounted ops (per op, or per segment)
    cpu_ms: List[float] = field(default_factory=list)
    #: modeled ms of each op of the fixed prefix (bit-identical per seed)
    modeled_ms: List[float] = field(default_factory=list)
    #: closed-loop ops and the host seconds they took
    closed_ops: int = 0
    closed_s: float = 0.0
    #: closed-loop ops per host second of each pass, for workloads
    #: whose passes are short; when set, ``ops_per_s`` is their median
    closed_rates: List[float] = field(default_factory=list)
    #: aged ÷ fresh host time of each op replayed at the end of the
    #: run, on the aged system and on a fresh one (uptime ratio)
    uptime_ratios: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    late_ms: List[float] = field(default_factory=list)
    traced: List[bool] = field(default_factory=list)
    #: counters the workload reads from the library after the run
    layer: Dict[str, float] = field(default_factory=dict)

    def checked(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least 10 ops beyond it,
    never below the median (with fewer than 20 ops the tail is the
    median)."""
    if n <= 0:
        return 50
    return max(50, int(math.floor(100.0 * (n - 10) / n)))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run) -> Dict[str, float]:
    q = tail_percentile(len(run.acc_ms))
    return {
        "setup_s": statistics.median(run.setup_s),
        "latency_ms.p50": float(np.percentile(run.acc_ms, 50)),
        "latency_ms.tail": float(np.percentile(run.acc_ms, q)),
        "ops_per_s": (statistics.median(run.closed_rates)
                      if run.closed_rates
                      else run.closed_ops / run.closed_s),
        "functional_ms.p50": float(np.percentile(run.func_ms, 50)),
        "cpu_ms_per_op": sum(run.cpu_ms) / len(run.acc_ms),
        "modeled_ms_per_op": float(np.mean(run.modeled_ms)),
        "peak_rss_mb": peak_rss_mb(),
        "uptime_cost_ratio": statistics.median(run.uptime_ratios),
    }


def report_lines(run: Run) -> List[str]:
    """Human-readable context for the metrics (printed to stderr)."""
    q = tail_percentile(len(run.acc_ms))
    lines = [f"ops measured: {len(run.acc_ms)} (tail = p{q})",
             f"setup_s runs: {', '.join(f'{s:.4f}' for s in run.setup_s)}",
             f"error_rate: {run.failed}/{run.attempted}"]
    if run.late_ms:
        lines.append("loadgen_late_ms.p99: "
                     f"{np.percentile(run.late_ms, 99):.4f}")
    return lines


def timed(fn: Callable, *args):
    """``(result, host_ms, cpu_ms)`` of one call; a raised exception
    is returned as the result, and counts as a failed op."""
    c0 = process_time_ns()
    t0 = perf_counter_ns()
    try:
        out = fn(*args)
    except Exception as exc:    # an op failure is a measured outcome
        out = exc
    t1 = perf_counter_ns()
    c1 = process_time_ns()
    return out, (t1 - t0) / 1e6, (c1 - c0) / 1e6


def time_setups(setup: Callable, reps: int, rec: Optional[SpanRecorder],
                run: Run):
    """Run ``setup`` ``reps`` times (each on fresh caches), record the
    host seconds of each, and return the last result."""
    out = None
    for _ in range(reps):
        with phase(rec, "setup"):
            t0 = perf_counter()
            out = setup()
            run.setup_s.append(perf_counter() - t0)
    return out


def closed_loop(run: Run, seconds: float, min_ops: int, replay: int,
                make_input: Callable[[int], object], call: Callable,
                check: Callable, rec: Optional[SpanRecorder],
                device, extra: Optional[Callable] = None) -> None:
    """The op loop of the op-based workloads.

    ``call(x, device)`` runs one op on input ``x``; each op runs its
    accounted variant (``device``) then its functional variant (no
    device), back to back.  The loop runs for ``seconds`` and at least
    ``min_ops`` ops; the modeled time of the first ``min_ops`` ops is
    recorded.  It ends with the uptime replay: the first ``replay``
    inputs run again on the aged device and on a fresh one, back to
    back, so machine drift cancels out of each pair's ratio.  Each
    result is checked right after its op and then dropped, so the
    checks' time stays out of the ``seconds`` and held results stay out
    of ``peak_rss_mb``.  With a recorder, even ops are traced and odd
    ops are not, so the same run measures the tracing overhead.
    ``extra(x)`` runs after the two variants (the traced run's extra
    variants).
    """
    def check_now(x, *ys) -> float:
        t0 = perf_counter()
        for y in ys:
            run.checked(not isinstance(y, Exception) and check(x, y))
        return perf_counter() - t0

    for j in range(WARMUP_OPS):
        x = make_input(-1 - j)
        call(x, device)
        call(x, None)
    launches, nbytes = [], []
    deadline = perf_counter() + seconds
    i = 0
    # stop early enough for the replay (2 * replay accounted ops)
    while i < min_ops or (perf_counter() + 2 * replay * sum(run.acc_ms)
                          / 1e3 / i < deadline):
        x = make_input(i)
        traced = rec is not None and i % 2 == 0
        mark = device.split()
        with op(rec, i, "acc", traced):
            y_acc, ms, cpu = timed(call, x, device)
        with op(rec, i, "func", traced):
            y_func, fms, _ = timed(call, x, None)
        records = device.records_since(mark)
        if i < min_ops:
            run.modeled_ms.append(device.elapsed_since(mark))
        launches.append(len(records))
        nbytes.append(sum(r.counters.global_bytes for r in records))
        run.acc_ms.append(ms)
        run.func_ms.append(fms)
        run.cpu_ms.append(cpu)
        run.traced.append(traced)
        if extra is not None:
            extra(x)
        deadline += check_now(x, y_acc, y_func)
        i += 1
    run.closed_ops = len(run.acc_ms)
    run.closed_s = sum(run.acc_ms) / 1e3
    run.layer["traced_acc_ops"] = run.layer["traced_func_ops"] = \
        sum(run.traced)
    run.layer["launches_per_op"] = float(np.mean(launches))
    run.layer["modeled_bytes_per_op"] = float(np.mean(nbytes))
    run.layer["timeline_len"] = float(len(device.timeline))
    fresh = type(device)()
    for k in range(replay):
        x = make_input(k)
        ms = {}
        for dev in ((device, fresh) if k % 2 == 0 else (fresh, device)):
            y, ms[dev is device], _ = timed(call, x, dev)
            check_now(x, y)
        run.uptime_ratios.append(ms[True] / ms[False])


# ----------------------------------------------------------------------
# per-layer metrics (traced run)
# ----------------------------------------------------------------------
def _p50(values) -> float:
    return float(np.percentile(values, 50)) if len(values) else 0.0


def per_layer(run: Run, rec: SpanRecorder) -> Dict[str, float]:
    """Per-layer metrics from the traced run's spans and counters.

    ``*_ms_per_op`` is a layer's self time summed over the traced ops
    of the accounted variant, divided by their count
    (``fastpath.fused_ms_per_op`` uses the functional variant, the
    only one that takes the fused path).  Layers a workload does not
    reach read 0.
    """
    spans = rec.spans
    selfs = self_times(spans)
    n_acc = max(1, run.layer.get("traced_acc_ops", 0))
    n_func = max(1, run.layer.get("traced_func_ops", 0))

    def self_ms(layers, kind="acc") -> float:
        return sum(selfs[s.sid] for s in spans
                   if s.kind == kind and s.name in layers)

    def calls(layers, kind="acc") -> int:
        return sum(1 for s in spans if s.kind == kind and s.name in layers)

    build_s = sum((s.end_ns - s.start_ns) / 1e9 for s in spans
                  if s.kind == "setup" and s.name == "tiles.build")
    lay = run.layer
    traced_ms = [m for m, t in zip(run.acc_ms, run.traced) if t]
    plain_ms = [m for m, t in zip(run.acc_ms, run.traced) if not t]
    overhead = (_p50(traced_ms) / _p50(plain_ms)) if plain_ms else 0.0
    out = {
        "tiles.build_s": build_s / max(1, len(run.setup_s)),
        "runtime.plan_hit_ratio": lay.get("plan_hit_ratio", 0.0),
        "runtime.queue_wait_ms.p50": _p50(lay.get("queue_wait_ms", [])),
        "runtime.batch_size.mean": lay.get("batch_size_mean", 0.0),
        "runtime.launch_ms_per_op": self_ms({"runtime.launch"}) / n_acc,
        "vectors.convert_ms_per_op": self_ms({"vectors.convert"}) / n_acc,
        "core.spmspv_kernel_ms_per_op":
            self_ms({"core.spmspv_kernel"}) / n_acc,
        "core.union_kernel_ms_per_op":
            self_ms({"core.union_kernel"}) / n_acc,
        "core.spmm_fold_ms_per_op": self_ms({"core.spmm_fold"}) / n_acc,
        "core.bfs_kernel_ms_per_op": self_ms({"core.bfs_kernel"}) / n_acc,
        "core.kernel_calls_per_op": calls(set(KERNELS)) / n_acc,
        "fastpath.fused_ms_per_op":
            self_ms({"fastpath.fused"}, "func") / n_func,
        "gpusim.accounting_ms_per_op": self_ms(set(ACCOUNTING)) / n_acc,
        "gpusim.elapsed_calls_per_op": calls({"gpusim.elapsed"}) / n_acc,
        "gpusim.timeline_len": lay.get("timeline_len", 0.0),
        "gpusim.launches_per_op": lay.get("launches_per_op", 0.0),
        "gpusim.modeled_bytes_per_op": lay.get("modeled_bytes_per_op", 0.0),
        "serving.submit_self_ms.p50": _p50(
            [selfs[s.sid] for s in spans
             if s.kind == "acc" and s.name == "serving.submit"]),
        "serving.admission_ms_per_op":
            self_ms({"serving.admission"}) / n_acc,
        "serving.rejects": lay.get("rejects", 0.0),
        "serving.log_records": lay.get("log_records", 0.0),
        "serving.pagerank_memo_hit_ratio": lay.get("memo_hit_ratio", 0.0),
        "shards.load_bytes_per_op": lay.get("load_bytes_per_op", 0.0),
        "shards.resident_hit_ratio": lay.get("resident_hit_ratio", 0.0),
        "shards.store_get_ms_per_op":
            self_ms({"shards.store_get"}) / n_acc,
        "parallel.worker_busy_ms_per_op":
            sum((s.end_ns - s.start_ns) / 1e6 for s in spans
                if s.kind == "acc" and s.name == "parallel.chunk") / n_acc,
        "parallel.idle_share": 0.0,
        "parallel.wall_speedup": lay.get("wall_speedup", 0.0),
        "trace.overhead_ratio": overhead,
        "error_rate": run.failed / max(1, run.attempted),
        "loadgen_late_ms.p99": (float(np.percentile(run.late_ms, 99))
                                if run.late_ms else 0.0),
    }
    # pool chunks run on as many threads as there are chunks: idle
    # share is the part of the op's wall time a chunk's thread sat idle
    op_wall = {s.op: s.end_ns - s.start_ns for s in spans
               if s.kind == "acc" and s.name == "op"}
    chunks = [(s.end_ns - s.start_ns, op_wall[s.op]) for s in spans
              if s.kind == "acc" and s.name == "parallel.chunk"]
    if chunks:
        out["parallel.idle_share"] = 1.0 - sum(b for b, _ in chunks) \
            / sum(w for _, w in chunks)
    return out
