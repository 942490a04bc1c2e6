"""Spans around the calls the entcloak layers make into each other.

The tracer replaces module attributes (the names one layer looks up to
call another) with wrappers that record a span per call: name, start,
end, the enclosing span and the benchmark operation it belongs to.
Nothing in the package is edited; the wrappers are installed only for
the duration of a traced operation and removed afterwards, so untraced
operations run the unmodified code.

Spans are kept in memory.  Pool workers forked during a traced sweep
inherit the wrappers; each worker appends its finished top-level spans
to a JSON-lines file in the work directory, which the parent merges
after the operation.
"""

import functools
import json
import os
import statistics
import time
from pathlib import Path

from entcloak import cli, emcore, optimizer, quantum, vie

#: (module, attribute, span name).  The span name's first dotted part is
#: the layer whose self time the span counts toward.
WRAP_POINTS = (
    (optimizer, "compute_state", "optimizer.compute_state"),
    (optimizer, "sweep_once", "optimizer.sweep"),
    (optimizer, "solve_green_block", "vie.solve"),
    (vie, "solve_green_block", "vie.solve"),
    (vie, "scattered_green_pair", "vie.green_pair"),
    (vie, "assemble_dense", "vie.dense_assemble"),
    (vie, "bicgstab", "vie.krylov"),
    (vie, "free_space_green", "emcore.free_space_green"),
    (emcore, "couplings_from_green", "emcore.couplings"),
    (quantum, "steady_state", "quantum.steady_state"),
    (cli, "optimize", "optimizer.optimize"),
    (cli, "save_grid_csv", "cli.write"),
    (cli, "save_meta", "cli.write"),
    (cli, "save_trace_csv", "cli.write"),
    (cli, "_sweep_point", "cli.sweep.point"),
)

LAYERS = ("vie", "quantum", "optimizer", "cli", "emcore")


class Tracer:
    """In-memory span recorder; one per benchmark process."""

    def __init__(self, work_dir):
        self.work_dir = Path(work_dir)
        self.spans = []   # [name, start, end, parent index, op, count]
        self.stack = []
        self.op = None
        self.pid = os.getpid()
        self._saved = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        # A pool worker starts with no open spans of its own.
        self.spans, self.stack = [], []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "vie.krylov":
                iters = [0]
                user_cb = kwargs.get("callback")

                def count(xk):
                    iters[0] += 1
                    if user_cb is not None:
                        user_cb(xk)

                kwargs["callback"] = count
            rec = [name, time.perf_counter(), None,
                   tracer.stack[-1] if tracer.stack else None, tracer.op, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
            if name == "vie.krylov":
                rec[5] = iters[0]
            elif name == "optimizer.sweep":
                rec[5] = int(out[2])
            elif name == "optimizer.optimize":
                rec[5] = len(out.entries) - 1
            if not tracer.stack and os.getpid() != tracer.pid:
                tracer._flush_child()
            return out

        return traced

    def _flush_child(self):
        path = self.work_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def install(self):
        for mod, attr, name in WRAP_POINTS:
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig))

    def uninstall(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def collect_children(self):
        """Merge the span batches pool workers wrote during the last op."""
        for path in sorted(self.work_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                base = len(self.spans)
                for rec in json.loads(line):
                    if rec[3] is not None:
                        rec[3] += base
                    self.spans.append(rec)
            path.unlink()


def _self_times(spans):
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, walls, workers):
    """Per-operation layer figures from the spans of the traced ops.

    walls holds the wall time of each traced op; workers is the number
    of processes an op keeps busy (the pool size for a sweep, else 1).
    """
    n_ops = len(walls)
    own = _self_times(spans)
    dur = {}
    count = {}
    total_n = {}
    self_by_name = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    candidates = 0
    for s, own_s in zip(spans, own):
        name = s[0]
        dur.setdefault(name, []).append(s[2] - s[1])
        count[name] = count.get(name, 0) + 1
        total_n[name] = total_n.get(name, 0) + (s[5] or 0)
        self_by_name[name] = self_by_name.get(name, 0.0) + own_s
        self_by_layer[name.split(".")[0]] += own_s
        if name == "quantum.steady_state" and s[3] is not None \
                and spans[s[3]][0] == "optimizer.sweep":
            candidates += 1

    def per_op(x):
        return x / n_ops

    def total(name):
        return sum(dur.get(name, ()))

    def p50(name):
        return statistics.median(dur[name]) if name in dur else 0.0

    krylov_solves = count.get("vie.krylov", 0)
    accepted = total_n.get("optimizer.sweep", 0)
    iterations = total_n.get("optimizer.optimize", 0)
    designs = count.get("optimizer.optimize", 0)
    m = {
        "vie.solve.calls": (per_op(count.get("vie.solve", 0)), "count"),
        "vie.solve.s": (per_op(total("vie.solve")), "s"),
        "vie.solve.p50_s": (p50("vie.solve"), "s"),
        "vie.dense_assemble.s": (per_op(total("vie.dense_assemble")), "s"),
        "vie.krylov.solves": (per_op(krylov_solves), "count"),
        "vie.krylov.iters": (per_op(total_n.get("vie.krylov", 0)), "count"),
        "vie.krylov.iters_per_solve": (
            total_n.get("vie.krylov", 0) / krylov_solves if krylov_solves else 0.0,
            "count"),
        "quantum.steady_state.calls": (
            per_op(count.get("quantum.steady_state", 0)), "count"),
        "quantum.steady_state.s": (per_op(total("quantum.steady_state")), "s"),
        "quantum.steady_state.p50_us": (1e6 * p50("quantum.steady_state"), "us"),
        "optimizer.compute_state.calls": (
            per_op(count.get("optimizer.compute_state", 0)), "count"),
        "optimizer.compute_state.self_s": (
            per_op(self_by_name.get("optimizer.compute_state", 0.0)), "s"),
        "optimizer.sweep.s": (per_op(total("optimizer.sweep")), "s"),
        "optimizer.sweep.self_s": (
            per_op(self_by_name.get("optimizer.sweep", 0.0)), "s"),
        "optimizer.candidates": (per_op(candidates), "count"),
        "optimizer.accepted": (per_op(accepted), "count"),
        "optimizer.accept_ratio": (
            accepted / candidates if candidates else 0.0, "ratio"),
        "optimizer.iterations": (per_op(iterations), "count"),
        "optimizer.reverted_sweeps": (per_op(
            count.get("optimizer.compute_state", 0) - iterations - designs), "count"),
        "cli.write.s": (per_op(total("cli.write")), "s"),
        "cli.sweep.point_s": (p50("cli.sweep.point"), "s"),
        "cli.sweep.busy_share": (
            total("cli.sweep.point") / (workers * sum(walls)), "ratio"),
        "trace.span_coverage": (sum(
            s[2] - s[1] for s in spans if s[3] is None) / (workers * sum(walls)),
            "ratio"),
    }
    for layer in LAYERS:
        if layer != "emcore":
            m[f"{layer}.self_s"] = (per_op(self_by_layer[layer]), "s")
    return m, per_op(self_by_layer["emcore"])


def top_level_seconds(spans, op):
    """Summed duration of the spans an operation opened directly."""
    return sum(s[2] - s[1] for s in spans if s[4] == op and s[3] is None)
