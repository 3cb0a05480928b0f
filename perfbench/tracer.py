"""Outside-in span tracing of rckit's layers.

The benchmark installs wrappers at the module attributes that rckit's own
callers look up (for example `rckit.verify.rc_solution_space`, which verify
imported by name, rather than `rckit.rcmaps.rc_solution_space`).  Nothing in
`src/` changes.  Each wrapped call records a span; generator functions get one
span per `next()`, because their consumer runs between the yields.

Spans are aggregated in memory per (parent name, name) edge as count, total
time and self time (duration minus the time covered by child spans), so the
self times of one process add up to the duration of its top-level spans.
Coarse spans (suite invocations, dispatch, solves) are also kept one by one as
(id, parent id, name, start, end) and written out when the run ends.

Cases that a `--jobs` pool runs in forked workers are traced in the worker and
their aggregates sent back with the case result; they form a second tree
("worker"), whose spans overlap in time with the parent's `verify.dispatch`.
"""

from __future__ import annotations

import os
from functools import partial
from time import perf_counter

ROOT = "<root>"
WORKER_ROOT = "<worker>"

# spans kept one by one; everything else only in the edge aggregates
RAW_NAMES = frozenset({"cli.main", "verify.suite", "verify.dispatch", "rcmaps.solve"})
COUNTERS = ("field.mul", "field.add", "linalg.rows_folded", "linalg.rows_useful")

# the process's tracer, reachable from forked pool workers, which receive the
# case wrapper by pickle and must find the wrapper state already in memory
_ACTIVE: "Tracer | None" = None


class Tracer:
    """Span and counter store for one process."""

    def __init__(self, root: str = ROOT):
        self.root = root
        # mutated in place, never rebound: the patched methods hold these lists
        self.counts = {name: [0] for name in COUNTERS}
        self.remote_edges: dict[tuple[str, str], list] = {}
        self.remote_yields: dict[tuple[str, str], int] = {}
        self.pool_s = 0.0
        self.cases_dispatched = 0
        self.next_id = 1
        self._reset_local()

    def _reset_local(self) -> None:
        self.stack = [[self.root, 0.0, 0.0, 0]]  # name, start, child time, raw id
        self.edges: dict[tuple[str, str], list] = {}  # count, total, self
        self.yields: dict[tuple[str, str], int] = {}
        self.spans: list[tuple] = []
        for counter in self.counts.values():
            counter[0] = 0

    # -- spans --

    def call(self, name: str, fn, args, kwargs):
        stack = self.stack
        raw_id = 0
        if name in RAW_NAMES:
            raw_id = self.next_id
            self.next_id += 1
        frame = [name, 0.0, 0.0, raw_id]
        stack.append(frame)
        t0 = frame[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self._close(frame, t0, t1)

    def _close(self, frame, t0: float, t1: float) -> None:
        parent = self.stack[-1]
        dur = t1 - t0
        parent[2] += dur
        key = (parent[0], frame[0])
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += dur
        edge[2] += dur - frame[2]
        if frame[3]:
            self.spans.append((frame[3], self._raw_parent(), frame[0], t0, t1))

    def _raw_parent(self) -> int:
        for frame in reversed(self.stack):
            if frame[3]:
                return frame[3]
        return 0

    def wrap(self, name: str, fn):
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, args, kwargs)

        return traced

    def wrap_gen(self, name: str, fn):
        """Wrap a generator function: one span per next(), yields counted
        per (consumer span, name) edge."""
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    stack = tracer.stack
                    frame = [name, 0.0, 0.0, 0]
                    stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        stack.pop()
                        tracer._close(frame, t0, t1)
                    key = (stack[-1][0], name)
                    tracer.yields[key] = tracer.yields.get(key, 0) + 1
                    yield item
            finally:
                it.close()

        return traced

    # -- pool workers --

    def harvest(self) -> dict:
        """This worker's aggregates since the last harvest, then reset."""
        out = {
            "edges": self.edges,
            "yields": self.yields,
            "counts": {k: c[0] for k, c in self.counts.items()},
            "spans": self.spans,
        }
        self._reset_local()
        return out

    def merge_remote(self, payload: dict, parent_id: int) -> None:
        for key, (n, total, self_s) in payload["edges"].items():
            edge = self.remote_edges.get(key)
            if edge is None:
                edge = self.remote_edges[key] = [0, 0.0, 0.0]
            edge[0] += n
            edge[1] += total
            edge[2] += self_s
        for key, n in payload["yields"].items():
            self.remote_yields[key] = self.remote_yields.get(key, 0) + n
        for name, n in payload["counts"].items():
            self.counts[name][0] += n
        # worker span ids are local to the worker: renumber, and hang the
        # worker's top-level spans under the dispatch span that sent the case
        ids = {0: parent_id}
        for sid, pid, name, t0, t1 in payload["spans"]:
            ids[sid] = self.next_id
            self.next_id += 1
            self.spans.append((ids[sid], ids.get(pid, parent_id), name, t0, t1))


def _run_case(worker, parent_pid: int, case):
    """Run one verify case under a `verify.case` span; in a pool worker,
    return the worker's trace aggregates with the result."""
    tracer = _ACTIVE
    if os.getpid() == parent_pid:
        return ("local", tracer.call("verify.case", worker, (case,), {}))
    if tracer.root != WORKER_ROOT:  # first case in this forked worker
        tracer.root = WORKER_ROOT
        tracer._reset_local()
    result = tracer.call("verify.case", worker, (case,), {})
    return ("remote", result, tracer.harvest())


def _traced_map_cases(tracer: Tracer, original, worker, cases, jobs: int = 1):
    """Stand-in for verify's case dispatcher (`_map_cases`): a
    `verify.dispatch` span around the original, each case under a
    `verify.case` span, and pool time measured where cases ran remotely."""
    raw_id = tracer.next_id  # the id call() gives the dispatch span
    t0 = perf_counter()
    tagged = tracer.call(
        "verify.dispatch", original, (partial(_run_case, worker, os.getpid()), cases, jobs), {}
    )
    t1 = perf_counter()
    out = []
    remote = 0
    for item in tagged:
        if item[0] == "remote":
            remote += 1
            tracer.merge_remote(item[2], raw_id)
        out.append(item[1])
    if remote:
        tracer.pool_s += t1 - t0
        tracer.cases_dispatched += remote
    return out


def install() -> Tracer:
    """Wrap rckit's layer entry points where its callers look them up and
    return the tracer that records them.  Call once per process, after
    set-up and before the timed region."""
    global _ACTIVE
    from rckit import cli, field, opspace, rcmaps, verify

    tracer = Tracer()
    _ACTIVE = tracer

    def patch(module, attr, name, gen=False):
        fn = getattr(module, attr)
        setattr(module, attr, (tracer.wrap_gen if gen else tracer.wrap)(name, fn))

    patch(cli, "run_suite", "verify.suite")
    verify._map_cases = partial(_traced_map_cases, tracer, verify._map_cases)

    patch(verify, "enumerate_subspaces_up_to", "opspace.enumerate", gen=True)
    patch(verify, "dual_rref_rows", "opspace.enumerate", gen=True)
    for module in (rcmaps, verify):
        patch(module, "decode", "opspace.decode")
        patch(module, "iter_space_elements", "rcmaps.elements", gen=True)
        patch(module, "local_space", "rcmaps.target")
        patch(module, "standard_space", "rcmaps.target")
        patch(module, "quotient_projection", "opspace.quotient")
    patch(rcmaps, "quotient_space", "opspace.quotient")
    for module in (opspace, rcmaps, verify):
        patch(module, "kernel_basis", "linalg.kernel_basis")

    patch(verify, "rc_solution_space", "rcmaps.solve")
    for attr in (
        "is_range_compatible",
        "is_local",
        "quotient_map",
        "join_maps",
        "split_map",
        "respects_row_decomposition",
    ):
        patch(verify, attr, "rcmaps.decide")
    patch(rcmaps, "left_kernel_rows", "linalg.left_kernel")

    # the solver's constraint accumulator only: wrap the instance's add, so
    # the object keeps its real type (the solver dispatches on isinstance)
    # and elimination inside left_kernel_rows is not counted
    make_accumulator = rcmaps.make_accumulator
    folded = tracer.counts["linalg.rows_folded"]
    useful = tracer.counts["linalg.rows_useful"]
    call = tracer.call

    def traced_make_accumulator(*args, **kwargs):
        acc = make_accumulator(*args, **kwargs)
        add = acc.add

        def traced_add(row):
            grew = call("linalg.fold", add, (row,), {})
            folded[0] += 1
            if grew:
                useful[0] += 1
            return grew

        acc.add = traced_add
        return acc

    rcmaps.make_accumulator = traced_make_accumulator

    # exact call counts on the table-lookup methods, which every caller
    # reaches through the class; not timed
    spec = field.FieldSpec
    for attr, key in (("mul", "field.mul"), ("add", "field.add")):
        setattr(spec, attr, _counting(getattr(spec, attr), tracer.counts[key]))
    return tracer


def _counting(method, counter):
    def counted(self, a, b):
        counter[0] += 1
        return method(self, a, b)

    return counted
