"""One workload pass in a fresh interpreter; started by run.py.

    python3 perfbench/child.py '{"workload": ..., "seed": ..., "trace": ..., "out_dir": ...}'

Imports rckit from the checkout's `src/`, builds the workload's field tables,
then times each CLI invocation of the workload (`rckit.cli.main`) in order.
With "trace" set, the layer wrappers are installed after set-up and before
the first invocation.  The last line of standard output is a JSON object
with the timings, each report's correctness facts and, when traced, the
per-layer figures.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import SELFTEST, WORKLOADS  # noqa: E402

# per-layer metric -> the span whose inclusive time (or call count) it reports
TIMED_LAYERS = {
    "opspace.enumerate_s": "opspace.enumerate",
    "opspace.decode_s": "opspace.decode",
    "opspace.quotient_s": "opspace.quotient",
    "rcmaps.solve_s": "rcmaps.solve",
    "rcmaps.target_s": "rcmaps.target",
    "rcmaps.decide_s": "rcmaps.decide",
    "linalg.left_kernel_s": "linalg.left_kernel",
    "linalg.fold_s": "linalg.fold",
    "linalg.kernel_basis_s": "linalg.kernel_basis",
    "verify.suite_s": "verify.suite",
}
CALL_COUNTS = {
    "opspace.decode_calls": "opspace.decode",
    "rcmaps.solve_calls": "rcmaps.solve",
    "linalg.left_kernel_calls": "linalg.left_kernel",
}


def canonical_digest(report: dict, seed: int | None) -> tuple[str, bool]:
    """SHA-256 of the report's canonical JSON without wallTime (and without
    suite.seed for a seeded suite); the flag says whether the seed matched."""
    body = {k: v for k, v in report.items() if k != "wallTime"}
    seed_ok = True
    if seed is not None:
        suite = dict(body["suite"])
        seed_ok = suite.pop("seed", None) == seed
        body["suite"] = suite
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest(), seed_ok


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def run_invocations(main, workload, seed: int, out_dir: Path) -> list[dict]:
    out = []
    for i, inv in enumerate(workload.invocations):
        path = out_dir / f"report-{os.getpid()}-{i}.json"
        argv = inv.args(seed) + ["--out", str(path)]
        record = {"argv": argv[:-2], "pinned_cases": inv.cases}
        text = io.StringIO()
        with redirect_stdout(text):
            t0 = perf_counter()
            try:
                code = main(argv)
            except Exception as exc:  # a traceback is a wrong output, not a crash of the benchmark
                code = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
        record["seconds"] = t1 - t0
        record["exit"] = code
        record["stdout"] = text.getvalue().strip()
        if path.exists():
            report = json.loads(path.read_text())
            path.unlink()
            digest, seed_ok = canonical_digest(report, seed if inv.seeded else None)
            record.update(
                cases=report.get("casesRun"),
                verdict=report.get("verdict"),
                digest=digest,
                seed_ok=seed_ok,
            )
        record["correct"] = (
            code == 0
            and record.get("verdict") == "verified"
            and record.get("cases") == inv.cases
            and record.get("digest") == inv.digest
            and record.get("seed_ok", False)
        )
        out.append(record)
    return out


def layer_metrics(tracer) -> dict:
    edges = {}
    for source in (tracer.edges, tracer.remote_edges):
        for key, (n, total, self_s) in source.items():
            e = edges.setdefault(key, [0, 0.0, 0.0])
            e[0] += n
            e[1] += total
            e[2] += self_s
    yields = dict(tracer.yields)
    for key, n in tracer.remote_yields.items():
        yields[key] = yields.get(key, 0) + n

    def inclusive(name):
        # a span nested directly in one of its own name is already covered
        return sum(e[1] for (p, n), e in edges.items() if n == name and p != name)

    def calls(name):
        return sum(e[0] for (p, n), e in edges.items() if n == name)

    m = {metric: inclusive(span) for metric, span in TIMED_LAYERS.items()}
    m.update({metric: calls(span) for metric, span in CALL_COUNTS.items()})
    m["verify.self_s"] = sum(e[2] for (p, n), e in edges.items() if n == "verify.suite")
    m["verify.pool_s"] = tracer.pool_s
    m["verify.cases_dispatched"] = tracer.cases_dispatched
    m["opspace.cases_enumerated"] = sum(
        c for (p, n), c in yields.items() if n == "opspace.enumerate"
    )
    m["rcmaps.elements_walked"] = yields.get(("rcmaps.solve", "rcmaps.elements"), 0)
    solve_ms = [(t1 - t0) * 1e3 for _, _, name, t0, t1 in tracer.spans if name == "rcmaps.solve"]
    m["rcmaps.solve_case_ms.p50"] = percentile(solve_ms, 50) if solve_ms else 0.0
    m["rcmaps.solve_case_ms.p99"] = percentile(solve_ms, 99) if solve_ms else 0.0
    counts = {k: c[0] for k, c in tracer.counts.items()}
    m["field.mul_calls"] = counts["field.mul"]
    m["field.add_calls"] = counts["field.add"]
    m["linalg.rows_folded"] = counts["linalg.rows_folded"]
    m["linalg.rows_useful"] = counts["linalg.rows_useful"]
    folded = counts["linalg.rows_folded"]
    m["linalg.fold_useful_ratio"] = counts["linalg.rows_useful"] / folded if folded else 0.0

    local_self = sum(e[2] for e in tracer.edges.values())
    remote_self = sum(e[2] for e in tracer.remote_edges.values())
    table = [
        {"parent": p, "name": n, "count": e[0], "total_s": e[1], "self_s": e[2]}
        for (p, n), e in sorted(edges.items(), key=lambda kv: -kv[1][2])
    ]
    return {
        "layers": m,
        "edges": table,
        "self_sum_s": local_self,
        "worker_self_sum_s": remote_self,
        "worker_case_s": tracer.remote_edges.get((tracing.WORKER_ROOT, "verify.case"), [0, 0.0])[1],
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    name = spec["workload"]
    workload = WORKLOADS.get(name) or next(w for w in SELFTEST if w.name == name)
    out_dir = Path(spec["out_dir"])

    t0 = perf_counter()
    import rckit
    import rckit.cli
    from rckit import field

    import_s = perf_counter() - t0
    if not Path(rckit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"rckit imported from {rckit.__file__}, not from the checkout", file=sys.stderr)
        return 2
    t0 = perf_counter()
    for label in workload.fields:
        field.parse_field_label(label)
    field_setup_s = perf_counter() - t0

    tracer = None
    main_fn = rckit.cli.main
    if spec["trace"]:
        tracer = tracing.install()
        main_fn = tracer.wrap("cli.main", rckit.cli.main)

    invocations = run_invocations(main_fn, workload, spec["seed"], out_dir)

    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    import numpy

    result = {
        "invocations": invocations,
        "wall_s": sum(r["seconds"] for r in invocations),
        "cases": sum(r.get("cases") or 0 for r in invocations),
        "import_s": import_s,
        "field_setup_s": field_setup_s,
        "peak_rss_mb": rss_kib * 1024 / 1e6,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        # the traced wall is the sum of the top-level spans themselves, so
        # that the self times add up to it exactly
        result["wall_s"] = tracer.edges[(tracing.ROOT, "cli.main")][1]
        result["trace"] = layer_metrics(tracer)
        result["trace"]["layers"]["cli.import_s"] = import_s
        result["trace"]["layers"]["field.setup_s"] = field_setup_s
        spans_path = out_dir / f"spans-{name}-seed{spec['seed']}.jsonl"
        with spans_path.open("w") as fh:
            for sid, pid, span, s0, s1 in tracer.spans:
                fh.write(json.dumps({"id": sid, "parent": pid, "name": span, "start": s0, "end": s1}))
                fh.write("\n")
        result["trace"]["spans_file"] = str(spans_path.relative_to(ROOT))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
