"""rckit's benchmark: suite wall time on fixed workloads, and traced layers.

    python3 perfbench/run.py --workload sym4-f2 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each workload in turn
    python3 perfbench/run.py --selftest

Run from anywhere inside a checkout; rckit is imported from the checkout's
`src/`.  With `--trace 0` it measures set-up time over repeated fresh
interpreters, then runs whole workload passes, each in a fresh interpreter,
for about `--seconds` (at least one pass; another starts only if it is
expected to end within half a pass of the window), and prints the end-to-end
metrics.  With `--trace 1` it runs one untraced and one traced pass and
prints the per-layer metrics and the tracing overhead.  Every report is
checked against the pins in workloads.py.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 only when every report was correct.  See METRICS.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

from child import percentile  # noqa: E402
from workloads import SELFTEST, WORKLOADS  # noqa: E402

SETUP_LAUNCHES = 15  # plus one discarded warm-up launch
CHILD_TIMEOUT_S = 170

# the end-to-end metrics of a --trace 0 run and the per-layer metrics of a
# --trace 1 run, in the order they are printed; units as in BENCHMARK.json
END_TO_END = {
    "wall_s": "s",
    "cases_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "field.setup_s": "s",
    "field.mul_calls": "count",
    "field.add_calls": "count",
    "opspace.enumerate_s": "s",
    "opspace.cases_enumerated": "count",
    "opspace.decode_s": "s",
    "opspace.decode_calls": "count",
    "rcmaps.solve_s": "s",
    "rcmaps.solve_calls": "count",
    "rcmaps.solve_case_ms.p50": "ms",
    "rcmaps.solve_case_ms.p99": "ms",
    "rcmaps.elements_walked": "count",
    "linalg.left_kernel_s": "s",
    "linalg.left_kernel_calls": "count",
    "linalg.rows_folded": "count",
    "linalg.rows_useful": "count",
    "linalg.fold_useful_ratio": "ratio",
    "linalg.fold_s": "s",
    "linalg.kernel_basis_s": "s",
    "verify.suite_s": "s",
    "verify.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
# layers that only some workloads reach: printed where they are non-zero,
# not part of the result line (a time that reads 0 on every run of a
# workload is no measurement)
PER_LAYER_SOME = {
    "opspace.quotient_s": "s",
    "rcmaps.target_s": "s",
    "rcmaps.decide_s": "s",
    "verify.pool_s": "s",
    "verify.cases_dispatched": "count",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("RC_KIT_CAP", None)  # the pinned reports carry the default cap
    return env


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> str:
    """Run a fresh interpreter to completion and return its standard output."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        timeout=timeout,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} exited with {proc.returncode}")
    return proc.stdout


def setup_seconds(fields: tuple[str, ...]) -> float:
    """Fresh interpreter to ready: `import rckit.cli` plus the workload's
    field tables, measured from just before the spawn to the child's ready
    stamp (both CLOCK_MONOTONIC)."""
    code = (
        "import time, rckit.cli\n"
        "from rckit.field import parse_field_label\n"
        f"for label in {list(fields)!r}: parse_field_label(label)\n"
        "print(repr(time.monotonic()))\n"
    )
    t0 = time.monotonic()
    ready = float(run_child(["-c", code], timeout=60).split()[-1])
    return ready - t0


def workload_pass(name: str, seed: int, trace: bool) -> dict:
    spec = {"workload": name, "seed": seed, "trace": trace, "out_dir": str(OUT_DIR)}
    out = run_child([str(HERE / "child.py"), json.dumps(spec)])
    return json.loads(out.strip().splitlines()[-1])


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "no percentile has 10 samples beyond it"
    pct = 100 * (n - 10) // n
    return f"p{pct} {percentile(values, pct):.6g}"


def environment(load_before: tuple[float, ...]) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }


def check_invocations(passes: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    lines = []
    for p in passes:
        for inv in p["invocations"]:
            attempted += 1
            if not inv["correct"]:
                failed += 1
                lines.append(
                    f"WRONG OUTPUT: {' '.join(inv['argv'])}: exit {inv['exit']}, "
                    f"verdict {inv.get('verdict')}, casesRun {inv.get('cases')} "
                    f"(pinned {inv['pinned_cases']}), digest {inv.get('digest')}"
                )
    return attempted, failed, lines


def measure(name: str, seed: int, seconds: float) -> tuple[dict, list[dict], list[str]]:
    workload = WORKLOADS[name]
    setup_seconds(workload.fields)  # warm-up: bytecode caches, page cache
    setups = [setup_seconds(workload.fields) for _ in range(SETUP_LAUNCHES)]
    passes = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(workload_pass(name, seed, trace=False))
        took = time.monotonic() - t0
        # start another pass only if it is expected to end less than half a
        # pass after the window, so that a run's length stays near `seconds`
        if time.monotonic() - start + took / 2 > seconds:
            break
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "cases_per_s": [p["cases"] / p["wall_s"] for p in passes],
        "setup_s": setups,
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    lines = []
    metrics = {}
    for metric, unit in END_TO_END.items():
        values = samples[metric]
        metrics[metric] = statistics.median(values)
        lines.append(
            f"{name} {metric:<12} median {metrics[metric]:.6g} {unit}  "
            f"{tail_percentile(values)}  n={len(values)}"
        )
    for i, p in enumerate(passes):
        for inv in p["invocations"]:
            lines.append(
                f"  pass {i}: {' '.join(inv['argv'])}: {inv['seconds']:.3f} s, "
                f"casesRun {inv.get('cases')}, digest {inv.get('digest')}"
            )
    return metrics, passes, lines


def trace(name: str, seed: int) -> tuple[dict, list[dict], list[str]]:
    plain = workload_pass(name, seed, trace=False)
    traced = workload_pass(name, seed, trace=True)
    t = traced["trace"]
    layers = dict(t["layers"])
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    lines = [
        f"{name} untraced wall {plain['wall_s']:.6g} s, traced wall {traced['wall_s']:.6g} s, "
        f"overhead {layers['trace.overhead_s']:.6g} s "
        f"({100 * layers['trace.overhead_s'] / plain['wall_s']:.1f}%)",
        f"{name} span self times sum to {t['self_sum_s']:.6g} s "
        f"against traced wall {traced['wall_s']:.6g} s",
    ]
    if t["worker_case_s"]:
        lines.append(
            f"{name} pool workers: span self times sum to {t['worker_self_sum_s']:.6g} s "
            f"against {t['worker_case_s']:.6g} s of worker case spans (spans collected "
            "from the forked workers; they overlap verify.dispatch in time)"
        )
    for metric, unit in {**PER_LAYER, **PER_LAYER_SOME}.items():
        value = layers[metric]
        if metric in PER_LAYER or value:
            shown = f"{value:.6g}" if isinstance(value, float) else value
            lines.append(f"{name} {metric:<26} {shown} {unit}")
    lines.append(f"{name} spans by self time (parent > name: count, total s, self s):")
    for e in t["edges"]:
        lines.append(
            f"  {e['parent']} > {e['name']}: {e['count']}, {e['total_s']:.6g}, {e['self_s']:.6g}"
        )
    lines.append(f"{name} spans written to {t['spans_file']}")
    return {m: layers[m] for m in PER_LAYER}, [plain, traced], lines


def selftest() -> int:
    """Tiny workloads, traced and untraced: digests agree with the pins,
    the solver walked every element and folded rows, and self times add up."""
    OUT_DIR.mkdir(exist_ok=True)
    problems = []
    for workload in SELFTEST:
        plain = workload_pass(workload.name, 0, trace=False)
        traced = workload_pass(workload.name, 0, trace=True)
        _, _, lines = check_invocations([plain, traced])
        problems += lines
        digests = [[i.get("digest") for i in p["invocations"]] for p in (plain, traced)]
        if digests[0] != digests[1]:
            problems.append(f"{workload.name}: traced digests {digests[1]} != untraced {digests[0]}")
        t = traced["trace"]
        if abs(t["self_sum_s"] - traced["wall_s"]) > 1e-9 * traced["wall_s"]:
            problems.append(
                f"{workload.name}: self times sum to {t['self_sum_s']} s, traced wall {traced['wall_s']} s"
            )
        if abs(t["worker_self_sum_s"] - t["worker_case_s"]) > 1e-9 * max(1.0, t["worker_case_s"]):
            problems.append(f"{workload.name}: worker self times do not add up to worker case time")
        if workload.name == "selftest-sym":
            # Sym_3(F_2) has dimension 6: the full space (2^6 elements) and
            # 63 hyperplanes (2^5 elements each)
            want = 2**6 + (2**6 - 1) * 2**5
            walked = t["layers"]["rcmaps.elements_walked"]
            if walked != want:
                problems.append(f"{workload.name}: elements_walked {walked} != {want}")
            if t["layers"]["linalg.rows_folded"] <= 0:
                problems.append(f"{workload.name}: no constraint rows folded")
        else:
            if t["layers"]["verify.cases_dispatched"] != workload.invocations[0].cases:
                problems.append(f"{workload.name}: not every case was traced in a pool worker")
        print(f"{workload.name}: untraced {plain['wall_s']:.3f} s, traced {traced['wall_s']:.3f} s")
    for line in problems:
        print(f"SELFTEST FAIL: {line}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> bool:
    """Measure one workload, print its lines and result line; True when
    every report was correct."""
    load_before = os.getloadavg()
    if traced:
        metrics, passes, lines = trace(name, seed)
        units = PER_LAYER
    else:
        metrics, passes, lines = measure(name, seed, seconds)
        units = END_TO_END
    attempted, failed, wrong = check_invocations(passes)
    env = environment(load_before)
    env["numpy"] = passes[0]["numpy"]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "passes": passes,
    }
    path = OUT_DIR / f"result-{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for line in lines + wrong:
        print(line)
    print(f"{name} fail_frac {failed / attempted:.6g} ({failed} of {attempted} suite invocations wrong)")
    print(f"{name} seed {seed}; env {json.dumps(env)}")
    print(f"{name} full record in {path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return failed == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "rckit" / "cli.py").is_file():
        print(f"error: no rckit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    OUT_DIR.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
