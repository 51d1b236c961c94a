"""Benchmark for ghzgames: CLI latency, sampled play, urn play and enumeration.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {cli,play,urn,enumerate,all} \\
        --seed N --seconds S --trace {0,1} [--smoke]

BENCHMARK.json gates cli and play. urn and enumerate time the pure-Python
urn engine and state enumeration; they report the same metrics but are not
gated, because this code's speed moves too much with the host's load.

One closed-loop client in one process, no threads: each op starts when the
previous one has finished. The run repeats whole rotations of the workload's
ops for at least ``--seconds`` and at least 100 ops, so the p90 has ten
samples beyond it. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones from a traced run; the last line of stdout is one JSON
object. Results and spans are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli", "play", "urn", "enumerate")
SETUP_REPS = 7
MIN_SAMPLES = 100
CHILD_TIMEOUT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one rotation: checks the harness only")
    p.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--setup-s", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --------------------------------------------------------------------------
# child processes: a fresh interpreter that imports the package


def _build(args, env):
    import workloads
    from tracing import Tracer

    wl = workloads.build(args.workload, args.seed, args.smoke, env)
    wl.warmup(Tracer(False))
    return wl


def _run_op(tr, op):
    """Time one op; returns (seconds, failure message or None)."""
    tr.op_id += 1
    start = time.perf_counter()
    try:
        result = tr.call(f"op.{op.name}", op.run, tr)
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return time.perf_counter() - start, f"{op.name}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        error = op.check(result)
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # malformed output
        error = f"unreadable result: {type(exc).__name__}: {exc}"
    return elapsed, f"{op.name}: {error}" if error else None


def _loop(wl, tr, seconds: float, min_samples: int) -> tuple[list[float], list[str]]:
    """Whole rotations; returns op latencies and failure messages."""
    latencies, failures = [], []
    start = time.perf_counter()
    while True:
        for op in wl.ops:
            elapsed, failure = _run_op(tr, op)
            latencies.append(elapsed)
            if failure:
                failures.append(failure)
        if time.perf_counter() - start >= seconds and len(latencies) >= min_samples:
            return latencies, failures


def _peak_rss_mib(wl) -> float:
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def _end_to_end(wl, latencies, failures, setup_s) -> dict:
    ms = [x * 1e3 for x in latencies]
    return {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "ops_per_s": (len(ms) - len(failures)) / (sum(ms) / 1e3),
        "pass_ratio": 1 - len(failures) / len(ms),
        "peak_rss_mib": _peak_rss_mib(wl),
    }


def _known_defects() -> list[dict]:
    import workloads
    from tracing import Tracer

    report = []
    for op in workloads.known_defects():
        _, failure = _run_op(Tracer(False), op)
        report.append({"op": op.name, "status": "reproduced" if failure else "passes", "detail": failure})
    return report


def measure(args, env) -> dict:
    import layers
    from tracing import Tracer

    wl = _build(args, env)
    # Keep the harness's long-lived objects (modules, inputs, reference
    # results) out of full collections, so those cost what the ops allocate.
    gc.freeze()
    out = {"size": wl.size, "numpy": metadata.version("numpy")}
    if not args.trace:
        latencies, failures = _loop(wl, Tracer(False), args.seconds, 1 if args.smoke else MIN_SAMPLES)
        out["metrics"] = _end_to_end(wl, latencies, failures, args.setup_s)
    else:
        # Untraced and traced rotations alternate, so drift in machine speed
        # falls on both; the probes then give every per-layer metric.
        tr, ratios, latencies, failures = Tracer(True), [], [], []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or not ratios:
            plain, plain_failures = _loop(wl, Tracer(False), 0, 1)
            traced, traced_failures = _loop(wl, tr, 0, 1)
            ratios.append(sum(traced) / sum(plain))
            latencies += plain + traced
            failures += plain_failures + traced_failures
        probes = Tracer(True)
        metrics, probe_failures = layers.sweep(probes, args.seed, args.smoke)
        metrics.update(layers.import_breakdown(env, 1 if args.smoke else 5))
        metrics["trace.overhead_ratio"] = statistics.median(ratios) - 1
        out["metrics"] = metrics
        failures += probe_failures
        traced_ops = len(latencies) // 2
        out["self_ms_per_op"] = {k: v * 1e3 / traced_ops for k, v in sorted(tr.self_seconds().items())}
        out["probe_self_ms"] = {k: v * 1e3 for k, v in sorted(probes.self_seconds().items())}
        out["trace_files"] = []
        for tracer, suffix in ((tr, ""), (probes, "-probes")):
            path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}{suffix}.json"
            tracer.dump(path, {"workload": args.workload, "seed": args.seed, "counts": dict(tracer.counts)})
            out["trace_files"].append(str(path.relative_to(HERE.parent)))
    out["attempted"] = len(latencies)
    out["failures"] = failures
    out["known_defects"] = _known_defects()
    return out


# --------------------------------------------------------------------------
# parent: set-up samples, the measuring child, provenance and the report


def _child(args, role: str, extra=()) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(HERE / "run.py"), "--role", role, "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if args.smoke:
        argv.append("--smoke")
    return subprocess.run(argv, env=args.env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)


def setup_seconds(args) -> float | None:
    """Median wall time of fresh interpreters that import, build and warm up."""
    samples = []
    for _ in range(1 if args.smoke else SETUP_REPS):
        start = time.perf_counter()
        if _child(args, "setup").returncode != 0:
            return None
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind = (index / "level").read_text().strip(), (index / "type").read_text().strip()
            if kind != "Instruction" and level in ("2", "3"):
                sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def provenance(args, root: Path, workload: str, result: dict) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = ""
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpu": model,
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "git_sha": sha or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "client": "one process, one closed-loop client, no threads",
        "size": result["size"],
    }


def declared_units(root: Path, trace: int) -> dict[str, str]:
    """Metric name -> unit, from the benchmark's definition file."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args, root: Path, workload: str) -> dict | None:
    args.workload = workload
    extra = ()
    if not args.trace:
        setup_s = setup_seconds(args)
        if setup_s is None:
            print(f"error: {workload} set-up failed", file=sys.stderr)
            return None
        extra = ("--setup-s", repr(setup_s))
    child = _child(args, "measure", extra)
    if child.returncode != 0:
        print(f"error: {workload} run failed with exit code {child.returncode}", file=sys.stderr)
        return None
    result = json.loads(child.stdout.strip().splitlines()[-1])
    record = {"provenance": provenance(args, root, workload, result)}
    record.update((k, v) for k, v in result.items() if k not in ("size", "numpy"))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))
    for failure in result["failures"][:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    for layer, ms in result.get("self_ms_per_op", {}).items():
        print(f"self time per op, layer {layer}: {ms:.3f} ms", file=sys.stderr)
    for defect in result["known_defects"]:
        print(f"known defect {defect['op']}: {defect['status']} ({defect['detail']})", file=sys.stderr)
    units = declared_units(root, args.trace)
    if set(units) != set(result["metrics"]):
        print(f"error: measured metrics differ from BENCHMARK.json: {set(units) ^ set(result['metrics'])}",
              file=sys.stderr)
        return None
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "ghzgames" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("error: run from the root of a ghzgames checkout (src/ghzgames and BENCHMARK.json)", file=sys.stderr)
        return 2
    args.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    if args.role:
        sys.path.insert(0, str(src))
        if args.role == "setup":
            _build(args, args.env)
            return 0
        print(json.dumps(measure(args, args.env)))
        return 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        summary = run_workload(args, root, name)
        if summary is None:
            return 1
        results[name] = summary
        for metric, m in summary["metrics"].items():
            print(f"{name:<10} {metric:<45} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<10} correct={summary['correct']} attempted={summary['attempted']} failed={summary['failed']}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
