"""Benchmark of the clgames command line and library, run from a source checkout.

    python3 perfbench/run.py --workload small-pairs --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

One workload runs in ``WORKERS`` fresh processes, one after the other, each
single-threaded and a closed loop: the next operation starts when the
previous one returns.  Each worker sets up (import, input generation,
writing the input files) ``SETUP_REPEATS`` times, then repeats whole passes
over the workload's operations for its share of ``--seconds``, at least
once.  ``setup_s`` is the median set-up and ``run_s`` the median pass over
all workers; each operation's latency is its median over all passes, and
``op_s.p50`` and ``op_s.p90`` are percentiles of those over the workload's
operations.  Every answer is checked exactly after each pass; a wrong
answer makes the exit code 1.

All these times are taken with a ``pace.Pacer``: net of its probes and
rescaled to a reference machine speed, so that the speed changes of a
shared host cancel out (see ``pace.py``).

With ``--trace 1`` the first worker runs one more pass under cProfile and
the per-layer metrics are reported instead of the end-to-end ones.
``--workload all`` runs each workload in turn and prints one row per
workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
with the environment and, when traced, the spans, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import pace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
WORKERS = 3
RUN_TIMEOUT_S = 170


def clgames_source() -> Path:
    src = ROOT / "src"
    if not (src / "clgames" / "__init__.py").is_file():
        raise SystemExit(f"error: no clgames package under {src}; run from a source checkout")
    return src


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(ops, spans=None, clock=None):
    """Run every operation once.  Returns answers by operation name, the
    latencies by name of the operations that succeeded, the failures and
    the time of the pass, all timed by ``clock`` (plain wall time by
    default, or a ``pace.Pacer``)."""
    clock = clock or pace.Clock()
    raws, latencies, failures = {}, {}, []
    gc.collect()
    total = 0.0
    for op in ops:
        start = clock.mark()
        try:
            if spans is None:
                raws[op.name] = op.run()
            else:
                with spans.span(op.name):
                    raws[op.name] = op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        latency = clock.elapsed(start)
        total += latency
        if op.name in raws:
            latencies[op.name] = latency
    answers = {op.name: op.answer(raws[op.name]) for op in ops if op.name in raws}
    return answers, latencies, failures, total


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Runs the workload in ``WORKERS`` fresh processes, one after the
    other, and merges what they measured.

    The same code runs up to 15 % faster or slower in one process than in
    the next, operation by operation, with the interpreter's string-hash
    seed and memory layout; several processes per run average that out.
    Each worker gets its own hash seed, derived from the benchmark seed.
    """
    records = []
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for index in range(WORKERS):
        path = _worker_record(name, seed, int(trace and index == 0), index)
        path.unlink(missing_ok=True)
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds / WORKERS),
                "--trace", str(int(trace and index == 0)), "--worker", str(index)]
        env = {**os.environ, "PYTHONHASHSEED": str((seed * WORKERS + index) % 2**32)}
        proc = subprocess.run(argv, env=env, timeout=max(deadline - time.monotonic(), 1))
        if proc.returncode != 0 or not path.exists():
            raise SystemExit(f"error: worker {index} of {name} exited {proc.returncode}")
        records.append(json.loads(path.read_text()))
    record = merge(records)
    record["env"] = {**environment(seed), "operations_per_pass": records[0]["operations_per_pass"],
                     "workers": WORKERS}
    return record


def _worker_record(name: str, seed: int, trace: int, index: int) -> Path:
    return OUT / f"{name}-seed{seed}-trace{trace}-worker{index}.json"


def worker(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up, then timed passes for ``seconds``, then with ``trace`` one
    traced pass; returns everything measured, unreduced."""
    sys.path.insert(0, str(clgames_source()))
    setup_times = []
    workdirs = []
    try:
        with pace.Pacer() as pacer:
            for _ in range(SETUP_REPEATS):
                workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
                workdirs.append(workdir)
                gc.collect()  # the previous import's modules are garbage now
                start = pacer.mark()
                cg = workloads.import_clgames()
                workload = workloads.build(name, cg, seed, workdir)
                setup_times.append(pacer.elapsed(start))
            record = _measure(workload, pacer, seconds)
        if trace:
            _trace(record, workload, cg)
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)
    record["setup_s"] = setup_times
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["operations_per_pass"] = len(workload.ops)
    return record


def _measure(workload, pacer, seconds: float) -> dict:
    samples = {op.name: [] for op in workload.ops}
    pass_times, wall_times, failures, mismatches = [], [], [], []
    attempted = 0
    cert_bytes = 0
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        answers, lat, failed, elapsed = run_pass(workload.ops, clock=pacer)
        wall_times.append(time.perf_counter() - t0)
        attempted += len(workload.ops)
        for name, latency in lat.items():
            samples[name].append(latency)
        failures.extend(failed)
        pass_times.append(elapsed)
        mismatches.extend(workload.check(answers))
        cert_bytes = sum(p.stat().st_size for p in workload.cert_paths if p.exists())
        if not lat:
            break  # every operation failed; more passes would only repeat that
    return {
        "workload": workload.name,
        "attempted": attempted,
        "failed": len(failures),
        "mismatches": mismatches,
        "failures": failures[:20],
        "pass_s": pass_times,
        "pass_wall_s": wall_times,
        "probe_share": pacer.probed_s / (time.perf_counter() - start),
        "probe_s_median": statistics.median(pacer.durations),
        "op_s": samples,
        "cert_bytes": cert_bytes,
    }


def _trace(record, workload, cg):
    """Adds one traced pass, without probes, to ``record``."""
    (answers, _, failed, wall), per_layer, spans = traced_pass(workload.ops, cg)
    record["attempted"] += len(workload.ops)
    record["failed"] += len(failed)
    record["failures"].extend(failed[:20])
    record["mismatches"].extend(workload.check(answers))
    per_layer["game.cert_bytes"] = (record["cert_bytes"], "bytes")
    # both in plain wall time, probes included in the untraced passes
    per_layer["trace.overhead"] = (wall / statistics.median(record["pass_wall_s"]), "ratio")
    record["per_layer"] = per_layer
    record["spans"] = spans.as_json()


def merge(records: list) -> dict:
    """One record and the end-to-end metrics from the workers' records."""
    samples = {}
    for r in records:
        for name, lat in r["op_s"].items():
            samples.setdefault(name, []).extend(lat)
    pass_times = [t for r in records for t in r["pass_s"]]
    # one latency per operation, its median over all passes; the
    # percentiles are those of the workload's mix of operations
    latencies = [statistics.median(lat) for lat in samples.values() if lat]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive") if len(latencies) > 1 else [0] * 9
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    merged = {
        "workload": records[0]["workload"],
        "attempted": attempted,
        "failed": failed,
        "mismatches": [m for r in records for m in r["mismatches"]],
        "failures": [f for r in records for f in r["failures"]][:20],
        "fail_ratio": failed / attempted,
        "cert_bytes": records[0]["cert_bytes"],
        "operations": len(latencies),
        "passes": len(pass_times),
        "metrics": {
            "setup_s": (statistics.median(t for r in records for t in r["setup_s"]), "s"),
            "run_s": (statistics.median(pass_times), "s"),
            "op_s.p50": (statistics.median(latencies) if latencies else 0.0, "s"),
            "op_s.p90": (deciles[8], "s"),
            "peak_rss_mib": (max(r["peak_rss_mib"] for r in records), "MiB"),
        },
        "workers": records,
    }
    traced = [r for r in records if "per_layer" in r]
    if traced:
        merged["per_layer"] = traced[0]["per_layer"]
    return merged


def traced_pass(ops, cg):
    """One pass under cProfile.  Returns what ``run_pass`` returns, the
    per-layer metrics and the spans.

    Every command-line call imports the package, so the traced pass starts
    with one fresh import; the operations keep using the modules they were
    built with, and ``cg`` names those.
    """

    def fresh_import_then_pass():
        workloads.import_clgames()
        return run_pass(ops, spans)

    spans = layers.Spans()
    with layers.spans_at_layer_entries(cg, spans):
        result, stats = layers.profiled(fresh_import_then_pass)
    return result, layers.reduce_stats(stats, cg), spans


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def row(record: dict) -> str:
    metrics = {**record["metrics"], "fail_ratio": (record["fail_ratio"], "ratio"),
               "cert_bytes": (record["cert_bytes"], "bytes")}
    cells = [f"{k}={_fmt(v)} {u}" for k, (v, u) in metrics.items()]
    cells.append(f"ops={record['attempted']} (percentiles over {record['operations']} operations, "
                 f"each the median of {record['passes']} passes)")
    return f"{record['workload']:<20} " + "  ".join(cells)


def result_line(record: dict, trace: bool) -> str:
    kind, measured = ("per_layer", record["per_layer"]) if trace else ("end_to_end", record["metrics"])
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    chosen = {m["name"]: measured[m["name"]] for m in listed}
    return json.dumps({
        "correct": not record["mismatches"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    })


def run_all(args) -> int:
    """Each workload in a fresh process; one row per workload."""
    results, code = {}, 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:<20} FAILED (exit {proc.returncode})")
            code = 1
            continue
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": code == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="small-pairs, witness-families, formulas-structures or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    clgames_source()
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    if args.worker is not None:
        record = worker(args.workload, args.seed, args.seconds, bool(args.trace))
        out = _worker_record(args.workload, args.seed, args.trace, args.worker)
        out.write_text(json.dumps(record, default=str) + "\n")
        return 0
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    env = record["env"]
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(row(record))
    if args.trace:
        print("per-layer: " + "  ".join(
            f"{k}={_fmt(v)} {u}" for k, (v, u) in record["per_layer"].items()))
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for line in record["mismatches"][:10]:
        print(f"mismatch: {line}", file=sys.stderr)
    print(result_line(record, bool(args.trace)))
    return 0 if not record["mismatches"] else 1


if __name__ == "__main__":
    sys.exit(main())
