"""netmoment benchmark: one workload, measured in fresh child processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports netmoment from ./src.  The
workloads and metrics are declared in BENCHMARK.json; bench/workloads.py
defines what each workload runs and checks.

Every pass runs in a fresh single-threaded child process: NETMOMENT_THREADS
and the BLAS/OpenMP pools are set to 1 (with two OpenBLAS threads on a
2-core machine the idle pool spins, doubling cpu_s while wall_s stays the
same).  Passes repeat until --seconds
have gone by (at least one of each kind).  With --trace 0 all passes are
untraced and the end-to-end metrics are the medians over them:

  setup_s      child start until the workload body begins (interpreter,
               `import netmoment`, loading or generating the inputs)
  wall_s       wall time of the workload body
  cpu_s        user + system CPU time of the child during the body
  peak_rss_mb  the child's ru_maxrss after the body

With --trace 1 untraced and traced passes alternate; the per-layer metrics
are medians over the traced passes, and trace.overhead_s is the traced minus
the untraced median wall_s.  Every pass checks the program's outputs;
`attempted`/`failed` count those checks (failed/attempted is the run's
fail ratio) and `correct` is false when a check outside the workload's known
defects fails.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A run record (environment, inputs, every
pass, and the spans of traced passes) goes to .bench_work/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from layertrace import LAYERS

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH_DIR, "workloads.py")
WORKDIR = os.path.join(ROOT, ".bench_work")
PACKAGE = os.path.join(ROOT, "src", "netmoment")
NEEDS_REFERENCE = {"synth_large"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 150.0
# No pass starts unless the longest one so far still ends before this, so a
# run ends well inside three minutes whatever --seconds says.
RUN_LIMIT_S = 165.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"no BENCHMARK.json in {ROOT}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["NETMOMENT_THREADS"] = "1"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> dict:
    """Non-blank lines that are not only a comment, per module and in total."""
    counts = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                counts[name[:-3]] = sum(1 for line in fh
                                        if line.strip() and not line.lstrip().startswith("#"))
    out = {f"{layer}.src_lines": float(counts.get(layer, 0)) for layer in LAYERS}
    out["netmoment.src_lines"] = float(sum(counts.values()))
    return out


def run_child(args, pass_id: int, traced: bool = False, reference: bool = False) -> dict:
    result_path = os.path.join(WORKDIR, f"{args.workload}-pass.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, CHILD, "--workload", args.workload, "--seed", str(args.seed),
           "--pass-id", str(pass_id), "--workdir", WORKDIR, "--result", result_path]
    if traced:
        cmd.append("--trace")
    if reference:
        cmd.append("--reference")
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {pass_id} of {args.workload} exceeded "
                         f"{CHILD_TIMEOUT_S:.0f} s") from exc
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"pass {pass_id} of {args.workload} exited with "
                         f"{proc.returncode}:\n{proc.stderr.strip()}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(result_path)
    result["traced"] = traced
    result["elapsed_s"] = time.monotonic() - spawned
    if "body_start" in result:
        result["setup_s"] = result.pop("body_start") - spawned
    return result


def run_passes(args) -> list:
    """Untraced passes (alternating with traced ones under --trace 1)."""
    kinds = [False, True] if args.trace else [False]
    passes = []
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = kinds[len(passes) % len(kinds)]
        passes.append(run_child(args, len(passes), traced=traced))
        longest = max(longest, passes[-1]["elapsed_s"])
        elapsed = time.monotonic() - start
        if len(passes) >= len(kinds) and (elapsed >= args.seconds
                                          or elapsed + longest > RUN_LIMIT_S):
            return passes


def summary(values: list) -> tuple:
    """(median, first quartile, third quartile, count)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def end_to_end_metrics(spec: dict, passes: list) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    return {m["name"]: summary([p[m["name"]] for p in untraced]) for m in spec["end_to_end"]}


def per_layer_metrics(spec: dict, passes: list) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced_wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    lines = src_lines()
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in lines:
            out[name] = (lines[name], lines[name], lines[name], 1)
        elif name == "trace.overhead_s":
            wall = summary([p["wall_s"] for p in traced])
            out[name] = (wall[0] - untraced_wall, wall[1] - untraced_wall,
                         wall[2] - untraced_wall, wall[3])
        else:
            out[name] = summary([p["layers"].get(name, 0.0) for p in traced])
    return out


def write_record(args, passes: list, reference: dict | None, result: dict) -> str:
    first = passes[0]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {var: child_env().get(var) for var in ("NETMOMENT_THREADS",) + THREAD_VARS},
        "environment": first.get("environment"),
        "inputs": first.get("inputs"),
        "src_lines": src_lines(),
        "reference_pass": reference,
        "passes": [{k: v for k, v in p.items() if k not in ("spans", "environment", "inputs")}
                   for p in passes],
        "spans": [span for p in passes for span in p.get("spans", [])],
        "span_fields": ["name", "start", "end", "parent", "pass_id"],
        "result": result,
    }
    path = os.path.join(WORKDIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return path


def report(args, passes: list, stats: dict, units: dict,
           attempted: int, failed: list, record_path: str) -> None:
    n_traced = sum(p["traced"] for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} ({len(passes) - n_traced} untraced, {n_traced} traced)")
    for name, (med, q1, q3, n) in stats.items():
        print(f"  {name:42s} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"n={n}  {units[name]}")
    ratio = len(failed) / attempted
    print(f"  {'fail_ratio':42s} {ratio:.6g}  ({len(failed)} of {attempted} checks failed)")
    for name in sorted(set(failed)):
        print(f"    failed: {name} x{failed.count(name)}")
    if args.trace:
        layer_s = {layer: stats[f"{layer}.s"][0] for layer in LAYERS}
        total = sum(layer_s.values()) or 1.0
        shares = "  ".join(f"{k} {v / total:.1%}" for k, v in layer_s.items())
        print(f"  layer self-time shares: {shares}")
        wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
        print(f"  layer self-time sum {stats['trace.self_sum_s'][0]:.4f} s, untraced "
              f"wall_s {wall:.4f} s, trace.overhead_s {stats['trace.overhead_s'][0]:.4f} s")
    print(f"  record: {os.path.relpath(record_path, ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="netmoment benchmark (see BENCHMARK.json)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--perturb", help=argparse.SUPPRESS)  # forwarded to verify-specfun
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
            raise BenchError(f"no netmoment sources under {os.path.dirname(PACKAGE)}")
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        if args.seed < 0 or args.seconds < 1:
            raise BenchError("--seed must be >= 0 and --seconds >= 1")
        os.makedirs(WORKDIR, exist_ok=True)
        reference = None
        if args.workload in NEEDS_REFERENCE:
            reference = run_child(args, -1, reference=True)
        try:
            passes = run_passes(args)
        finally:
            if reference is not None and os.path.exists(reference["reference"]):
                os.remove(reference["reference"])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    stats = (per_layer_metrics if args.trace else end_to_end_metrics)(spec, passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = [name for p in passes for name in p["failed"]]
    result = {
        "correct": all(p["correct"] for p in passes),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": stats[name][0], "unit": units[name]} for name in stats},
    }
    record_path = write_record(args, passes, reference, result)
    report(args, passes, stats, units, attempted, failed, record_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
