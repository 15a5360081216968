#!/usr/bin/env python3
"""Runs the benchmark: builds the driver from source, runs one workload (or
all of them, each in its own process), checks the answers, and prints a
report followed by one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload front_repeat --smoke

Run it from the root of the repository. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones. The exit status is 0 only when every
answer checked out.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = HERE / "workloads.json"
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    # The build lands in CARGO_TARGET_DIR when set (relative to the root).
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def nproc():
    return len(os.sched_getaffinity(0))


def budget(config):
    return max(config["budget"].values())


def build():
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "perfbench-build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_driver",
                  "-j", str(nproc())])
    with open(log, "w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    return out / "perfbench_driver"


def read_steal():
    """(steal ticks, all ticks) of the cpu line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def loadavg():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def source_sha():
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except OSError:
        pass
    return "none"


def build_type():
    cache = build_dir() / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "?"


def run_one(driver, name, args, seconds, setup_reps):
    steal0, ticks0 = read_steal()
    load0 = loadavg()
    command = [str(driver), "--config", str(CONFIG), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(seconds),
               "--trace", str(args.trace)]
    if setup_reps:
        command += ["--setup-reps", str(setup_reps)]
    if args.corrupt_every:
        command += ["--corrupt-every", str(args.corrupt_every)]
    if args.trace:
        command += ["--spans-out",
                    str(build_dir() / f"spans-{name}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name}: driver did not finish within {DRIVER_TIMEOUT_S} s")
    steal1, ticks1 = read_steal()
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{name}: driver exited {done.returncode} without a result")
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    result["host"] = {
        "git_sha": git_sha(),
        "source_sha": source_sha(),
        "build_type": build_type(),
        "nproc": nproc(),
        "loadavg_before": load0,
        "loadavg_after": loadavg(),
        "steal_ticks": steal1 - steal0,
        "steal_share": (steal1 - steal0) / max(1, ticks1 - ticks0),
        "calibration_ms": result.pop("calibration_ms"),
    }
    return result


def gated_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in json.loads(spec.read_text())[key]}


def report(result, config, gated):
    name = result["workload"]
    print(f"== {name} seed={result['seed']} trace={result['trace']} "
          f"inputs={result['inputs']} fingerprint={result['fingerprint']}")
    b = config["budget"]
    print("   budget: " + ", ".join(f"{k}={v}" for k, v in b.items()) +
          f" (largest {budget(config)} <= nproc {nproc()})")
    print("   host: " + json.dumps(result["host"], sort_keys=True))
    for m in result["metrics"]:
        moves = f"  -> {m['moves']}" if "moves" in m else ""
        if gated is not None and m["name"] not in gated:
            moves += "  (report only)"
        print(f"   {m['name']:<30} {m['value']:>14.6g} {m['unit']:<6} "
              f"n={m['samples']}{moves}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"   {'failed_ratio':<30} {failed / max(1, attempted):>14.6g} ratio  "
          f"n={attempted}")
    notes = dict(result["notes"])
    spans = notes.pop("spans", None)
    print("   notes: " + json.dumps(notes, sort_keys=True))
    if spans:
        print("   spans (name, count, mean us, self mean us):")
        for s in spans:
            print(f"     {s['name']:<30} {s['count']:>8} "
                  f"{s['mean_us']:>12.3f} {s['self_mean_us']:>12.3f}")
    for error in result["errors"]:
        print("   WRONG: " + error)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one short set-up and a 1 s measurement")
    parser.add_argument("--corrupt-every", type=int, default=0,
                        help="corrupt every N-th answer before checking it "
                             "(shows that wrong answers fail the run)")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT}; run from a full checkout")
    workloads = json.loads(CONFIG.read_text())["workloads"]
    names = list(workloads) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads:
            fail(f"unknown workload '{name}' (known: {', '.join(workloads)})")
        if budget(workloads[name]) > nproc():
            fail(f"{name}: thread budget {workloads[name]['budget']} needs "
                 f"{budget(workloads[name])} cores, but only {nproc()} are "
                 f"available; refusing to run")
    seconds = args.seconds or (1.0 if args.smoke else 20.0)
    driver = build()

    # The last line carries the metrics BENCHMARK.json gates for this kind of
    # run; the report also prints the report-only ones.
    gated = gated_metrics(args.trace)
    results = []
    for name in names:
        result = run_one(driver, name, args, seconds, 1 if args.smoke else 0)
        report(result, workloads[name], gated)
        results.append(result)

    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "/"
        for m in r["metrics"]:
            if gated is None or m["name"] in gated:
                metrics[prefix + m["name"]] = {"value": m["value"],
                                               "unit": m["unit"]}
    correct = all(r["correct"] and r["exit_code"] == 0 for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
