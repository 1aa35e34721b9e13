#!/usr/bin/env python3
"""mcbench: build the harness from source and run one workload.

    python3 mcbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 mcbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds the
mobcache library and the harness under .bench_build/mcbench (RelWithDebInfo);
later runs only rebuild what changed. Each workload runs in its own harness
process.

Output: the harness's human-readable lines, one "run" line with the machine
facts and the exact command, and as the last line one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end metrics, with --trace 1 the per-layer metrics. Every run is
also appended, with its informational fields (model report, result digest,
failed_ratio), to .bench_build/runs.jsonl or the file given by --log; that
file is what compare.py reads.

Exits 2 without printing a result when the library sources are missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "mcbench"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("headline", "sweep", "fleet", "telemetry")
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(f"mcbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "mcbench_harness"


def compiler():
    """First line of the configured C++ compiler's --version."""
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                exe = line.split("=", 1)[1]
                out = subprocess.run([exe, "--version"], capture_output=True,
                                     text=True, timeout=30).stdout
                return out.splitlines()[0] if out else exe
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(harness, args):
    spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    # The harness fixes every size itself; drop the library's environment
    # overrides so a stray variable cannot change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MOBCACHE_")}
    env["MOBCACHE_RESULTS_DIR"] = str(OUT / "results")
    cmd = [str(harness), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {HARNESS_TIMEOUT_S} s")
        return 1, None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"harness exited {proc.returncode} without a result")
        return proc.returncode or 1, None

    want = declared_metrics(args.trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        log("harness metrics differ from BENCHMARK.json: "
            f"{sorted(set(want) ^ set(result['metrics']))}")
        result["correct"] = False
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--log", type=Path, default=OUT / "runs.jsonl",
                    help="file every run record is appended to")
    args = ap.parse_args()

    harness = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rc = 0
    for name in workloads:
        args.workload = name
        code, result = run_one(harness, args)
        if result is None:
            return code
        rc = rc or code
        facts = {
            "workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "jobs": result["info"].get("jobs"),
            "nproc": os.cpu_count(), "build_type": BUILD_TYPE,
            "compiler": compiler(),
            "command": " ".join([Path(sys.executable).name] + sys.argv),
        }
        print("run " + json.dumps(facts))
        record = dict(facts, time=time.time(), **result)
        args.log.parent.mkdir(parents=True, exist_ok=True)
        with args.log.open("a") as f:
            f.write(json.dumps(record) + "\n")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{name}." if len(workloads) > 1 else ""
        for key, value in result["metrics"].items():
            combined["metrics"][prefix + key] = value
    print(json.dumps(combined))
    return rc


if __name__ == "__main__":
    sys.exit(main())
