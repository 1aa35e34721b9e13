#!/usr/bin/env python3
"""Process contracts of the experiment binaries and mobcache_simrun: how a
sweep stops, resumes, quarantines, remembers and exports. One subcommand
each; tools/CMakeLists.txt registers each as ctest contract.<name>.

  sigterm E6        E6 at 1.5 M records, --jobs=2, against a result store
                    (MOBCACHE_RESULT_STORE): SIGTERM after the first store
                    record appears must exit 75 with >= 1 record flushed,
                    and rerunning against that store must write the result
                    files of an uninterrupted run, byte for byte.
  keep-going E6     --keep-going --fail-points=3,7 completes with a manifest
                    of exactly 2 `numeric` failures and completed = points
                    - 2; --fail-points=5 without --keep-going exits 3.
  poison E6         E6 at 300 k records: a --point-deadline-ms=1 run under
                    --keep-going exits 5 having stored 40 poison records; a
                    rerun without the deadline exits 5, reports the 10
                    [deadline] failures and leaves the store's 40 files
                    byte-identical; --retry-failed exits 0 with
                    poison_stores 0, no failures, and the files of a
                    storeless run.
  simrun-store SIMRUN
                    a second `launcher all` run against one --store-dir is
                    served wholly from it (--metrics: hits > 0, misses 0).
  telemetry SIMRUN  --trace-out in jsonl and chrome with --metrics and
                    --sample: the traces hold partition-resize and l2.epoch
                    (DP-STT), drowsy-transition (all schemes) events, both
                    documents parse, and plot_timeline.py renders the trace.
  faults SIMRUN     fault injection with SEC-DED and DEC-TED, the traced run
                    exporting `fault` events, and two --fault-sweep runs at
                    --jobs=4.
  fleet-memory E22  10,000 streamed sessions at --jobs=2 stay under
                    --max-peak-rss-mb=512 and within 2.0x the peak RSS of
                    200 sessions (`check_bench.py rss-gate`).

Each contract runs in a fresh temporary directory. Every MOBCACHE_*
variable is removed from the runs' environment and only the ones a contract
sets are passed, so a developer's shell cannot change a verdict.

Usage: contracts.py <contract> BINARY   (as listed above)
Exits 0 when the contract holds, 1 when it does not, 2 on bad usage.
"""

import glob
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

import check_bench
from golden import differences, result_files

SCRIPTS = os.path.dirname(os.path.abspath(__file__))
FLEET_SMALL = ["--sessions=200", "--mean-accesses=8000"]


class Broken(Exception):
    """The contract does not hold; the message says which clause."""


def expect(ok, message):
    if not ok:
        raise Broken(message)


def env_with(settings):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MOBCACHE_")}
    env.update({f"MOBCACHE_{k}": str(v) for k, v in settings.items()})
    return env


def run(binary, *args, rc=0, **settings):
    """Runs `binary args` with MOBCACHE_<k>=v for each keyword setting and
    requires exit code `rc`."""
    proc = subprocess.run([binary, *args], env=env_with(settings),
                          capture_output=True, text=True)
    if proc.returncode != rc:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
    expect(proc.returncode == rc,
           f"{os.path.basename(binary)} {' '.join(args)} exited "
           f"{proc.returncode}, wanted {rc}")
    return proc


def script(name, *args):
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, name),
                           *args], capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    expect(proc.returncode == 0, f"{name} {args[0]} failed")


def bench_gate(gate, *args):
    """Runs one check_bench.py gate in process; it exits on failure."""
    try:
        gate(*args)
    except SystemExit:
        raise Broken(f"check_bench.py {gate.__name__} failed") from None


def report(results_dir, bench):
    with open(os.path.join(results_dir, f"BENCH_{bench}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def same_results(want_dir, got_dir):
    failures = differences(result_files(want_dir), result_files(got_dir))
    expect(not failures, "\n".join(failures))


def store_records(store):
    """Maps record file name -> bytes for every r*.json in `store`."""
    out = {}
    for path in sorted(glob.glob(os.path.join(store, "r*.json"))):
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = fh.read()
    return out


def sigterm(tmp, e6):
    ref, cut, resumed = (os.path.join(tmp, d) for d in ("ref", "cut",
                                                         "resumed"))
    store = os.path.join(tmp, "chaos-store")
    run(e6, "--jobs=2", TRACE_LEN=1500000, RESULTS_DIR=ref)
    proc = subprocess.Popen([e6, "--jobs=2"], stdout=subprocess.DEVNULL,
                            env=env_with({"TRACE_LEN": 1500000,
                                          "RESULTS_DIR": cut,
                                          "RESULT_STORE": store}))
    # Pull the plug once the first completed point reached the store, while
    # most of the sweep is still in flight.
    deadline = time.monotonic() + 120
    while not store_records(store) and time.monotonic() < deadline:
        time.sleep(0.02)
    if not store_records(store):
        proc.kill()
        proc.wait()
        raise Broken("no store record appeared before the kill")
    proc.send_signal(signal.SIGTERM)
    code = proc.wait()
    expect(code == 75, f"expected resumable exit code 75, got {code}")
    flushed = len(store_records(store))
    expect(flushed >= 1, "the interrupted run flushed no store record")
    print(f"interrupted run flushed {flushed} store records before draining")
    run(e6, "--jobs=2", TRACE_LEN=1500000, RESULTS_DIR=resumed,
        RESULT_STORE=store)
    bench_gate(check_bench.validate,
               os.path.join(resumed, "BENCH_e6_retention_sweep.json"))
    same_results(ref, resumed)


def keep_going(tmp, e6):
    chaos = os.path.join(tmp, "chaos")
    run(e6, "--jobs=2", "--keep-going", "--fail-points=3,7",
        TRACE_LEN=120000, RESULTS_DIR=chaos)
    bench_gate(check_bench.validate,
               os.path.join(chaos, "BENCH_e6_retention_sweep.json"), 2)
    doc = report(chaos, "e6_retention_sweep")
    expect(doc["sweep"]["failed"] == 2, f"sweep {doc['sweep']}")
    expect(doc["sweep"]["completed"] == doc["points"] - 2,
           f"sweep {doc['sweep']}, points {doc['points']}")
    types = sorted(f["error_type"] for f in doc["failures"])
    expect(types == ["numeric", "numeric"], f"failure types {types}")
    print("chaos manifest:", doc["failures"])
    # Without --keep-going the injected fault fails the run: numeric exit.
    run(e6, "--jobs=2", "--fail-points=5", rc=3, TRACE_LEN=120000,
        RESULTS_DIR=os.path.join(tmp, "failfast"))


def poison(tmp, e6):
    ref = os.path.join(tmp, "ref")
    store = os.path.join(tmp, "poison-store")
    flags = ["--jobs=2", f"--store-dir={store}", "--keep-going"]
    run(e6, "--jobs=2", TRACE_LEN=300000, RESULTS_DIR=ref)
    # Every cell overruns a 1 ms deadline: 10 points x 4 workloads are
    # poisoned, and the failed baseline point makes the run exit 5.
    run(e6, *flags, "--point-deadline-ms=1", rc=5, TRACE_LEN=300000,
        RESULTS_DIR=os.path.join(tmp, "deadline"))
    records = store_records(store)
    poisoned = sum(b'"poison":1' in data for data in records.values())
    expect(poisoned == 40, f"{poisoned} poison records, wanted 40")
    # Without the deadline the quarantine holds: the ten stored [deadline]
    # failures are reported, nothing runs or is written.
    rerun = run(e6, *flags, rc=5, TRACE_LEN=300000,
                RESULTS_DIR=os.path.join(tmp, "rerun"))
    reported = len(re.findall(r"^e6: point failed: .*\[deadline\]",
                              rerun.stderr, re.MULTILINE))
    expect(reported == 10, f"{reported} [deadline] reports, wanted 10")
    expect(store_records(store) == records,
           "the quarantined rerun changed a store record")
    files = len(os.listdir(store))
    expect(files == 40, f"{files} files in the store, wanted 40")
    # --retry-failed heals every point: the files of the storeless run.
    healed = os.path.join(tmp, "retry")
    run(e6, *flags, "--retry-failed", TRACE_LEN=300000, RESULTS_DIR=healed)
    bench_gate(check_bench.validate,
               os.path.join(healed, "BENCH_e6_retention_sweep.json"))
    doc = report(healed, "e6_retention_sweep")
    expect(doc["result_store"]["poison_stores"] == 0,
           f"result_store {doc['result_store']}")
    expect(doc["sweep"]["failed"] == 0, f"sweep {doc['sweep']}")
    same_results(ref, healed)


def simrun_store(tmp, simrun):
    store = f"--store-dir={os.path.join(tmp, 'simstore')}"
    metrics = os.path.join(tmp, "warm_metrics.json")
    run(simrun, "launcher", "all", "120000", "7", store)
    run(simrun, "launcher", "all", "120000", "7", store, f"--metrics={metrics}")
    with open(metrics, encoding="utf-8") as fh:
        counters = json.load(fh)["counters"]
    hits = counters.get("result_store.hits", 0)
    misses = counters.get("result_store.misses", 0)
    expect(hits > 0 and misses == 0,
           f"warm simrun not served from store: {counters}")
    print(f"simrun warm run: {hits} hits, {misses} misses")


def telemetry(tmp, simrun):
    jsonl, chrome, metrics = (os.path.join(tmp, f) for f in (
        "run.jsonl", "run.json", "metrics.json"))
    run(simrun, "browser", "dpstt", "150000", "7", f"--trace-out={jsonl}",
        f"--metrics={metrics}", "--sample=15000")
    script("check_trace.py", jsonl, "--require-type=partition-resize",
           "--require-type=l2.epoch")
    run(simrun, "browser,launcher", "all", "120000", "7",
        f"--trace-out={chrome},chrome", "--sample=20000")
    script("check_trace.py", chrome, "--require-type=drowsy-transition")
    for path in (chrome, metrics):
        with open(path, encoding="utf-8") as fh:
            json.load(fh)
    script("plot_timeline.py", jsonl, os.path.join(tmp, "timeline_out"))


def faults(tmp, simrun):
    trace = os.path.join(tmp, "faulty.jsonl")
    run(simrun, "browser", "dpstt", "150000", "7", "--fault-rate=0.002",
        "--ecc=secded", "--way-disable-threshold=4", f"--trace-out={trace}",
        f"--metrics={os.path.join(tmp, 'faulty_metrics.json')}")
    script("check_trace.py", trace, "--require-type=fault")
    run(simrun, "browser", "spmrstt", "150000", "7",
        "--fault-sweep=0,0.001,0.01", "--ecc=secded",
        "--way-disable-threshold=4", "--jobs=4")
    run(simrun, "browser", "dpstt", "120000", "7", "--fault-rate=0.002",
        "--ecc=dected", "--way-disable-threshold=4")
    run(simrun, "browser", "spmrstt", "120000", "7", "--fault-sweep=0,0.005",
        "--jobs=4")


def fleet_memory(tmp, e22):
    small, large = (os.path.join(tmp, d, "BENCH_e22_fleet.json")
                    for d in ("small", "large"))
    run(e22, "--jobs=2", *FLEET_SMALL,
        RESULTS_DIR=os.path.dirname(small))
    run(e22, "--jobs=2", "--sessions=10000", "--mean-accesses=8000",
        "--max-peak-rss-mb=512", RESULTS_DIR=os.path.dirname(large))
    bench_gate(check_bench.validate, small)
    bench_gate(check_bench.validate, large)
    bench_gate(check_bench.rss_gate, small, large, 2.0)


CONTRACTS = {
    "sigterm": sigterm,
    "keep-going": keep_going,
    "poison": poison,
    "simrun-store": simrun_store,
    "telemetry": telemetry,
    "faults": faults,
    "fleet-memory": fleet_memory,
}


def main(argv):
    name, binaries = (argv[1], argv[2:]) if len(argv) > 2 else (None, [])
    contract = CONTRACTS.get(name)
    if contract is None or len(binaries) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    binaries = [os.path.abspath(b) for b in binaries]
    start = os.getcwd()
    with tempfile.TemporaryDirectory(prefix=f"mobcache-{name}-") as tmp:
        os.chdir(tmp)  # whatever a run leaves behind goes with tmp
        try:
            contract(tmp, *binaries)
        except Broken as e:
            print(f"contracts: {name}: FAIL: {e}", file=sys.stderr)
            return 1
        finally:
            os.chdir(start)
    print(f"contracts: {name}: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
