#!/usr/bin/env python3
"""Output oracle for the experiment binaries: their result files at the
oracle trace length, compared byte for byte against tests/golden/.

  check <binary> [args...]    run the binary into a fresh temporary results
                              directory and require exactly the files under
                              tests/golden/<binary name>/, byte for byte,
                              plus exactly one BENCH_<name>.json report
                              (<name> = the binary name minus "bench_")
                              that passes `check_bench.py validate` and
                              whose "results" object equals the pinned
                              tests/golden/<binary name>/BENCH_results.json
                              exactly.
  check --warm <binary> [args...]
                              the same check twice, both runs against one
                              fresh --store-dir; the second (warm) run's
                              report must read result_store.misses == 0,
                              hits > 0 and corrupt_skipped == 0, so every
                              cell was served from an intact store and
                              still wrote the same bytes and results.
  update <binary> [args...]   run it the same way and rewrite that
                              directory with what it wrote, plus the
                              report's "results" object as
                              BENCH_results.json.

The run sees MOBCACHE_TRACE_LEN=120000 and MOBCACHE_RESULTS_DIR=<temp dir>;
every other MOBCACHE_* variable is removed from its environment, so a
developer's shell cannot change the bytes. The one exception is
MOBCACHE_REFERENCE_KERNEL, which by contract cannot change them: it selects
the reference access kernel, and the ctests golden.e9.reference,
golden.e5.reference and golden.e21.reference set it to hold that kernel to
the same files. BENCH_*.json reports are left out
of the byte comparison because they carry wall time; their "results"
objects, which are a pure function of the sweep, are compared against the
pin instead.

The files and pins were written at --jobs=1. ctest (bench/CMakeLists.txt,
tests golden.e1 ... golden.e22) runs every experiment at --jobs=4, so each
run also checks jobs=1 == jobs=N, for the result files and the report
alike. Regenerate one experiment with e.g.

  python3 scripts/golden.py update build/bench/bench_e22_fleet \\
      --sessions=200 --mean-accesses=8000 --jobs=1

Exits 0 when the files match (or were rewritten), 1 on any difference or a
failed run, 2 on bad usage.
"""

import difflib
import json
import os
import shutil
import subprocess
import sys
import tempfile

ORACLE_TRACE_LEN = "120000"
# Passed through to the run: switches kernels, never bytes.
PASSTHROUGH = ("MOBCACHE_REFERENCE_KERNEL",)
CHECK_BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "check_bench.py")
GOLDEN_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests",
    "golden")
# The pinned "results" object of the report; the BENCH_ prefix keeps it out
# of result_files(), so the byte comparison never sees it.
RESULTS_PIN = "BENCH_results.json"


def result_files(directory):
    """Maps relative path -> bytes for every result file under `directory`,
    BENCH_*.json excluded."""
    out = {}
    for root, _, files in os.walk(directory):
        for name in files:
            if name.startswith("BENCH_") and name.endswith(".json"):
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = fh.read()
    return out


def run_binary(binary, args, results_dir):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MOBCACHE_") or k in PASSTHROUGH}
    env["MOBCACHE_TRACE_LEN"] = ORACLE_TRACE_LEN
    env["MOBCACHE_RESULTS_DIR"] = results_dir
    proc = subprocess.run([os.path.abspath(binary)] + args, cwd=results_dir,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        print(f"golden: {binary} exited {proc.returncode}", file=sys.stderr)
        return None
    return result_files(results_dir)


def first_difference(name, want, got):
    """A short unified diff of the first differing lines of one file."""
    a = want.decode("utf-8", "replace").splitlines()
    b = got.decode("utf-8", "replace").splitlines()
    diff = list(difflib.unified_diff(a, b, f"golden/{name}", f"run/{name}",
                                     n=0, lineterm=""))
    return "\n".join(diff[:12]) if diff else "(differs only in line endings)"


def bench_report(binary, results_dir):
    """The run's BENCH report as a dict, or None after printing why: the
    run must write exactly one BENCH_*.json, named after the binary, and
    it must pass check_bench.py validate."""
    want = "BENCH_" + os.path.basename(binary).removeprefix("bench_") + ".json"
    found = sorted(n for n in os.listdir(results_dir)
                   if n.startswith("BENCH_") and n.endswith(".json"))
    if found != [want]:
        print(f"golden: FAIL: wanted exactly one report, {want}; the run "
              f"wrote {found or 'none'}", file=sys.stderr)
        return None
    path = os.path.join(results_dir, want)
    proc = subprocess.run([sys.executable, CHECK_BENCH, "validate", path],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def differences(want, got):
    """One failure line per file missing, extra or differing in `got`."""
    failures = []
    for name in sorted(set(want) - set(got)):
        failures.append(f"missing: {name} (golden has it, the run wrote none)")
    for name in sorted(set(got) - set(want)):
        failures.append(f"extra: {name} (the run wrote it, golden has none)")
    for name in sorted(set(want) & set(got)):
        if want[name] != got[name]:
            failures.append(f"differs: {name}\n"
                            + first_difference(name, want[name], got[name]))
    return failures


def results_differences(pinned, results):
    """One failure line per report result missing, extra or unequal."""
    failures = []
    for key in sorted(set(pinned) | set(results)):
        if key not in results:
            failures.append(f"results.{key}: pinned, missing from the report")
        elif key not in pinned:
            failures.append(f"results.{key}: in the report, not pinned")
        elif pinned[key] != results[key]:
            failures.append(f"results.{key}: pinned {pinned[key]!r}, the run "
                            f"reported {results[key]!r}")
    return failures


def main(argv):
    if len(argv) < 3 or argv[1] not in ("check", "update"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, rest = argv[1], argv[2:]
    warm = mode == "check" and rest[0] == "--warm"
    if warm:
        rest = rest[1:]
    if not rest:
        print(__doc__, file=sys.stderr)
        return 2
    binary, args = rest[0], rest[1:]
    golden_dir = os.path.join(GOLDEN_ROOT, os.path.basename(binary))

    # One run, or a cold and a warm run against one store.
    runs = []
    with tempfile.TemporaryDirectory(prefix="mobcache-golden-") as tmp:
        if warm:
            args = args + [f"--store-dir={os.path.join(tmp, 'store')}"]
        for sub in ("cold", "warm") if warm else ("",):
            results_dir = os.path.join(tmp, sub)
            os.makedirs(results_dir, exist_ok=True)
            got = run_binary(binary, args, results_dir)
            if got is None:
                return 1
            if not got:
                print(f"golden: {binary} wrote no result files",
                      file=sys.stderr)
                return 1
            report = bench_report(binary, results_dir)
            if report is None:
                return 1
            runs.append((got, report))

    if mode == "update":
        got, report = runs[0]
        shutil.rmtree(golden_dir, ignore_errors=True)
        for name, data in got.items():
            path = os.path.join(golden_dir, name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(data)
        with open(os.path.join(golden_dir, RESULTS_PIN), "w",
                  encoding="utf-8") as fh:
            json.dump(report["results"], fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"golden: wrote {len(got)} file(s) and {RESULTS_PIN} to "
              f"{golden_dir}")
        return 0

    if not os.path.isdir(golden_dir):
        print(f"golden: no golden files at {golden_dir}", file=sys.stderr)
        return 1
    want = result_files(golden_dir)
    pin_path = os.path.join(golden_dir, RESULTS_PIN)
    if not os.path.isfile(pin_path):
        print(f"golden: no pinned results at {pin_path}", file=sys.stderr)
        return 1
    with open(pin_path, encoding="utf-8") as fh:
        pinned = json.load(fh)
    failures = []
    for got, report in runs:
        failures += differences(want, got)
        failures += results_differences(pinned, report["results"])
    if warm:
        store = runs[1][1]["result_store"]
        if (store["misses"] != 0 or store["hits"] == 0
                or store["corrupt_skipped"] != 0):
            failures.append(f"warm run not served from the store: "
                            f"result_store {store}")
    if failures:
        for f in failures:
            print(f"golden: FAIL: {f}", file=sys.stderr)
        return 1
    note = " (cold and warm)" if warm else ""
    print(f"golden: OK: {len(want)} file(s) byte-identical to "
          f"{golden_dir}{note}; report valid, results equal the pin")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
