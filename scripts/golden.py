#!/usr/bin/env python3
"""Output oracle for the experiment binaries: their result files at the
oracle trace length, compared byte for byte against tests/golden/.

  check <binary> [args...]    run the binary into a fresh temporary results
                              directory and require exactly the files under
                              tests/golden/<binary name>/, byte for byte.
  update <binary> [args...]   run it the same way and rewrite that
                              directory with what it wrote.

The run sees MOBCACHE_TRACE_LEN=120000 and MOBCACHE_RESULTS_DIR=<temp dir>;
every other MOBCACHE_* variable is removed from its environment, so a
developer's shell cannot change the bytes. BENCH_*.json reports are left
out because they carry wall time.

The files were written at --jobs=1. ctest (bench/CMakeLists.txt, tests
golden.e1 ... golden.e22) runs the sweep benches at --jobs=4, so each run
also checks jobs=1 == jobs=N. Regenerate one experiment with e.g.

  python3 scripts/golden.py update build/bench/bench_e22_fleet \\
      --sessions=200 --mean-accesses=8000 --jobs=1

Exits 0 when the files match (or were rewritten), 1 on any difference or a
failed run, 2 on bad usage.
"""

import difflib
import os
import shutil
import subprocess
import sys
import tempfile

ORACLE_TRACE_LEN = "120000"
GOLDEN_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests",
    "golden")


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
           if not k.startswith("MOBCACHE_")}
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


def main(argv):
    if len(argv) < 3 or argv[1] not in ("check", "update"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, binary, args = argv[1], argv[2], argv[3:]
    golden_dir = os.path.join(GOLDEN_ROOT, os.path.basename(binary))

    with tempfile.TemporaryDirectory(prefix="mobcache-golden-") as tmp:
        got = run_binary(binary, args, tmp)
    if got is None:
        return 1
    if not got:
        print(f"golden: {binary} wrote no result files", file=sys.stderr)
        return 1

    if mode == "update":
        shutil.rmtree(golden_dir, ignore_errors=True)
        for name, data in got.items():
            path = os.path.join(golden_dir, name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(data)
        print(f"golden: wrote {len(got)} file(s) to {golden_dir}")
        return 0

    if not os.path.isdir(golden_dir):
        print(f"golden: no golden files at {golden_dir}", file=sys.stderr)
        return 1
    want = result_files(golden_dir)
    failures = []
    for name in sorted(set(want) - set(got)):
        failures.append(f"missing: {name} (golden has it, the run wrote none)")
    for name in sorted(set(got) - set(want)):
        failures.append(f"extra: {name} (the run wrote it, golden has none)")
    for name in sorted(set(want) & set(got)):
        if want[name] != got[name]:
            failures.append(f"differs: {name}\n"
                            + first_difference(name, want[name], got[name]))
    if failures:
        for f in failures:
            print(f"golden: FAIL: {f}", file=sys.stderr)
        return 1
    print(f"golden: OK: {len(want)} file(s) byte-identical to {golden_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
