#!/usr/bin/env python3
"""CLI flag-contract checks for mobcache_simrun, the generator tools and
bench_micro's report modes.

Every `--name=value` flag given with an empty value must be a hard usage
error: exit code 2 plus a `--name needs <what>` diagnostic on stderr. A
silently ignored `--metrics=` (a truncated shell variable, usually) is how
results end up in the wrong place without anyone noticing. Likewise every
numeric simrun flag and positional given garbage must exit 2 with a
`<name>: expected ...` diagnostic instead of running with a misread value;
the same holds for the numeric positionals of mobcache_tracegen and
mobcache_appcheck (`tracegen browser 1e6 out.mct` used to write a 3-record
trace and exit 0). The partition_explorer example rejects an unknown app,
tech or retention name the same way (`... 256 8 STT mid lo` used to run
SRAM). bench_micro's report modes exit 2 on a zero --accesses or --reps and
on a garbage speedup floor (`--kernel-report --accesses=0` used to write a
0-point report of "speedups" over empty streams). It runs exactly one
report mode: with none it prints its usage and exits 2 (it used to run a
Google Benchmark suite), and with both it exits 2 (it used to exit 1, the
code for unreadable input). A valid `--kernel-report`
writes a BENCH_micro.json that passes `check_bench.py validate` and counts
what it timed: `jobs` 1 (every repetition runs on one thread) and `points`
= the timed replays, 4 cases x --reps x 2 kernels (it used to write the
worker count and the number of timed accesses). mobcache_tracestat on a
file that is not a trace exits 1 and names the reader's status, as simrun
does (it used to print the same "missing/corrupt/inconsistent" for every
failure). simrun given a file that is not a trace (garbage, an empty file,
a valid magic over a garbage header) exits 1 naming the reader's status.
The experiment binaries share simrun's sweep-flag rules through
run_experiment: garbage in MOBCACHE_TRACE_LEN or --jobs exits 2 (E1 used to
abort with 134 on the one and run on the other), `--store-dir=` exits 2
(E3 used to run without a store), and an experiment that cannot write its
results exits nonzero naming the path (E4 used to exit 0 having written
nothing). simrun's --metrics and --trace-out files and tracegen's output
exit 5 naming the path they cannot write, as the experiments do (they used
to exit 1, the code for corrupt input), and so do a --metrics or
--trace-out file on a full device and an experiment whose CSV is one (they
used to exit 0: the write failed only at the final flush).

Usage:
  check_cli.py --simrun PATH --tracegen PATH --tracestat PATH
               --appcheck PATH --explorer PATH --micro PATH
               --e1 PATH --e3 PATH --e4 PATH --workdir DIR
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

FAILURES = []

# Every =-flag each binary accepts; kept in sync with the tools' usage text
# (tool_cli_contract fails when a new =-flag forgets the empty-value check).
SIMRUN_EQ_FLAGS = [
    "--trace-out",
    "--metrics",
    "--sample",
    "--fault-rate",
    "--ecc",
    "--fault-seed",
    "--way-disable-threshold",
    "--fault-sweep",
    "--jobs",
    "--store-dir",
    "--point-deadline-ms",
]

# Garbage for every numeric simrun flag and positional, with the name the
# diagnostic must carry. Each is rejected before any trace is generated.
SIMRUN_NUMERIC_GARBAGE = [
    (["--sample=abc"], "--sample"),
    (["--fault-rate=abc"], "--fault-rate"),
    (["--fault-seed=abc"], "--fault-seed"),
    (["--way-disable-threshold=abc"], "--way-disable-threshold"),
    (["--fault-sweep=0,abc"], "--fault-sweep"),
    (["--jobs=abc"], "--jobs"),
    (["--point-deadline-ms=abc"], "--point-deadline-ms"),
    (["browser", "dpstt", "12abc"], "records"),
    (["browser", "dpstt", "20000", "7x"], "seed"),
]

# Garbage for the generator tools' numeric positionals ({out} is a trace
# path under the work dir, which must not be written).
TRACEGEN_NUMERIC_GARBAGE = [
    (["browser", "1e6", "{out}", "7"], "records"),
    (["browser", "60k", "{out}"], "records"),
    (["browser", "0", "{out}"], "records"),
    (["browser", "1000", "{out}", "7x"], "seed"),
    (["browser", "1000", "{out}", "-1"], "seed"),
]
APPCHECK_NUMERIC_GARBAGE = [
    (["launcher", "60k"], "records"),
    (["launcher", "1e5"], "records"),
    (["launcher", "1000", "4z"], "seed"),
]
# Unknown names in partition_explorer's positionals, with the word the
# diagnostic must carry. Each is rejected before any trace is generated.
EXPLORER_NAME_GARBAGE = [
    (["browsr", "768", "12", "256", "8"], "unknown app"),
    (["browser", "768", "12", "256", "8", "STT", "mid", "lo"], "unknown tech"),
    (["browser", "768", "12", "256", "8", "stt", "low", "lo"],
     "unknown retention"),
]
# Files that are not traces, with the reader status simrun must name.
CORRUPT_TRACES = [
    ("corrupt.mct", b"not a trace at all", "bad-magic"),
    ("empty.mct", b"", "corrupt-header"),
    ("bad.mct", b"MOBCACH1garbage-that-is-not-a-header", "corrupt-header"),
]
# Bad values for bench_micro's report modes, rejected before anything is
# timed or written.
MICRO_GARBAGE = [
    (["--kernel-report", "--accesses=0"], "--accesses"),
    (["--kernel-report", "--reps=0"], "--reps"),
    (["--kernel-report", "--min-speedup=abc"], "--min-speedup"),
    (["--sweep-report", "--accesses=0"], "--accesses"),
    (["--sweep-report", "--reps=0"], "--reps"),
    (["--sweep-report", "--min-sweep-speedup=abc"], "--min-sweep-speedup"),
]


def run(cmd, env=None):
    return subprocess.run(
        [str(c) for c in cmd], capture_output=True, text=True, timeout=120,
        env=env,
    )


def check(name, ok, detail=""):
    if ok:
        print(f"ok   {name}")
    else:
        print(f"FAIL {name}: {detail}")
        FAILURES.append(name)


def expect_usage_error(tool_name, cmd, needle, env=None):
    p = run(cmd, env)
    label = f"{tool_name} {' '.join(str(c) for c in cmd[1:])!r}"
    check(
        label,
        p.returncode == 2 and needle in p.stderr,
        f"rc={p.returncode} stderr={p.stderr.strip()!r} (wanted rc=2 "
        f"containing {needle!r})",
    )


def check_empty_value_flags(tool_name, binary, flags):
    for flag in flags:
        expect_usage_error(tool_name, [binary, f"{flag}="], f"{flag} needs")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--simrun", required=True, type=pathlib.Path)
    ap.add_argument("--tracegen", required=True, type=pathlib.Path)
    ap.add_argument("--tracestat", required=True, type=pathlib.Path)
    ap.add_argument("--appcheck", required=True, type=pathlib.Path)
    ap.add_argument("--explorer", required=True, type=pathlib.Path)
    ap.add_argument("--micro", required=True, type=pathlib.Path)
    ap.add_argument("--e1", required=True, type=pathlib.Path)
    ap.add_argument("--e3", required=True, type=pathlib.Path)
    ap.add_argument("--e4", required=True, type=pathlib.Path)
    ap.add_argument("--workdir", required=True, type=pathlib.Path)
    args = ap.parse_args()

    shutil.rmtree(args.workdir, ignore_errors=True)
    args.workdir.mkdir(parents=True)

    # simrun: empty =-values, numeric garbage, missing positionals, unknown
    # flags.
    check_empty_value_flags("simrun", args.simrun, SIMRUN_EQ_FLAGS)
    for argv, name in SIMRUN_NUMERIC_GARBAGE:
        expect_usage_error("simrun", [args.simrun, *argv], f"{name}: expected")
    p = run([args.simrun])
    check(
        "simrun usage without args",
        p.returncode == 2 and "usage:" in p.stderr,
        f"rc={p.returncode} stderr={p.stderr.strip()!r}",
    )
    p = run([args.simrun, "nofile.mctz", "--frobnicate"])
    check(
        "simrun unknown flag",
        p.returncode == 2 and "unknown flag" in p.stderr,
        f"rc={p.returncode} stderr={p.stderr.strip()!r}",
    )

    for name, data, status in CORRUPT_TRACES:
        trace = args.workdir / name
        trace.write_bytes(data)
        p = run([args.simrun, trace, "base", "1000", "1"])
        check(
            f"simrun names why {name} is unreadable",
            p.returncode == 1 and status in p.stderr,
            f"rc={p.returncode} stderr={p.stderr.strip()!r} (wanted rc=1 "
            f"containing {status!r})",
        )

    # Generator tools: numeric garbage is a usage error, and no trace is
    # written for it.
    out = args.workdir / "garbage.mct"
    for argv, name in TRACEGEN_NUMERIC_GARBAGE:
        argv = [a.replace("{out}", str(out)) for a in argv]
        expect_usage_error("tracegen", [args.tracegen, *argv],
                           f"{name}: expected")
    check("tracegen writes no trace for garbage", not out.exists(),
          f"{out} exists")
    junk = args.workdir / "junk.mct"
    junk.write_bytes(b"this is not a mobcache trace file\n" * 4)
    p = run([args.tracestat, junk])
    check(
        "tracestat names why a trace is unreadable",
        p.returncode == 1 and "bad-magic" in p.stderr,
        f"rc={p.returncode} stderr={p.stderr.strip()!r} (wanted rc=1 "
        f"containing 'bad-magic')",
    )
    for argv, name in APPCHECK_NUMERIC_GARBAGE:
        expect_usage_error("appcheck", [args.appcheck, *argv],
                           f"{name}: expected")
    for argv, needle in EXPLORER_NAME_GARBAGE:
        expect_usage_error("explorer", [args.explorer, *argv], needle)

    # bench_micro: a rejected flag writes no report.
    results = args.workdir / "micro_results"
    env = dict(os.environ, MOBCACHE_RESULTS_DIR=str(results))
    for argv, name in MICRO_GARBAGE:
        expect_usage_error("bench_micro", [args.micro, *argv],
                           f"{name}: expected", env)
    expect_usage_error("bench_micro", [args.micro], "usage:", env)
    expect_usage_error("bench_micro",
                       [args.micro, "--kernel-report", "--sweep-report"],
                       "mutually exclusive", env)
    check("bench_micro writes no report for garbage", not results.exists(),
          f"{results} exists")

    # bench_micro --kernel-report: one thread, one point per timed replay.
    p = run([args.micro, "--kernel-report", "--accesses=4096", "--reps=1"],
            env)
    report = results / "BENCH_micro.json"
    check("bench_micro --kernel-report runs", p.returncode == 0,
          f"rc={p.returncode} stderr={p.stderr.strip()!r}")
    if report.exists():
        v = run([sys.executable, pathlib.Path(__file__).with_name(
            "check_bench.py"), "validate", report])
        check("kernel report passes check_bench.py validate",
              v.returncode == 0, (v.stdout + v.stderr).strip())
        doc = json.loads(report.read_text(encoding="utf-8"))
        check("kernel report counts what it timed",
              doc.get("jobs") == 1 and doc.get("points") == 8,
              f"jobs={doc.get('jobs')!r} points={doc.get('points')!r} "
              f"(wanted jobs=1, points=8: 4 cases x 1 rep x 2 kernels)")
    else:
        check("kernel report written", False, f"{report} missing")

    # Experiment binaries: usage errors exit 2 before anything runs, and a
    # results directory that cannot be created fails the run.
    bench_env = dict(os.environ,
                     MOBCACHE_RESULTS_DIR=str(args.workdir / "bench_results"))
    expect_usage_error("MOBCACHE_TRACE_LEN=abc bench_e1", [args.e1],
                       "MOBCACHE_TRACE_LEN: expected",
                       dict(bench_env, MOBCACHE_TRACE_LEN="abc"))
    expect_usage_error("bench_e1", [args.e1, "--jobs=abc"],
                       "--jobs: expected", bench_env)
    expect_usage_error("bench_e3", [args.e3, "--store-dir="],
                       "--store-dir needs a path", bench_env)
    blocker = args.workdir / "not_a_dir"
    blocker.write_text("a regular file\n", encoding="utf-8")
    unwritable = blocker / "results"
    p = run([args.e4], dict(os.environ, MOBCACHE_TRACE_LEN="20000",
                            MOBCACHE_RESULTS_DIR=str(unwritable)))
    check(
        "bench_e4 with an unwritable results directory fails naming it",
        p.returncode != 0 and str(unwritable) in p.stderr,
        f"rc={p.returncode} stderr={p.stderr.strip()!r} (wanted nonzero "
        f"naming {unwritable})",
    )

    # The tools' own output files: exit 5 (internal), naming the path.
    out = blocker / "out"
    cases = [
        ("simrun --metrics", out, [args.simrun, "browser", "dpstt", "2000",
                                   "7", f"--metrics={out}"]),
        ("simrun --trace-out", out, [args.simrun, "browser", "dpstt", "2000",
                                     "7", f"--trace-out={out}"]),
        ("tracegen", out, [args.tracegen, "browser", "1000", out]),
    ]
    if os.path.exists("/dev/full"):
        # Each opens fine and fails at the flush: a short document only
        # reaches the device when the file is closed.
        cases.append(("simrun --metrics on a full device", "/dev/full",
                      [args.simrun, "browser", "dpstt", "2000", "7",
                       "--metrics=/dev/full"]))
        # A Chrome trace is never empty: it has at least its frame.
        cases.append(("simrun --trace-out on a full device", "/dev/full",
                      [args.simrun, "browser", "dpstt", "2000", "7",
                       "--trace-out=/dev/full,chrome"]))
        full_results = args.workdir / "full_results"
        full_results.mkdir()
        csv = full_results / "e4_static_result.csv"
        csv.symlink_to("/dev/full")
        cases.append(("bench_e4 with its CSV on a full device", csv,
                      [args.e4], dict(os.environ, MOBCACHE_TRACE_LEN="20000",
                                      MOBCACHE_RESULTS_DIR=str(full_results))))
    for label, path, cmd, *env in cases:
        p = run(cmd, *env)
        check(
            f"{label} that cannot be written exits 5 naming it",
            p.returncode == 5 and f"cannot write '{path}'" in p.stderr,
            f"rc={p.returncode} stderr={p.stderr.strip()!r} (wanted rc=5 "
            f"containing \"cannot write '{path}'\")",
        )

    if FAILURES:
        print(f"{len(FAILURES)} CLI contract check(s) failed", file=sys.stderr)
        return 1
    print("all CLI contract checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
