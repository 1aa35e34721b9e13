#!/usr/bin/env python3
"""CLI flag-contract checks for mobcache_simrun and the generator tools.

Every `--name=value` flag given with an empty value must be a hard usage
error: exit code 2 plus a `--name needs <what>` diagnostic on stderr. A
silently ignored `--metrics=` (a truncated shell variable, usually) is how
results end up in the wrong place without anyone noticing. Likewise every
numeric simrun flag and positional given garbage must exit 2 with a
`<name>: expected ...` diagnostic instead of running with a misread value;
the same holds for the numeric positionals of mobcache_tracegen and
mobcache_appcheck (`tracegen browser 1e6 out.mct` used to write a 3-record
trace and exit 0).

Usage:
  check_cli.py --simrun PATH --tracegen PATH --appcheck PATH --workdir DIR
"""

import argparse
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


def run(cmd):
    return subprocess.run(
        [str(c) for c in cmd], capture_output=True, text=True, timeout=120
    )


def check(name, ok, detail=""):
    if ok:
        print(f"ok   {name}")
    else:
        print(f"FAIL {name}: {detail}")
        FAILURES.append(name)


def expect_usage_error(tool_name, cmd, needle):
    p = run(cmd)
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
    ap.add_argument("--appcheck", required=True, type=pathlib.Path)
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

    # Generator tools: numeric garbage is a usage error, and no trace is
    # written for it.
    out = args.workdir / "garbage.mct"
    for argv, name in TRACEGEN_NUMERIC_GARBAGE:
        argv = [a.replace("{out}", str(out)) for a in argv]
        expect_usage_error("tracegen", [args.tracegen, *argv],
                           f"{name}: expected")
    check("tracegen writes no trace for garbage", not out.exists(),
          f"{out} exists")
    for argv, name in APPCHECK_NUMERIC_GARBAGE:
        expect_usage_error("appcheck", [args.appcheck, *argv],
                           f"{name}: expected")

    if FAILURES:
        print(f"{len(FAILURES)} CLI contract check(s) failed", file=sys.stderr)
        return 1
    print("all CLI contract checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
