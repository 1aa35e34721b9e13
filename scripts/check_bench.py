#!/usr/bin/env python3
"""Validate BENCH_*.json perf reports and gate determinism, speedup and
memory.

A BENCH report (src/exp/bench_harness.hpp) splits into timing fields that
vary run to run (jobs, wall_ms, points_per_sec) and a "results" object that
must be a pure function of the sweep definition. This script enforces both
halves:

  validate FILE...          structural check of each report: required
                            fields present, points > 0, wall_ms > 0, and
                            every "results" value finite and non-null (the
                            JsonWriter degrades NaN/inf to null, so a null
                            here means a poisoned metric). Also checks the
                            failure manifest (docs/RELIABILITY.md): the
                            "sweep" counters must be consistent with the
                            "failures" array, and any failed point fails
                            the gate unless --allow-failures=N admits up
                            to N (for chaos-injection runs).
  compare SERIAL PARALLEL   the two reports name the same bench, their
                            "results" objects are exactly equal (the
                            parallel engine's determinism contract), and
                            the wall-clock speedup is printed. With
                            --min-speedup=X, speedup below X fails. With
                            --rel-tol=R, result keys under the "timing/"
                            prefix (measured throughputs and ratios, e.g.
                            from bench_micro --kernel-report) are compared
                            with relative tolerance R instead of exactly;
                            all other keys stay exact.
  rss-gate SMALL LARGE      the constant-memory gate for streaming sweeps
                            (docs/SWEEP_ENGINE.md): LARGE ran many times the
                            sessions of SMALL, yet its peak_rss_bytes must
                            stay within --max-ratio (default 2.0) of SMALL's.
                            A ratio tracking the session count means a
                            session was materialized somewhere.

Exits 0 with a one-line summary per check; exits 1 with the first failure.
"""

import argparse
import json
import math
import sys

# peak_rss_bytes is deliberately absent: the harness omits the key when the
# getrusage probe fails, so its presence is optional and its absence only a
# warning (see peak_rss_of).
REQUIRED_FIELDS = ("bench", "schema_version", "jobs", "points", "wall_ms",
                   "points_per_sec", "result_store",
                   "sweep", "failures", "results")

STORE_COUNTERS = ("hits", "misses", "stores", "corrupt_skipped", "loaded",
                  "poisoned_loaded", "poison_hits", "poison_stores")

SWEEP_COUNTERS = ("completed", "failed", "quarantined")

FAILURE_FIELDS = ("point", "error_type", "message", "quarantined")


def fail(msg):
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def warn(msg):
    print(f"check_bench: WARN: {msg}", file=sys.stderr)


def peak_rss_of(doc, path):
    """Peak RSS from a report, or None (with a warning) when the harness
    omitted the key because the getrusage probe failed."""
    if "peak_rss_bytes" not in doc:
        warn(f"{path}: no peak_rss_bytes (RSS probe failed on the bench "
             f"host) — skipping RSS checks")
        return None
    rss = doc["peak_rss_bytes"]
    if not isinstance(rss, int) or rss <= 0:
        fail(f"{path}: peak_rss_bytes must be a positive integer "
             f"(got {rss!r}) — a failed probe must omit the key, not "
             f"write a zero")
    return rss


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            # Refuse the non-standard NaN/Infinity literals outright: a
            # report containing them is as poisoned as one containing null.
            doc = json.load(
                f, parse_constant=lambda c: fail(f"{path}: literal {c}"))
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not an object")
    for field in REQUIRED_FIELDS:
        if field not in doc:
            fail(f"{path}: missing field '{field}'")
    return doc


def validate(path, allow_failures=0):
    doc = load_report(path)
    if not isinstance(doc["points"], int) or doc["points"] <= 0:
        fail(f"{path}: points must be a positive integer "
             f"(got {doc['points']!r}) — a zero-point sweep ran nothing")
    if not isinstance(doc["wall_ms"], (int, float)) or doc["wall_ms"] <= 0:
        fail(f"{path}: wall_ms must be positive (got {doc['wall_ms']!r})")
    peak_rss_of(doc, path)
    store = doc["result_store"]
    if not isinstance(store, dict):
        fail(f"{path}: 'result_store' must be an object")
    for counter in STORE_COUNTERS:
        value = store.get(counter)
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: result_store.{counter} must be a non-negative "
                 f"integer (got {value!r})")
    sweep = doc["sweep"]
    if not isinstance(sweep, dict):
        fail(f"{path}: 'sweep' must be an object")
    for counter in SWEEP_COUNTERS:
        value = sweep.get(counter)
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: sweep.{counter} must be a non-negative integer "
                 f"(got {value!r})")
    failures = doc["failures"]
    if not isinstance(failures, list):
        fail(f"{path}: 'failures' must be an array")
    if len(failures) != sweep["failed"]:
        fail(f"{path}: sweep.failed ({sweep['failed']}) does not match the "
             f"failures manifest ({len(failures)} entries)")
    if sweep["completed"] + sweep["failed"] != doc["points"]:
        fail(f"{path}: sweep.completed + sweep.failed "
             f"({sweep['completed']} + {sweep['failed']}) does not cover "
             f"points ({doc['points']}) — the sweep lost track of work")
    if sweep["quarantined"] > sweep["failed"]:
        fail(f"{path}: sweep.quarantined ({sweep['quarantined']}) exceeds "
             f"sweep.failed ({sweep['failed']})")
    for i, entry in enumerate(failures):
        if not isinstance(entry, dict):
            fail(f"{path}: failures[{i}] must be an object")
        for field in FAILURE_FIELDS:
            if field not in entry:
                fail(f"{path}: failures[{i}] missing field '{field}'")
        if not isinstance(entry["point"], str) or not entry["point"]:
            fail(f"{path}: failures[{i}].point must be a non-empty string")
        if not isinstance(entry["error_type"], str) or not entry["error_type"]:
            fail(f"{path}: failures[{i}].error_type must be a non-empty "
                 f"string")
    if sweep["failed"] > allow_failures:
        fail(f"{path}: {sweep['failed']} failed sweep points "
             f"(allow-failures={allow_failures}):\n" + "\n".join(
                 f"  [{e.get('error_type')}] {e.get('point')}: "
                 f"{e.get('message')}" for e in failures))
    results = doc["results"]
    if not isinstance(results, dict) or not results:
        fail(f"{path}: 'results' must be a non-empty object")
    for key, value in results.items():
        if value is None:
            fail(f"{path}: results.{key} is null (NaN/inf degraded by the "
                 f"JSON writer)")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{path}: results.{key} is not a finite number "
                 f"(got {value!r})")
        if key.startswith("timing/sweep/") and value <= 0:
            fail(f"{path}: results.{key} must be positive (got {value!r}) "
                 f"— a zero throughput/speedup means the sweep timer broke")
    note = (f" ({sweep['failed']} failed, {sweep['quarantined']} "
            f"quarantined)" if sweep["failed"] else "")
    print(f"check_bench: OK: {path} ({doc['bench']}, jobs={doc['jobs']}, "
          f"{doc['points']} points{note}, {doc['wall_ms']:.0f} ms, "
          f"{len(results)} metrics)")


def within_rel_tol(a, b, rel_tol):
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        return False
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0)


def compare(serial_path, parallel_path, min_speedup, rel_tol):
    serial = load_report(serial_path)
    parallel = load_report(parallel_path)
    if serial["bench"] != parallel["bench"]:
        fail(f"bench mismatch: {serial['bench']} vs {parallel['bench']}")
    if serial["points"] != parallel["points"]:
        fail(f"{serial['bench']}: point counts differ "
             f"({serial['points']} vs {parallel['points']})")
    keys = set(serial["results"]) | set(parallel["results"])
    toleranced = 0
    for key in sorted(keys):
        a = serial["results"].get(key)
        b = parallel["results"].get(key)
        if key not in serial["results"] or key not in parallel["results"]:
            # Distinguish a missing key from a differing value: a one-sided
            # key means the two runs executed different sweep definitions
            # (or binaries), not that determinism broke.
            missing_from, present_in = (
                (serial_path, parallel_path) if key not in serial["results"]
                else (parallel_path, serial_path))
            fail(f"{serial['bench']}: results.{key} is missing from "
                 f"{missing_from} but present in {present_in} — the two "
                 f"reports do not describe the same sweep")
        if a == b:
            continue
        if rel_tol is not None and key.startswith("timing/"):
            if within_rel_tol(a, b, rel_tol):
                toleranced += 1
                continue
            fail(f"{serial['bench']}: results.{key} differs beyond "
                 f"rel-tol {rel_tol:g}: {a!r} vs {b!r}")
        fail(f"{serial['bench']}: results.{key} differs between "
             f"jobs={serial['jobs']} and jobs={parallel['jobs']}: "
             f"{a!r} vs {b!r} — the parallel engine broke "
             f"determinism")
    tol_note = (f", {toleranced} timing keys within rel-tol {rel_tol:g}"
                if toleranced else "")
    speedup = serial["wall_ms"] / parallel["wall_ms"]
    print(f"check_bench: OK: {serial['bench']} deterministic across "
          f"jobs={serial['jobs']}/jobs={parallel['jobs']}{tol_note}; speedup "
          f"{speedup:.2f}x ({serial['wall_ms']:.0f} ms -> "
          f"{parallel['wall_ms']:.0f} ms)")
    if min_speedup is not None and speedup < min_speedup:
        fail(f"{serial['bench']}: speedup {speedup:.2f}x below required "
             f"{min_speedup:.2f}x")


def rss_gate(small_path, large_path, max_ratio):
    small = load_report(small_path)
    large = load_report(large_path)
    if small["bench"] != large["bench"]:
        fail(f"bench mismatch: {small['bench']} vs {large['bench']}")
    if large["points"] <= small["points"]:
        fail(f"{large_path}: expected more points than {small_path} "
             f"({large['points']} vs {small['points']}) — the rss-gate "
             f"needs a small run and a large run")
    small_rss = peak_rss_of(small, small_path)
    large_rss = peak_rss_of(large, large_path)
    scale = large["points"] / small["points"]
    if small_rss is None or large_rss is None:
        warn(f"{large['bench']}: rss-gate skipped (peak RSS unmeasured)")
        return
    ratio = large_rss / small_rss
    if ratio > max_ratio:
        fail(f"{large['bench']}: peak RSS grew {ratio:.2f}x while points "
             f"grew {scale:.1f}x (limit {max_ratio:.2f}x) — streaming "
             f"memory is no longer constant in the session count")
    print(f"check_bench: OK: {large['bench']} peak RSS {ratio:.2f}x across "
          f"a {scale:.1f}x session scale-up "
          f"({small_rss} -> {large_rss} bytes, "
          f"limit {max_ratio:.2f}x)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="structural check")
    p_validate.add_argument("files", nargs="+")
    p_validate.add_argument(
        "--allow-failures", type=int, default=0,
        help="admit up to N failed sweep points per report (default 0); "
             "use for chaos-injection runs that expect failures")

    p_compare = sub.add_parser("compare", help="serial vs parallel report")
    p_compare.add_argument("serial")
    p_compare.add_argument("parallel")
    p_compare.add_argument("--min-speedup", type=float, default=None)
    p_compare.add_argument(
        "--rel-tol", type=float, default=None,
        help="relative tolerance for results keys under the 'timing/' "
             "prefix; other keys remain exact")

    p_rss = sub.add_parser("rss-gate",
                           help="constant-memory gate across session counts")
    p_rss.add_argument("small")
    p_rss.add_argument("large")
    p_rss.add_argument("--max-ratio", type=float, default=2.0)

    args = parser.parse_args()
    if args.command == "validate":
        for path in args.files:
            validate(path, args.allow_failures)
    elif args.command == "compare":
        compare(args.serial, args.parallel, args.min_speedup, args.rel_tol)
    else:
        rss_gate(args.small, args.large, args.max_ratio)


if __name__ == "__main__":
    main()
