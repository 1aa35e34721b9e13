#!/usr/bin/env python3
"""Tree-hygiene gate: no tracked file may be gitignored or oversized, no
test may share a fixed temporary directory, and no CLI front end may parse
numbers by hand.

PR 4 accidentally committed a 642-file generated build tree (`build2/`)
because the ignore patterns were narrower than the directories people
actually create. This script makes that class of mistake a CI failure:

  1. Every *tracked* file is checked against the repository's ignore rules
     (`git ls-files --cached --ignored --exclude-standard`). A tracked file
     that matches an ignore pattern means generated state was committed —
     fail and name each offender.
  2. Every tracked file is checked against a size ceiling (default 1 MiB,
     override with --max-bytes). Source trees have no business carrying
     megabyte blobs; build artifacts and logs do.
  3. No tracked file under tests/ may join a string literal onto
     temp_directory_path(). ctest runs every test case in its own process,
     in parallel, so a fixed directory lets one case's cleanup delete
     another's files mid-test; name the directory per process or per test.
  4. No tracked source under tools/, bench/ or examples/ may call
     strtoull/strtoul/strtod/atoi/atof/std::sto* (or their siblings). They
     silently misread garbage ("12abc" -> 12, "-1" -> huge); front ends
     parse numbers through common/env's parse_u64/parse_double, which exit
     2 naming the flag. The parsers themselves live under src/.

Run from anywhere inside the repo:  python3 scripts/check_tree.py
Exits 0 when clean, 1 with a per-file report otherwise.
"""

import argparse
import os
import re
import subprocess
import sys

# `temp_directory_path() / "fixed"`, also across a line break.
FIXED_TEMP_DIR = re.compile(
    r'temp_directory_path\(\)\s*/\s*(?:std::string\(\s*)?"')

# A call of a C or C++ library number parser, with or without `std::`.
RAW_NUMBER_PARSE = re.compile(
    r'\b(?:strto(?:ull|ul|ll|l|d|f|ld)|ato(?:i|l|ll|f)'
    r'|std::sto(?:i|l|ll|ul|ull|f|d|ld))\s*\(')
FRONT_END_DIRS = ["tools", "bench", "examples"]
SOURCE_SUFFIXES = (".c", ".cc", ".cpp", ".h", ".hpp")


def git_lines(args, repo):
    out = subprocess.run(["git", "-C", repo] + args, check=True,
                         capture_output=True).stdout
    return [p for p in out.decode("utf-8").split("\0") if p]


def grep_tracked(repo, pathspecs, pattern, suffixes=("",)):
    """Yields (path, line, matched text) for each match of `pattern` in the
    tracked files under `pathspecs` whose names end in one of `suffixes`."""
    for path in git_lines(["ls-files", "-z", "--cached", "--"] + pathspecs,
                          repo):
        if not path.endswith(suffixes):
            continue
        try:
            with open(os.path.join(repo, path), encoding="utf-8",
                      errors="replace") as fh:
                text = fh.read()
        except OSError:
            continue
        for m in pattern.finditer(text):
            yield path, text.count("\n", 0, m.start()) + 1, m.group(0)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-bytes", type=int, default=1 << 20,
                        help="size ceiling for any tracked file (default 1 MiB)")
    parser.add_argument("--repo", default=None,
                        help="repository root (default: derived from this script)")
    args = parser.parse_args()

    repo = args.repo or os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    failures = []

    tracked_ignored = git_lines(
        ["ls-files", "-z", "--cached", "--ignored", "--exclude-standard"], repo)
    for path in tracked_ignored:
        failures.append(f"tracked file matches a .gitignore pattern: {path}")

    for path in git_lines(["ls-files", "-z", "--cached"], repo):
        full = os.path.join(repo, path)
        try:
            size = os.path.getsize(full)
        except OSError:
            continue  # deleted in the worktree but still tracked — fine here
        if size > args.max_bytes:
            failures.append(
                f"tracked file exceeds {args.max_bytes} bytes: {path} ({size})")

    for path, line, _ in grep_tracked(repo, ["tests"], FIXED_TEMP_DIR):
        failures.append(
            f"fixed temp directory shared across test processes: "
            f"{path}:{line} (name it per process or per test)")

    for path, line, call in grep_tracked(repo, FRONT_END_DIRS,
                                         RAW_NUMBER_PARSE, SOURCE_SUFFIXES):
        failures.append(
            f"hand-rolled number parse in a CLI front end: {path}:{line} "
            f"({call.rstrip('( ')}; use parse_u64/parse_double from "
            f"common/env)")

    if failures:
        for f in failures:
            print(f"check_tree: FAIL: {f}", file=sys.stderr)
        print(f"check_tree: {len(failures)} problem(s)", file=sys.stderr)
        return 1
    print("check_tree: OK: no tracked file is gitignored or oversized, no "
          "test shares a fixed temp directory, and no front end parses "
          "numbers by hand")
    return 0


if __name__ == "__main__":
    sys.exit(main())
