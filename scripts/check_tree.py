#!/usr/bin/env python3
"""Tree-hygiene gate: no tracked file may be gitignored or oversized, and no
test may share a fixed temporary directory.

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


def git_lines(args, repo):
    out = subprocess.run(["git", "-C", repo] + args, check=True,
                         capture_output=True).stdout
    return [p for p in out.decode("utf-8").split("\0") if p]


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

    for path in git_lines(["ls-files", "-z", "--cached", "--", "tests"], repo):
        try:
            with open(os.path.join(repo, path), encoding="utf-8",
                      errors="replace") as fh:
                text = fh.read()
        except OSError:
            continue
        for m in FIXED_TEMP_DIR.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            failures.append(
                f"fixed temp directory shared across test processes: "
                f"{path}:{line} (name it per process or per test)")

    if failures:
        for f in failures:
            print(f"check_tree: FAIL: {f}", file=sys.stderr)
        print(f"check_tree: {len(failures)} problem(s)", file=sys.stderr)
        return 1
    print("check_tree: OK: no tracked file is gitignored or oversized, and "
          "no test shares a fixed temp directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
