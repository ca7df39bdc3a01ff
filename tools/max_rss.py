#!/usr/bin/env python3
"""Runs a command and reports its peak resident set size.

  python3 tools/max_rss.py -- COMMAND [ARG...]

The command's own output passes through. Afterwards one line,
"max RSS: <MB> MB (<command>)", goes to standard output and, when
$GITHUB_STEP_SUMMARY names a file, is appended there too. Exits with the
command's exit status. The figure is the kernel's ru_maxrss for the
finished child, so it needs no GNU time. The child starts as a copy of
this interpreter, so no reading falls below its size (about 14 MB).
"""

import os
import resource
import subprocess
import sys


def main():
    args = sys.argv[1:]
    if args[:1] == ["--"]:
        args = args[1:]
    if not args:
        sys.exit("usage: max_rss.py -- COMMAND [ARG...]")
    status = subprocess.run(args).returncode
    max_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    line = f"max RSS: {max_rss_mb:.1f} MB ({' '.join(args)})"
    print(line, flush=True)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as out:
            out.write(line + "\n")
    sys.exit(status)


if __name__ == "__main__":
    main()
