"""Run one command and report its wall time and its peak resident memory.

    python3 tests/peak_rss.py CMD [ARG ...]

For example, from the root of a checkout:

    PYTHONPATH=src python3 tests/peak_rss.py python3 -m taxonet induce ...

The command runs in a child made by `os.fork` and `os.execvp`, with this
process's standard streams. When it exits, one JSON object goes to standard
output, after anything the command wrote there:

    {"exit": 0, "wall_s": 0.2931, "maxrss_mib": 32.6}

`maxrss_mib` is `ru_maxrss` from `os.wait4`: the largest resident set of the
command, or of any child it waited for (`train` and `induce` fork one), in
MiB. This process then exits with the command's exit code.

Why not `subprocess`: on Linux it starts a child with vfork, and the child's
`ru_maxrss` then begins at the high-water resident set of the process that
started it, so a large or long-running parent puts a floor under every
reading. A fork from this small process puts the floor at this process's own
size, about 10 MiB.
"""

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 tests/peak_rss.py CMD [ARG ...]", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        except OSError as exc:
            print(f"peak_rss: cannot run {argv[0]}: {exc.strerror}", file=sys.stderr, flush=True)
        os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    record = {"exit": code, "wall_s": round(wall_s, 4), "maxrss_mib": round(usage.ru_maxrss / 1024, 2)}
    print(json.dumps(record), flush=True)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
