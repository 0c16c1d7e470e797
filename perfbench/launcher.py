"""Starts CLI requests for the benchmark and reports each one's exit, time and peak RSS.

Run as `python3 -I -S launcher.py`. Each line on stdin is a JSON object
{"argv", "env", "stdout", "stderr", "timeout"}; the request runs with its
output sent to the named files, and one JSON line comes back on stdout:
{"code", "seconds", "maxrss_kb", "timed_out", "reference_s"}.

`reference_s` holds the time of fixed pure-Python work run just before and
just after the request: how fast the machine was around it. A shared
host drifts by 20% and more over minutes; the benchmark divides request
times by this reference to take that drift out.

Linux reports a child's peak RSS as at least that of the process it was
spawned from, so requests are spawned from this small process and not from
the benchmark, which holds scipy and the program in memory.
"""

import json
import os
import signal
import sys
import time
from fractions import Fraction

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def reference_seconds():
    """Wall time of fixed pure-Python work, about 25 ms on a 2-core Xeon VM.

    It mixes what the program spends its time on: integer arithmetic, dicts
    keyed by strings, sorting and Fraction arithmetic. On that VM the mix
    tracked request times better than any one of its parts.
    """
    start = time.perf_counter()
    total = 0
    for k in range(100_000):
        total += k * k % 7
    table = {str(k): k for k in range(20_000)}
    for key in table:
        total += table[key]
    sorted(table, key=table.get, reverse=True)
    q = Fraction(0)
    for k in range(1, 1_500):
        q += Fraction(k % 97 + 1, k % 89 + 1)
    return time.perf_counter() - start


def run(request):
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], FLAGS, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], FLAGS, 0o644),
    ]
    timed_out = False

    def expire(signum, frame):
        nonlocal timed_out
        timed_out = True
        os.kill(pid, signal.SIGKILL)

    before = reference_seconds()
    start = time.perf_counter()
    pid = os.posix_spawn(request["argv"][0], request["argv"], request["env"], file_actions=actions)
    signal.signal(signal.SIGALRM, expire)
    signal.alarm(request["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
    seconds = time.perf_counter() - start
    after = reference_seconds()
    return {
        "code": os.waitstatus_to_exitcode(status),
        "seconds": seconds,
        "maxrss_kb": usage.ru_maxrss,
        "timed_out": timed_out,
        "reference_s": [before, after],
    }


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
