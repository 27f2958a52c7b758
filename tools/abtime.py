#!/usr/bin/env python3
"""Alternating A/B timing of two executables on one command line.

    python3 tools/abtime.py [--pairs N] A B -- ARG...

Runs `A ARG...` and `B ARG...` in N pairs, A first in odd pairs and B
first in even ones, after one unrecorded warm-up run of each.  Each run's
time is the process CPU time (user + system) that `wait4` reports from
the kernel's `getrusage` accounting for that child alone, so the
interpreter, the pipe and other processes on the host are not counted.

Prints each side's median CPU time, the median and quartiles of the
per-pair ratios B/A, the pairs B won, and whether every run printed the
same standard output.  Exits 1 if any run failed or any two outputs
differ, and 2 on bad usage.
"""

import argparse
import hashlib
import os
import statistics
import subprocess
import sys


def run(cmd):
    """CPU seconds, stdout digest and exit code of one run of cmd."""
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    digest = hashlib.sha256()
    for chunk in iter(lambda: p.stdout.read(1 << 16), b""):
        digest.update(chunk)
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return ru.ru_utime + ru.ru_stime, digest.hexdigest(), p.returncode


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def main():
    argv = sys.argv[1:]
    if "--" not in argv:
        print("abtime: usage: abtime.py [--pairs N] A B -- ARG...",
              file=sys.stderr)
        return 2
    cut = argv.index("--")
    ap = argparse.ArgumentParser(prog="abtime.py")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("a")
    ap.add_argument("b")
    opts = ap.parse_args(argv[:cut])
    args = argv[cut + 1:]
    if opts.pairs < 1:
        ap.error("--pairs must be >= 1")

    digests = set()
    failed = 0

    def timed(exe):
        nonlocal failed
        t, d, code = run([exe] + args)
        digests.add(d)
        if code != 0:
            failed += 1
            print(f"abtime: {exe} exited {code}", file=sys.stderr)
        return t

    timed(opts.a)
    timed(opts.b)
    ta, tb = [], []
    for i in range(opts.pairs):
        if i % 2 == 0:
            ta.append(timed(opts.a))
            tb.append(timed(opts.b))
        else:
            tb.append(timed(opts.b))
            ta.append(timed(opts.a))
    ratios = [b / a if a > 0 else float("inf") for a, b in zip(ta, tb)]
    wins = sum(1 for a, b in zip(ta, tb) if b < a)
    q1, q3 = quartiles(ratios)
    ms = lambda xs: statistics.median(xs) * 1000
    print(f"A  {opts.a}: median {ms(ta):.1f} ms CPU")
    print(f"B  {opts.b}: median {ms(tb):.1f} ms CPU")
    print(f"B/A per pair: median {statistics.median(ratios):.3f} "
          f"(quartiles {q1:.3f} {q3:.3f}); B faster in {wins}/{opts.pairs}")
    identical = len(digests) == 1
    print("outputs: " + ("identical" if identical
                         else f"DIFFER ({len(digests)} distinct)"))
    return 0 if identical and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
