#!/usr/bin/env python3
"""Report where tools/psamp's samples fall: by function, and by line.

    python3 tools/psamp.py PREFIX [PREFIX...] [--top N] [--lines N]

Reads each PREFIX.samples and PREFIX.maps (written by psamp; several
prefixes add up the samples of several runs), finds each address's
mapped file, and names its function from `nm -n` (the dynamic
symbols with `nm -D` when a file has no others).  An anonymous OCaml
closure (a `fun_NNNN` symbol) also shows the `file:line` where it
starts, from `addr2line`.  `--lines N` also names the N hottest source
lines.  An address in a
position-independent file (a PIE executable or a shared library) is
taken relative to the file, one in a fixed-address executable as it is.
Samples outside every mapped file count as [anon] or [unmapped].
"""

import argparse
import bisect
import collections
import re
import subprocess
import sys


def read_maps(path):
    maps = []
    with open(path) as f:
        for line in f:
            parts = line.split(None, 5)
            if len(parts) < 5:
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            name = parts[5].strip() if len(parts) > 5 else ""
            maps.append((lo, hi, int(parts[2], 16), name))
    maps.sort()
    return maps


def position_independent(path):
    # e_type of an ELF header: 3 (ET_DYN) for PIE executables and shared
    # libraries, 2 (ET_EXEC) for fixed-address executables
    try:
        with open(path, "rb") as f:
            head = f.read(18)
    except OSError:
        return True
    return len(head) < 18 or head[:4] != b"\x7fELF" or head[16] == 3


def symbols(path):
    for extra in ([], ["-D"]):
        try:
            out = subprocess.run(
                ["nm", "-n", "--defined-only"] + extra + [path],
                capture_output=True, text=True, check=False).stdout
        except OSError:
            return [], []
        syms = []
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[1] in "tTwWiI":
                syms.append((int(parts[0], 16), parts[2]))
        if syms:
            syms.sort()
            return [a for a, _ in syms], [n for _, n in syms]
    return [], []


def addr2line(path, addrs):
    """The `file:line` of each address in [path], in order."""
    query = "".join("%x\n" % a for a in addrs)
    return subprocess.run(["addr2line", "-e", path], input=query,
                          capture_output=True, text=True,
                          check=False).stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("prefix", nargs="+")
    ap.add_argument("--top", type=int, default=25,
                    help="functions to list (default 25)")
    ap.add_argument("--lines", type=int, default=0,
                    help="also list the N hottest source lines")
    args = ap.parse_args()

    # each sample as (file, address in the file's link-time terms)
    pic = {}
    by_file = collections.defaultdict(collections.Counter)
    total = 0
    for prefix in args.prefix:
        maps = read_maps(prefix + ".maps")
        starts = [m[0] for m in maps]
        with open(prefix + ".samples") as f:
            pcs = [int(line, 16) for line in f if line.strip()]
        total += len(pcs)
        for pc in pcs:
            k = bisect.bisect_right(starts, pc) - 1
            if k < 0 or pc >= maps[k][1]:
                by_file["[unmapped]"][0] += 1
            elif not maps[k][3].startswith("/"):
                by_file[maps[k][3] or "[anon]"][0] += 1
            else:
                lo, _, off, name = maps[k]
                if name not in pic:
                    pic[name] = position_independent(name)
                by_file[name][pc - lo + off if pic[name] else pc] += 1
    if total == 0:
        sys.exit("psamp.py: no samples")

    funcs = collections.Counter()
    where = {}
    closures = collections.defaultdict(dict)  # file -> {fun_NNNN: start}
    for name, entries in by_file.items():
        if not name.startswith("/"):
            funcs[name] += sum(entries.values())
            continue
        addrs, names = symbols(name)
        base = name.rsplit("/", 1)[-1]
        for addr, n in entries.items():
            k = bisect.bisect_right(addrs, addr) - 1
            fn = names[k] if k >= 0 else "[%s+0x%x]" % (base, addr)
            funcs[fn] += n
            where[fn] = base
            if k >= 0 and re.search(r"\.fun_\d+$", fn):
                closures[name][fn] = addrs[k]
    starts = {}
    for name, syms in closures.items():
        for fn, loc in zip(syms, addr2line(name, syms.values())):
            if not loc.startswith("?"):
                starts[fn] = loc.rsplit("/", 1)[-1].split(" ")[0]

    exe = max(by_file, key=lambda nm: sum(by_file[nm].values()))
    print("psamp: %d samples, %d in %s" % (
        total, sum(by_file[exe].values()), exe))
    print("%7s %8s  %s" % ("pct", "samples", "function"))
    for fn, n in funcs.most_common(args.top):
        print("%7.2f %8d  %s%s%s" % (
            100.0 * n / total, n, fn,
            " (%s)" % starts[fn] if fn in starts else "",
            "  [%s]" % where[fn] if fn in where else ""))

    if args.lines > 0:
        lines = collections.Counter()
        for name, entries in by_file.items():
            if not name.startswith("/"):
                continue
            entries = list(entries.items())
            out = addr2line(name, (a for a, _ in entries))
            for (_, n), loc in zip(entries, out):
                lines[loc if not loc.startswith("??") else
                      "?? in " + name.rsplit("/", 1)[-1]] += n
        print()
        print("%7s %8s  %s" % ("pct", "samples", "line"))
        for loc, n in lines.most_common(args.lines):
            print("%7.2f %8d  %s" % (100.0 * n / total, n, loc))


if __name__ == "__main__":
    main()
