#!/usr/bin/env python3
"""Turns the samples `sampler.c` wrote into a profile by function.

    symbolize.py BINARY SAMPLES [--top N] [--lines FUNCTION]

BINARY is the executable the samples were taken in (built with frame
pointers and line tables, README.md), SAMPLES the `vprof.<pid>` file.
Prints, per function, its *self* share (samples whose innermost frame is
in it) and its *inclusive* share (samples with it anywhere on the stack),
the top N of each. Function names come from binutils `nm`; addresses
outside the executable (libc, the vDSO) are counted under `[outside]`.
With `--lines FUNCTION`, the self samples of every function whose name
contains FUNCTION are also attributed to source lines, inlined frames
included, by binutils `addr2line`.
"""

import argparse
import bisect
import collections
import re
import subprocess
import sys

HASH = re.compile(r"::h[0-9a-f]{16}$")


def text_symbols(binary):
    """Sorted `(address, size, name)` of the executable's code symbols."""
    out = subprocess.run(
        ["nm", "--defined-only", "-n", "-S", "-C", binary],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split(" ", 3)
        if len(parts) == 4 and parts[2] in "tTwW":
            name = HASH.sub("", parts[3])
            syms.append((int(parts[0], 16), int(parts[1], 16), name))
    return syms


def read_samples(path):
    """`(load base, [[address, ...], ...])`, innermost address first."""
    with open(path) as f:
        header = f.readline().split()
        base = int(header[1], 16)
        stacks = [[int(a, 16) for a in line.split()] for line in f if line.strip()]
    return base, stacks


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("binary")
    ap.add_argument("samples")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--lines", metavar="FUNCTION")
    args = ap.parse_args()

    syms = text_symbols(args.binary)
    starts = [a for a, _, _ in syms]
    base, stacks = read_samples(args.samples)
    if not stacks:
        sys.exit(f"{args.samples}: no samples")

    def name(vaddr):
        i = bisect.bisect_right(starts, vaddr) - 1
        if i < 0 or vaddr >= syms[i][0] + syms[i][1]:
            return "[outside]"
        return syms[i][2]

    self_count = collections.Counter()
    incl_count = collections.Counter()
    self_addrs = collections.defaultdict(collections.Counter)
    for stack in stacks:
        # A return address points after its call: look up the call.
        frames = [stack[0] - base] + [a - base - 1 for a in stack[1:]]
        names = [name(v) for v in frames]
        self_count[names[0]] += 1
        self_addrs[names[0]][frames[0]] += 1
        for n in set(names):
            incl_count[n] += 1

    total = len(stacks)
    print(f"{total} samples")
    for title, counts in (("self", self_count), ("inclusive", incl_count)):
        print(f"\n{title}:")
        for n, c in counts.most_common(args.top):
            print(f"{100.0 * c / total:6.1f} %  {c:6d}  {n}")

    if args.lines:
        lines = collections.Counter()
        inlined = collections.Counter()
        wanted = [n for n in self_addrs if args.lines in n]
        addrs = [(a, c) for n in wanted for a, c in self_addrs[n].items()]
        if addrs:
            out = subprocess.run(
                ["addr2line", "-a", "-i", "-f", "-C", "-e", args.binary]
                + [hex(a) for a, _ in addrs],
                check=True,
                capture_output=True,
                text=True,
            ).stdout.splitlines()
            # Per address: the address itself, then a (function,
            # file:line) pair per frame, the innermost inlined one first.
            chains = []
            for line in out:
                if line.startswith("0x"):
                    chains.append([])
                elif chains:
                    chains[-1].append(line)
            for (_, c), chain in zip(addrs, chains):
                pairs = list(zip(chain[0::2], chain[1::2]))
                frames = [f"{file_line(loc)} {short(func)}" for func, loc in pairs]
                lines[" <- ".join(frames[:3])] += c
                for func in {short(func) for func, _ in pairs}:
                    inlined[func] += c
        in_function = sum(self_count[n] for n in wanted)
        print(f"\nself samples of *{args.lines}* by line ({in_function}):")
        for loc, c in lines.most_common(args.top):
            print(f"{100.0 * c / total:6.1f} %  {c:6d}  {loc}")
        print(f"\nself samples of *{args.lines}* by the functions inlined there:")
        for func, c in inlined.most_common(args.top):
            print(f"{100.0 * c / total:6.1f} %  {c:6d}  {func}")


def file_line(loc):
    """`file.rs:123` of addr2line's `/path/to/file.rs:123 (discriminator 4)`."""
    return loc.split(" (")[0].rsplit("/", 1)[-1]


def short(func):
    """A function name without its hash and its generic arguments."""
    func = HASH.sub("", func)
    out, depth = [], 0
    for ch in func:
        if ch == "<" and out and out[-1] != ":" and depth == 0 and out[-1] != " ":
            depth = 1
        elif ch == "<" and depth:
            depth += 1
        elif ch == ">" and depth:
            depth -= 1
        elif not depth:
            out.append(ch)
    return "".join(out)


if __name__ == "__main__":
    main()
