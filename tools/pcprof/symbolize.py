#!/usr/bin/env python3
"""Symbolize pcprof sample files into hot-spot tables.

    python3 tools/pcprof/symbolize.py run.pcprof [more.pcprof ...] [--top 25]

Each input is a file written by libpcprof.so (see pcprof.cpp). Sampled PCs
are mapped through the recorded executable mappings to file offsets, then to
ELF virtual addresses, and symbolized with `addr2line -f -i -C`, which walks
the inline chain at each address. Three tables are printed, each as share of
all samples:

  * innermost function: the function whose code the PC is in after inlining
    (a std::vector accessor inlined into Sm::tick counts as the accessor);
  * out-of-line function: the function the PC's machine code belongs to
    (the outermost frame of the inline chain, here Sm::tick);
  * source line: the innermost frame's file:line.

Several inputs (runs of the same binary) are summed. Build with debug info
(RelWithDebInfo, the default) or lines and inline frames come out as `??`.
"""
import argparse
import collections
import os
import struct
import subprocess
import sys


def load(path):
    """The executable mappings and the PC counts of one pcprof file."""
    maps, counts = [], collections.Counter()
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "map" and len(parts) >= 7:
                lo, hi = (int(x, 16) for x in parts[1].split("-"))
                maps.append((lo, hi, int(parts[3], 16), " ".join(parts[6:])))
            elif parts[0] == "pc":
                counts[int(parts[1], 16)] += int(parts[2])
    return maps, counts


def load_segments(path):
    """PT_LOAD (file offset, size, virtual address) triples of an ELF64 file."""
    with open(path, "rb") as f:
        header = f.read(64)
        if header[:4] != b"\x7fELF" or header[4] != 2:
            return []
        endian = "<" if header[5] == 1 else ">"
        phoff, = struct.unpack_from(endian + "Q", header, 32)
        phentsize, phnum = struct.unpack_from(endian + "HH", header, 54)
        segments = []
        for i in range(phnum):
            f.seek(phoff + i * phentsize)
            p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack(
                endian + "IIQQQQ", f.read(40))
            if p_type == 1:  # PT_LOAD
                segments.append((p_offset, p_filesz, p_vaddr))
        return segments


def to_vaddr(segments, offset):
    for p_offset, p_filesz, p_vaddr in segments:
        if p_offset <= offset < p_offset + p_filesz:
            return p_vaddr + offset - p_offset
    return None


def symbolize(path, vaddrs):
    """Maps each vaddr to its inline chain [(function, file:line), ...],
    innermost first."""
    out = subprocess.run(["addr2line", "-e", path, "-a", "-f", "-i", "-C"]
                         + [hex(a) for a in vaddrs],
                         check=True, capture_output=True, text=True).stdout.splitlines()
    # With -a each address line is followed by one (function, file:line)
    # pair per inline frame; a function name never starts with "0x".
    chains, current, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            current = int(out[i], 16)
            chains[current] = []
            i += 1
            continue
        where = out[i + 1].split(" (")[0] if i + 1 < len(out) else "??:?"
        chains[current].append((out[i], os.path.basename(where)))
        i += 2
    return chains


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("inputs", nargs="+", help="pcprof output files")
    parser.add_argument("--top", type=int, default=25, help="rows per table")
    args = parser.parse_args()

    # Each file is resolved against its own mappings (address-space layout
    # differs between runs): PC -> (mapped file, ELF virtual address).
    hits = collections.Counter()  # (file, vaddr) -> samples
    segments = {}
    unmapped = 0
    for path in args.inputs:
        maps, counts = load(path)
        for pc, n in counts.items():
            m = next((m for m in maps if m[0] <= pc < m[1]), None)
            vaddr = None
            if m is not None and m[3].startswith("/") and os.path.isfile(m[3]):
                if m[3] not in segments:
                    segments[m[3]] = load_segments(m[3])
                vaddr = to_vaddr(segments[m[3]], pc - m[0] + m[2])
            if vaddr is None:
                unmapped += n
            else:
                hits[(m[3], vaddr)] += n
    total = sum(hits.values()) + unmapped
    if total == 0:
        sys.exit("symbolize: no samples")

    inner, outer, lines = (collections.Counter() for _ in range(3))
    for binary in sorted({b for b, _ in hits}):
        vaddrs = sorted(v for b, v in hits if b == binary)
        chains = {}
        for start in range(0, len(vaddrs), 2000):
            chains.update(symbolize(binary, vaddrs[start:start + 2000]))
        module = os.path.basename(binary)
        for vaddr in vaddrs:
            chain = chains.get(vaddr) or [("??", "??:?")]
            n = hits[(binary, vaddr)]
            inner[chain[0][0]] += n
            outer[chain[-1][0]] += n
            where = chain[0][1]
            lines[where if not where.startswith("??") else f"{module}+{vaddr:#x}"] += n
    if unmapped:
        for table in (inner, outer, lines):
            table["[outside any mapped file]"] += unmapped

    print(f"{total} samples from {len(args.inputs)} file(s)")
    for title, table in (("innermost function (after inlining)", inner),
                         ("out-of-line function", outer),
                         ("source line (innermost frame)", lines)):
        print(f"\n== {title}")
        for name, n in table.most_common(args.top):
            print(f"{100.0 * n / total:6.2f}% {n:7d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
