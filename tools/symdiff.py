#!/usr/bin/env python3
"""Compare the machine code of two builds of the same binary, symbol by symbol.

    python3 tools/symdiff.py PARENT_BIN CHANGE_BIN [REGEX]

Disassembles both binaries with `objdump -d -C --no-show-raw-insn` and prints
one line per demangled function name (restricted to names matching REGEX,
if given):

    same   the bodies are identical after masking
    DIFF   the bodies differ
    NEW    the name exists only in CHANGE_BIN
    GONE   the name exists only in PARENT_BIN

followed by the instruction counts in each binary.  Masking removes what
moves when unrelated code moves: instruction addresses, every hex literal
(immediates and displacements), the addresses and offsets of call and jump
targets (the target's name is kept), and objdump's `# <symbol>` comments.
A generic function has one body per monomorphisation, all under one
demangled name; those bodies are compared as multisets, and their counts
are printed joined by `+`.

A symbol reported `same` executes the same instructions in both builds, so
a benchmark workload that runs only `same` symbols can have moved only
through code layout (alignment, cache placement), not through its code.
"""

import hashlib
import re
import subprocess
import sys
from collections import defaultdict

HEADER = re.compile(r"^[0-9a-f]+ <(.*)>:$")
INSN = re.compile(r"^\s*[0-9a-f]+:\t(.*)$")
COMMENT = re.compile(r"\s+# [0-9a-f]+ <.*>$")
TARGET = re.compile(r"^(\S+)\s+[0-9a-f]+ <(.*?)(?:\+0x[0-9a-f]+)?>$")
HEX = re.compile(r"0x[0-9a-f]+")


def normalise(insn):
    insn = COMMENT.sub("", insn).strip()
    target = TARGET.match(insn)
    if target:
        return f"{target.group(1)} <{target.group(2)}>"
    return " ".join(HEX.sub("0x_", insn).split())


def bodies(binary):
    """Maps each demangled name to a sorted list of (digest, count) bodies."""
    proc = subprocess.Popen(
        ["objdump", "-d", "-C", "--no-show-raw-insn", binary],
        stdout=subprocess.PIPE,
        text=True,
        errors="replace",
    )
    found = defaultdict(list)
    name, digest, count = None, None, 0

    def close():
        if name is not None:
            found[name].append((digest.hexdigest(), count))

    for line in proc.stdout:
        header = HEADER.match(line)
        if header:
            close()
            name, digest, count = header.group(1), hashlib.sha1(), 0
            continue
        insn = INSN.match(line)
        if insn and name is not None:
            digest.update(normalise(insn.group(1)).encode())
            digest.update(b"\n")
            count += 1
    close()
    if proc.wait() != 0:
        sys.exit(f"objdump failed on {binary}")
    return {k: sorted(v) for k, v in found.items()}


def counts(copies):
    return "+".join(str(n) for _, n in copies) if copies else "-"


def main(argv):
    if len(argv) not in (3, 4):
        sys.exit(__doc__.split("\n\n", 2)[1])
    parent, change = bodies(argv[1]), bodies(argv[2])
    pattern = re.compile(argv[3]) if len(argv) == 4 else None
    tally = defaultdict(int)
    for name in sorted(parent.keys() | change.keys()):
        if pattern and not pattern.search(name):
            continue
        before, after = parent.get(name, []), change.get(name, [])
        if not before:
            status = "NEW"
        elif not after:
            status = "GONE"
        elif [d for d, _ in before] == [d for d, _ in after]:
            status = "same"
        else:
            status = "DIFF"
        tally[status] += 1
        print(f"{status:<5} {counts(before):>14} {counts(after):>14}  {name}")
    summary = ", ".join(f"{tally[s]} {s}" for s in ("same", "DIFF", "NEW", "GONE"))
    print(f"{sum(tally.values())} names: {summary}")


if __name__ == "__main__":
    main(sys.argv)
