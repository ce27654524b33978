#!/usr/bin/env python3
"""Check that the command-line output of the working tree matches a git revision.

    python tools/same_bytes.py REV

The `src` tree of REV is unpacked from `git archive REV src` into a
temporary directory, so the script adds nothing to `.git`.  One fixed list
of `python -m solfold.cli` commands then runs against the `src` of each
tree, and for each command the script compares stdout, stderr, the exit
code and the file named by `--out`.  Each tree's own paths are masked
first, so only what the program says can differ.  The commands that differ
are printed; the exit code is 1 if any does, else 0.

The list covers the verify suites at several seeds, every export in each of
its formats, the limit-set and domain exports of several matrices and radii,
and the bad-input cases.  A change meant to keep every report and export
byte for byte runs this against its parent commit.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[1]
OUT = "{out}"       # stands for the output directory of the tree being run
HUGE = 10 ** 160    # a trace whose square overflows a float


def commands() -> List[List[str]]:
    """The fixed command list, as argv lists after `python -m solfold.cli`."""
    cmds = []
    for seed in ("0", "7", "11", "110007"):
        for suite in ("sol", "heis", "kleinian", "quotient", "all"):
            cmds.append(["verify", "--suite", suite, "--seed", seed,
                         "--out", f"{OUT}/verify-{suite}-{seed}.json"])
    cmds += [
        ["report", "--in", f"{OUT}/verify-all-0.json", "--out", f"{OUT}/report.txt"],
        ["verify", "--suite", "all", "--lambda", "2.5"],
        ["verify", "--suite", "all", "--tol-scale", "1e-3"],
    ]
    for target in ("flow", "leaf-metric", "orbit"):
        for fmt in ("csv", "json"):
            cmds.append(["export", target, "--format", fmt,
                         "--out", f"{OUT}/{target}.{fmt}"])
    # limit-set and domain write json alone and take no --format
    for target in ("domain", "limit-set"):
        cmds.append(["export", target, "--out", f"{OUT}/{target}.json"])
    cmds.append(["export", "leaf-metric", "--y1", "0.3", "--y2", "2.5",
                 "--t-range", "-1:1:0.125"])
    for A in ("2,1,1,1", "3,2,1,1", "5,4,1,1", "7,4,5,3"):
        for N in ("0", "1", "8", "20"):
            cmds.append(["export", "limit-set", "--A", A, "--N", N])
    # the commands above stop at N = 20; the dual arrays run to |k| = N, and
    # the lines of a symmetric A (2,1,1,1) each have a mirrored twin in the
    # other pencil
    for A in ("3,2,1,1", "2,1,1,1"):
        cmds.append(["export", "limit-set", "--A", A, "--N", "40"])
    for A in ("2,1,1,1", "3,2,1,1", "7,4,5,3"):
        cmds.append(["export", "domain", "--A", A])
    # the embed-agreement row and the quotient checks at sample counts and
    # matrices off the defaults; 1000,999,1,1 fails embed-agreement (exit 1)
    cmds += [
        ["verify", "--suite", "kleinian", "--A", "7,4,5,3", "--samples", "7"],
        ["verify", "--suite", "quotient", "--A", "3,2,1,1", "--samples", "1"],
        ["verify", "--suite", "kleinian", "--A", "1000,999,1,1"],
        ["export", "orbit", "--A", "3,2,1,1", "--N", "20", "--format", "json"],
        ["export", "orbit", "--base=-0+1i,-0.0+2i"],
    ]
    # toral_act, fundamental_domain_reduce and the Heisenberg reduction take
    # arrays in one body each: an orbit off the default matrix and base, and
    # the quotient checks at a sample count and matrix off the defaults
    cmds += [
        ["export", "orbit", "--A", "7,4,5,3", "--N", "12", "--base=2.5+0.1i,-7+9i",
         "--format", "json"],
        ["verify", "--suite", "quotient", "--A", "7,4,5,3", "--samples", "60", "--seed", "3"],
    ]
    # the flow, metric and finite-difference routes of the sol and heis rows
    # run once over the samples: above every row's cap, and at one sample
    cmds += [
        ["verify", "--suite", "sol", "--samples", "2000", "--seed", "5"],
        ["verify", "--suite", "heis", "--samples", "1", "--seed", "9"],
    ]
    # the block draws of embed-agreement at 9 samples and at 301, above the
    # cap of 300, and of the quotient checks at 299, one under it
    cmds += [
        ["verify", "--suite", "kleinian", "--samples", "9", "--seed", "2"],
        ["verify", "--suite", "kleinian", "--samples", "301", "--seed", "6"],
        ["verify", "--suite", "quotient", "--samples", "299", "--seed", "8"],
    ]
    # the quotient checks at two seeds off the default
    cmds += [["verify", "--suite", "quotient", "--seed", seed] for seed in ("124586", "156929")]
    cmds += [
        ["export", "orbit", "--N", "91"],
        ["verify", "--suite", "kleinian", "--A", "2,1,1"],
        ["verify", "--suite", "kleinian", "--A", f"{HUGE},1,{HUGE - 1},1"],
        ["export", "domain", "--A", f"{HUGE},1,{HUGE - 1},1"],
    ]
    return cmds


def run(tree: Path, out: Path, argv: List[str]) -> tuple:
    """(stdout, stderr, exit code, --out bytes or None) of one command, with
    the tree's and the output directory's paths masked."""
    argv = [a.replace(OUT, str(out)) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "solfold.cli", *argv],
                          cwd=out, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                          capture_output=True)

    def mask(b: bytes) -> bytes:
        return b.replace(str(out).encode(), b"<out>").replace(str(tree).encode(), b"<tree>")

    target: Optional[bytes] = None
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        target = mask(path.read_bytes()) if path.exists() else None
    return mask(proc.stdout), mask(proc.stderr), proc.returncode, target


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    rev = parser.parse_args(argv).rev
    cmds = commands()
    differ = 0
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        base, out_rev, out_work = (Path(tmp) / d for d in ("rev", "out-rev", "out-work"))
        for d in (base, out_rev, out_work):
            d.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        for cmd in cmds:
            old = run(base, out_rev, cmd)
            new = run(ROOT, out_work, cmd)
            parts = [part for part, a, b in zip(("stdout", "stderr", "exit code", "--out file"),
                                                old, new) if a != b]
            if parts:
                differ += 1
                print(f"differs in {', '.join(parts)}: {shlex.join(cmd)}"
                      f" (exit {old[2]} -> {new[2]})")
    print(f"{len(cmds) - differ} of {len(cmds)} commands agree with {rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
