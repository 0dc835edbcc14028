#!/usr/bin/env python3
"""Print (and optionally compare) the end-to-end benchmark's fingerprints.

usage: python3 tools/e2e_fingerprints.py [--seeds 1,5] [--root DIR]
                                         [--workloads paper_stream,regional,game_rolling]
                                         [--compare FILE]

Runs `e2ebench/run.py --seconds 1 --trace 0` once per workload and seed and
prints one line per run:

    <workload> seed=<n> fingerprint: solver_iterations=... served_bits=...

The fingerprint pins every decision's solver iterations and recoveries, the
game rounds, the ingest event counts and the exact bits of the cost and
served share, so two builds that print the same lines made the same
decisions bit for bit. An episode is a fixed number of periods, so the
lines do not depend on the host's speed.

`results/e2e_fingerprints.txt` holds the lines for seeds 1 and 5, and CI
compares every build against it:

    python3 tools/e2e_fingerprints.py --seeds 1,5 --compare results/e2e_fingerprints.txt

A change that moves a decision must commit the new lines, so the move is
a reviewed diff. A change to the solver's arithmetic may move the cost and
served bits at round-off. It may move an iteration count only where
round-off decides a solve's exit test (a recovery solve whose
stationarity sits at its tolerance exits an iteration earlier or later),
and never a recovery, round or event field. A change to where a strict
solve starts (its warm start, or the margin its slacks and duals start
at) may move `solver_iterations`, and the cost and served bits within
the solver's tolerances (`tol_feasibility` 1e-8, `tol_gap` 1e-9
relative): each solve still meets them, at a different iterate. It
never moves `recovery_decisions`, `game_rounds` or an event count.
CHANGES.md gives the size of each move and names each solve whose
iterations moved. Compare such a change against that file,
and on further seeds against the parent commit's lines.

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 tools/e2e_fingerprints.py --root ../parent --seeds 13 > parent.txt
    python3 tools/e2e_fingerprints.py --seeds 13 --compare parent.txt

`--root` runs the benchmark of another checkout (default: this one).
`--compare FILE` exits 1 when any run's line differs from, or is missing
in, FILE, and prints each field that moved; a moved `cost_bits` or
`served_bits` also shows both decoded values and the relative change. A
failed benchmark run exits 2.
"""

import argparse
import os
import struct
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper_stream", "regional", "game_rolling"]


def fingerprint(root: str, workload: str, seed: int) -> str:
    """Runs one benchmark and returns its `fingerprint:` line."""
    run = subprocess.run(
        [
            sys.executable,
            os.path.join(root, "e2ebench", "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=root,
        stdout=subprocess.PIPE,
        text=True,
    )
    if run.returncode != 0:
        raise RuntimeError(f"{workload} seed={seed}: benchmark exited {run.returncode}")
    lines = [l for l in run.stdout.splitlines() if l.startswith("fingerprint: ")]
    if len(lines) != 1:
        raise RuntimeError(f"{workload} seed={seed}: expected one fingerprint line")
    return f"{workload} seed={seed} {lines[0]}"


def key(line: str) -> str:
    """The `<workload> seed=<n>` prefix identifying a run."""
    return " ".join(line.split()[:2])


def fields(line: str) -> dict:
    """The `name=value` fields after a line's `fingerprint:` label."""
    return dict(f.split("=", 1) for f in line.split()[3:])


def decode(bits: str) -> float:
    """The f64 whose IEEE-754 bits `bits` spells in hex."""
    return struct.unpack(">d", int(bits, 16).to_bytes(8, "big"))[0]


def moves(want: str, line: str) -> list:
    """One line per field whose value differs between `want` and `line`."""
    old, new = fields(want), fields(line)
    out = []
    for name in dict.fromkeys([*old, *new]):
        a, b = old.get(name), new.get(name)
        if a == b:
            continue
        text = f"  {name}: {a} -> {b}"
        if name.endswith("_bits") and a is not None and b is not None:
            x, y = decode(a), decode(b)
            change = (y - x) / abs(x) if x else float("inf")
            text += f" ({x:.17g} -> {y:.17g}, relative {change:+.3e})"
        out.append(text)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,5", help="comma-separated seeds")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--root", default=os.path.dirname(HERE), help="checkout to run")
    parser.add_argument("--compare", metavar="FILE", help="saved output to diff against")
    args = parser.parse_args()

    saved = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as f:
            saved = {key(l): l.rstrip("\n") for l in f if l.strip()}
    root = os.path.abspath(args.root)
    differences = 0
    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            try:
                line = fingerprint(root, workload, seed)
            except RuntimeError as e:
                print(f"error: {e}", file=sys.stderr)
                return 2
            print(line, flush=True)
            if saved is not None:
                want = saved.get(key(line))
                if want != line:
                    differences += 1
                    if want is None:
                        print(f"MISSING in {args.compare}: {key(line)}", file=sys.stderr)
                        continue
                    print(f"DIFFERS from {args.compare}: {want}", file=sys.stderr)
                    for text in moves(want, line):
                        print(text, file=sys.stderr)
    if saved is not None:
        print(f"compare: {differences} difference(s)", file=sys.stderr)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
