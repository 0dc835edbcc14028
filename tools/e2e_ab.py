#!/usr/bin/env python3
"""Alternating A/B runs of the end-to-end benchmark: a base checkout against this one.

usage: python3 tools/e2e_ab.py --base DIR --workload W --seed N --pairs K
                               [--change DIR] [--seconds S] [--trace 0|1]

Builds each checkout's `e2ebench` into that checkout's own target
directory (`<checkout>/.bench_build`, the default of `e2ebench/run.py`),
then runs `python3 e2ebench/run.py --workload W --seed N --seconds S
--trace T` K times on each side, one pair at a time. The side that runs
first alternates from pair to pair, so a drift of the host's speed hits
both sides alike.

For every end-to-end metric that `BENCHMARK.json` (of the change
checkout) declares, or every per-layer metric with `--trace 1`, it
prints each side's median and quartiles, the
relative change of the medians, and the pairs the change won: a pair is
a win when the change's value is strictly better in the metric's
`better` direction. It then says whether the claim rule holds: at least
nine of ten pairs won, and the medians further apart, in the better
direction, than the base's interquartile range. A run that exits
nonzero, prints no result, reports `"correct": false` or counts failed
operations is listed by side and pair, and its metrics are left out.

Example, against the parent commit:

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 tools/e2e_ab.py --base ../parent --workload paper_stream --seed 13 --pairs 10

Exits 0 when every run succeeded, 2 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), interpolated linearly
    between order statistics (`statistics.quantiles`' inclusive method)."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


@dataclass
class Summary:
    """One metric's A/B summary over the pairs where both runs succeeded."""

    base: tuple
    change: tuple
    relative: float
    wins: int
    pairs: int
    holds: bool


def summarize(base: list, change: list, better: str) -> Summary:
    """Summarizes paired runs: `base[i]` and `change[i]` are pair `i`'s
    values, and `better` is `"higher"` or `"lower"`."""
    if len(base) != len(change) or not base:
        raise ValueError("need one base and one change value per pair, at least one pair")
    if better not in ("higher", "lower"):
        raise ValueError(f"unknown direction {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    b, c = quartiles(base), quartiles(change)
    wins = sum(1 for x, y in zip(base, change) if sign * (y - x) > 0)
    relative = (c[1] - b[1]) / abs(b[1]) if b[1] else math.copysign(math.inf, c[1] - b[1])
    gap = sign * (c[1] - b[1])
    holds = 10 * wins >= 9 * len(base) and gap > b[2] - b[0]
    return Summary(b, c, relative, wins, len(base), holds)


def result(stdout: str) -> dict:
    """The result JSON on the last line of a benchmark run's output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def failure(returncode: int, stdout: str):
    """Why a run does not count, or None when it does."""
    if returncode != 0:
        return f"exited {returncode}"
    try:
        run = result(stdout)
    except ValueError as e:
        return f"no result JSON ({e})"
    if not run.get("correct", False):
        return "reported correct=false"
    if run.get("failed", 0):
        return f"{run['failed']} failed operation(s)"
    return None


def build(root: str) -> None:
    """Builds `root`'s benchmark the way its `e2ebench/run.py` does."""
    subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(root, "e2ebench", "Cargo.toml"),
        ],
        env=environment(root),
        check=True,
    )


def environment(root: str) -> dict:
    """The environment of `root`'s runs: its own target directory."""
    return dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))


def run(root: str, args) -> tuple:
    """One benchmark run of `root`: (exit code, standard output)."""
    done = subprocess.run(
        [
            sys.executable,
            os.path.join(root, "e2ebench", "run.py"),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            f"{args.seconds:g}",
            "--trace",
            str(args.trace),
        ],
        cwd=root,
        env=environment(root),
        stdout=subprocess.PIPE,
        text=True,
    )
    return done.returncode, done.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the checkout to compare against")
    parser.add_argument("--change", default=os.path.dirname(HERE), help="default: this checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    roots = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    if roots["base"] == roots["change"]:
        parser.error("--base and --change name the same checkout")
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["per_layer" if args.trace else "end_to_end"]
    for root in roots.values():
        build(root)

    values = {side: [] for side in roots}
    failures = []
    for pair in range(args.pairs):
        order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
        outcome = {}
        for side in order:
            code, stdout = run(roots[side], args)
            why = failure(code, stdout)
            if why:
                failures.append(f"pair {pair + 1} {side}: {why}")
            else:
                outcome[side] = result(stdout)["metrics"]
        if len(outcome) == 2:
            for side in roots:
                values[side].append(outcome[side])
        print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr, flush=True)

    print(
        f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
        f"{len(values['base'])} of {args.pairs} pairs counted"
    )
    width = max(len(m["name"]) for m in metrics)
    print(f"{'metric':<{width}} {'base median [q1-q3]':>30} {'change median [q1-q3]':>30} {'change':>9} {'wins':>6}  rule")
    for metric in metrics:
        name = metric["name"]
        base = [m[name]["value"] for m in values["base"] if name in m]
        change = [m[name]["value"] for m in values["change"] if name in m]
        if not base or len(base) != len(change):
            print(f"{name:<{width}} (not reported by every counted run)")
            continue
        s = summarize(base, change, metric["better"])
        spread = lambda q: f"{q[1]:.4g} [{q[0]:.4g}-{q[2]:.4g}]"
        print(
            f"{name:<{width}} {spread(s.base):>30} {spread(s.change):>30} {s.relative:>+9.2%} "
            f"{s.wins:>3}/{s.pairs:<2}  {'holds' if s.holds else 'does not hold'}"
        )
    for line in failures:
        print(f"FAILED {line}")
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
