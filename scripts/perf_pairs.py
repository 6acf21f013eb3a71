#!/usr/bin/env python3
"""Run perfbench on two commits in alternating pairs and write BENCH_<TAG>.json.

Each commit is checked out as a clean, detached git worktree under
``.perfbench/pairs/``.  For each workload in turn (every workload of
BENCHMARK.json, or those named by ``--workload``), pair i runs
``python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0``
once in each worktree, the parent first when i is even; S is ``--seed``,
0 by default, and the record's command names it.  A pair keeps the record
that run.py wrote to ``.perfbench/results/`` of each worktree.  The
summary gives each end-to-end metric's median and quartiles per side, and
the pairs the change won and lost, ties counting for neither.  The
worktrees are removed at the end.

Usage, from the repository root:
    python3 scripts/perf_pairs.py --parent REV --change REV --pairs K --tag TAG
        [--seed S] [--workload W ...]
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
ARGS = ("--seconds", "20", "--trace", "0")
WHAT = (
    "perfbench end-to-end records (--trace 0) of the parent and the change, run in "
    "alternating pairs from two clean checkouts on one host; pair i ran the parent first "
    "when i is even. Each record is the file perfbench/run.py wrote to .perfbench/results/, "
    "with its machine record and commit; summary gives each end-to-end metric's median and "
    "quartiles per side and the pairs the change won and lost."
)


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def quartiles(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def summarize(pairs: list[dict], lower: dict[str, bool]) -> dict[str, dict]:
    """Per end-to-end metric (``lower`` maps each name to whether lower is
    better): each side's median and quartiles over ``pairs``, the pairs the
    change won and lost, the pair count and the change's median over the
    parent's (None when the parent's is 0)."""
    summary = {}
    for metric, lower_better in lower.items():
        values = {side: [pair[side]["metrics"][metric] for pair in pairs] for side in SIDES}
        wins = losses = 0
        for parent, change in zip(values["parent"], values["change"]):
            if change != parent:
                won = change < parent if lower_better else change > parent
                wins, losses = wins + won, losses + (not won)
        entry = {side: quartiles(values[side]) for side in SIDES}
        base = entry["parent"]["median"]
        summary[metric] = {
            **entry,
            "change_wins": wins,
            "change_losses": losses,
            "pairs": len(pairs),
            "median_ratio": entry["change"]["median"] / base if base else None,
        }
    return summary


def run_once(tree: str, workload: str, seed: int) -> dict:
    """One perfbench run in the worktree ``tree``, and the record it wrote."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), *ARGS]
    subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.DEVNULL)
    with open(os.path.join(tree, ".perfbench", "results", f"{workload}-seed{seed}-trace0.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the commit measured as the parent")
    ap.add_argument("--change", required=True, help="the commit measured as the change")
    ap.add_argument("--pairs", type=int, required=True, help="pairs per workload")
    ap.add_argument("--tag", required=True, help="writes BENCH_<TAG>.json at the repository root")
    ap.add_argument("--seed", type=int, default=0, help="the workload seed of every run (default 0)")
    ap.add_argument(
        "--workload",
        action="append",
        help="a workload to run, repeatable (default: every workload of BENCHMARK.json)",
    )
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    known = [entry["name"] for entry in spec["workloads"]]
    unknown = sorted(set(args.workload or ()) - set(known))
    if unknown:
        ap.error(f"unknown workload(s) {', '.join(unknown)}; choices: {', '.join(known)}")
    chosen = [w for w in known if w in args.workload] if args.workload else known
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    commits = {side: git("rev-parse", "--verify", f"{getattr(args, side)}^{{commit}}") for side in SIDES}
    trees = {side: os.path.join(ROOT, ".perfbench", "pairs", side) for side in SIDES}
    for tree in trees.values():
        if os.path.exists(tree):
            subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=ROOT, check=False)
            shutil.rmtree(tree, ignore_errors=True)
    git("worktree", "prune")
    try:
        for side in SIDES:
            git("worktree", "add", "--detach", trees[side], commits[side])
        workloads = {}
        for workload in chosen:
            pairs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                records = {side: run_once(trees[side], workload, args.seed) for side in order}
                for side in SIDES:
                    if records[side]["machine"]["commit"] != commits[side]:
                        raise RuntimeError(f"{workload} pair {i}: the {side} record is not of {commits[side]}")
                pairs.append({"index": i, "first": order[0], **{side: records[side] for side in SIDES}})
                walls = " ".join(f"{side} {records[side]['metrics']['wall_s']:.3f}" for side in order)
                print(f"{workload} pair {i}: wall_s {walls}", flush=True)
            workloads[workload] = {"summary": summarize(pairs, lower), "pairs": pairs}
    finally:
        for tree in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=ROOT, check=False)
    doc = {
        "what": WHAT,
        "command": f"python3 perfbench/run.py --workload <workload> --seed {args.seed} " + " ".join(ARGS),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "workloads": workloads,
    }
    out = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for workload, entry in workloads.items():
        wall = entry["summary"]["wall_s"]
        print(
            f"{workload}: wall_s median {wall['parent']['median']:.3f} -> {wall['change']['median']:.3f} s, "
            f"ratio {wall['median_ratio']:.3f}, change won {wall['change_wins']}/{wall['pairs']}"
        )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
