#!/usr/bin/env python3
"""Alternating parent/change perfbench pairs, workload by workload.

    python3 tools/perf_pairs.py --workload kv_zipf [pwc_small ...] \\
        [--pairs 10] [--seconds 10] [--parent HEAD] [--change WORKTREE] \\
        [--seed 701] [--keep]

Exports each side with `git archive` into its own temporary directory and
gives each side its own absolute CARGO_TARGET_DIR, so neither side can build
the other's sources from a shared or copied build tree. `--change WORKTREE`
(the default) exports the working tree as it stands, untracked files that
are not ignored included, without touching the index or any ref.

Each side is built once. For each workload, pair i runs both sides with
seed SEED + i; even pairs run the parent first, odd pairs the change first.
Every run is printed, then each metric's median per side, the change/parent
ratio, the number of pairs the change won, the parent's interquartile range,
and, for end-to-end metrics, the BENCHMARK.json bound the ratio is held to
(PAST BOUND marks a median worse than it, and the exit status is 2; a
failed run stops the comparison with status 1). Reads
BENCHMARK.json and runs perfbench/run.py from each export; changes no file
and no index entry in this checkout.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args, env=None, stdout=subprocess.PIPE):
    return subprocess.run(["git", "-C", ROOT, *args], env=env, stdout=stdout,
                          check=True, text=stdout is subprocess.PIPE)


def tree_of(rev, scratch):
    """A tree-ish for `rev`; WORKTREE writes the working tree's tree object
    through a throwaway index."""
    if rev != "WORKTREE":
        return git("rev-parse", "--verify", rev + "^{tree}").stdout.strip()
    env = dict(os.environ, GIT_INDEX_FILE=os.path.join(scratch, "index"))
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    return git("write-tree", env=env).stdout.strip()


def export(rev, side, scratch):
    """Unpack `rev` into scratch/side/src; returns (src dir, env)."""
    src = os.path.join(scratch, side, "src")
    os.makedirs(src)
    archive = os.path.join(scratch, side, "tree.tar")
    with open(archive, "wb") as f:
        git("archive", "--format=tar", tree_of(rev, scratch), stdout=f)
    subprocess.run(["tar", "-xf", archive, "-C", src], check=True)
    os.remove(archive)
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(scratch, side, "target"))
    return src, env


def run_once(src, env, workload, seed, seconds):
    """One perfbench run; returns its result object (None on failure)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(src, "perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=src, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def compare(args, sides, workload, bounds, better):
    """Run the pairs for one workload and print the comparison; returns 0,
    1 when a run failed, or 2 when a median is past its bound."""
    print("\n== %s: %d pairs of %d s" % (workload, args.pairs, args.seconds),
          flush=True)
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            src, env = sides[side]
            res = run_once(src, env, workload, seed, args.seconds)
            if res is None:
                print("perf_pairs: %s run failed (seed %d)" % (side, seed),
                      file=sys.stderr)
                return 1
            runs[side].append(res)
            vals = " ".join("%s=%.4g" % (k, m["value"])
                            for k, m in sorted(res["metrics"].items()))
            print("pair %2d seed %d %-6s failed=%d/%d %s" % (
                i, seed, side, res["failed"], res["attempted"], vals),
                flush=True)

    print("\n%-16s %12s %12s %8s %6s %22s %s" % (
        "metric", "parent_med", "change_med", "ratio", "wins",
        "parent_iqr", "bound"))
    status = 0
    for name in sorted(runs["parent"][0]["metrics"]):
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        pm, cm = statistics.median(p), statistics.median(c)
        ratio = cm / pm if pm else float("nan")
        higher = better.get(name, "lower") == "higher"
        wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        q1, q3 = quartiles(p)
        note = ""
        if name in bounds:
            bound = bounds[name]["bound"]
            worse = (1 - ratio) if higher else (ratio - 1)
            note = "%.2f%s" % (bound, "  PAST BOUND" if worse > bound else "")
            if worse > bound:
                status = 2
        print("%-16s %12.5g %12.5g %8.3f %3d/%-2d [%9.4g,%9.4g] %s" % (
            name, pm, cm, ratio, wins, len(p), q1, q3, note))
    for side in ("parent", "change"):
        att = sum(r["attempted"] for r in runs[side])
        fail = sum(r["failed"] for r in runs[side])
        print("%s fail_ratio %.3g (%d/%d)" % (side, fail / att if att else 0,
                                               fail, att))
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=701)
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--change", default="WORKTREE")
    ap.add_argument("--workdir", default=None,
                    help="where the temporary exports go (default: system temp)")
    ap.add_argument("--keep", action="store_true",
                    help="keep the exports and their build trees")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    scratch = tempfile.mkdtemp(prefix="perf_pairs-", dir=args.workdir)
    try:
        sides = {"parent": export(args.parent, "parent", scratch),
                 "change": export(args.change, "change", scratch)}
        for side, (src, env) in sides.items():
            print("building %s (%s)..." % (side, getattr(args, side)), flush=True)
            if run_once(src, env, args.workload[0], args.seed, 1) is None:
                print("perf_pairs: %s failed to build or run" % side, file=sys.stderr)
                return 1

        status = 0
        for workload in args.workload:
            st = compare(args, sides, workload, bounds, better)
            if st == 1:
                return 1
            status = max(status, st)
        return status
    finally:
        if args.keep:
            print("exports kept in %s" % scratch)
        else:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
