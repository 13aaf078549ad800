"""Paired benchmark runs of two git revisions, and the table that compares them.

    python3 tools/ab.py --base REV [--head REV] --workload W [--seed S] [--pairs N]

Each revision is written out with `git archive` into its own directory
under --work (by default a new temporary directory outside the
repository). Then `python3 bench/run.py --workload W --seed S --seconds
25 --trace 0` runs in each copy, N pairs, the side that runs first
alternating from pair to pair. For each end-to-end metric of the base's
BENCHMARK.json it prints each side's median [quartiles], the pairs the
head won (ties count for neither), the base's IQR, whether a gain is
resolved, and whether the metric's bound holds:

- a gain is resolved when the head wins at least nine tenths of the
  pairs and its median is better than the base's by more than the
  base's IQR;
- the bound holds when the head's median is no worse than the base's by
  more than `bound` times the base's median; where the base's IQR is
  wider than that, the metric is unresolved unless every head run reads
  better than every base run.

Every run's JSON is kept in `runs.json` under the work directory. Only
the standard library and local git are used; BENCHMARK.json is read,
never written. `git stash create` names the working tree's tracked
changes as a revision, so uncommitted work can be the head.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 25  # the run length every comparison uses, so runs of different A/Bs compare


def archive(rev: str, dest: Path) -> Path:
    """The tree of `rev`, written out under `dest`."""
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return dest


def bench_run(tree: Path, workload: str, seed: int) -> dict:
    """The last stdout line of one benchmark run in `tree`, as JSON."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{tree.name}: bench/run.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(metric: dict, base: list[float], head: list[float]) -> str:
    """One table line for `metric` over paired runs."""
    sign = 1 if metric["better"] == "higher" else -1
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    won = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    iqr = b3 - b1
    gain = "resolved" if won >= 0.9 * len(base) and sign * (hm - bm) > iqr else "unresolved"
    allowed = metric["bound"] * abs(bm)
    if sign * (bm - hm) > allowed:
        bound = "exceeded"
    elif iqr > allowed and not min(sign * h for h in head) > max(sign * b for b in base):
        bound = "holds, spread wider than bound: unresolved"
    else:
        bound = "holds"
    change = (hm - bm) / bm * 100 if bm else 0.0
    return (
        f"{metric['name']:<17} {bm:.6g} [{b1:.6g}, {b3:.6g}] -> {hm:.6g} [{h1:.6g}, {h3:.6g}]"
        f" ({change:+.1f}%; won {won}/{len(base)}; base IQR {iqr:.3g}): gain {gain}; bound {bound}"
    )


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="revision to compare against")
    ap.add_argument("--head", default="HEAD", help="revision under test (default HEAD)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--work", type=Path, help="new directory for the copies (default: a temporary one)")
    args = ap.parse_args(argv)

    work = args.work or Path(tempfile.mkdtemp(prefix="viewfuse-ab-"))
    sides = {"base": archive(args.base, work / "base"), "head": archive(args.head, work / "head")}
    spec = json.loads((sides["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    for pair in range(args.pairs):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for side in order:
            runs[side].append(bench_run(sides[side], args.workload, args.seed))
        print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    (work / "runs.json").write_text(json.dumps(runs, indent=1), encoding="utf-8")

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {SECONDS} s: "
          f"base {args.base} -> head {args.head} (runs in {work / 'runs.json'})")
    for side, results in runs.items():
        bad = [r for r in results if not r["correct"] or r["failed"]]
        print(f"{side}: {len(results) - len(bad)}/{len(results)} runs correct with 0 failed")
    for metric in spec["end_to_end"]:
        values = {side: [r["metrics"][metric["name"]]["value"] for r in runs[side]] for side in runs}
        print(compare(metric, values["base"], values["head"]))


if __name__ == "__main__":
    main()
