"""Paired benchmark runs of two git revisions, and the table that compares them.

    python3 tools/ab.py --base REV [--head REV] --workload W [--seed S] [--pairs N] [--json PATH]

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

Every run's JSON is kept in `runs.json` under the work directory. With
--json PATH the workload and seed's summary and runs are also written into
PATH, a `BENCH_*.json` file: each end-to-end metric's median and quartiles
per side and the pairs the head won, under `summary`, and every run under
`runs`. An entry already in PATH for the same workload and seed is
replaced, and the others are kept, so one file collects several A/Bs. Only
the standard library and local git are used; BENCHMARK.json is read,
never written. `git stash create` names the working tree's tracked
changes as a revision, so uncommitted work can be the head.
"""

import argparse
import json
import os
import platform
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


def pairs_won(metric: dict, base: list[float], head: list[float]) -> int:
    """The pairs whose head run reads better than its base run; ties count for neither."""
    sign = 1 if metric["better"] == "higher" else -1
    return sum(sign * (h - b) > 0 for b, h in zip(base, head))


def compare(metric: dict, base: list[float], head: list[float]) -> str:
    """One table line for `metric` over paired runs."""
    sign = 1 if metric["better"] == "higher" else -1
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    won = pairs_won(metric, base, head)
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


def write_json(path: Path, workload: str, seed: int, revs: tuple[str, str], spec: dict,
               runs: dict[str, list[dict]]) -> None:
    """Put one A/B's summary and runs into the BENCH file at `path`.

    `runs` holds each side's bench results in pair order, and the base
    ran first in the even pairs. Entries of other workloads or seeds are
    kept; those of this workload and seed are replaced.
    """
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {
        "command": f"python3 bench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "machine": f"{os.cpu_count()}-vCPU {platform.system()}, {platform.python_implementation()} "
                   f"{platform.python_version()}; each side run from its own git archive copy, "
                   "pairs alternating which side runs first",
        "note": "Medians and quartiles are over the runs of one workload and seed; "
                "change_better_pairs counts the pairs the change won, ties for neither.",
        "summary": [],
        "runs": [],
    }
    mine = {"workload": workload, "seed": seed}
    pairs = len(runs["base"])
    entry = {**mine, "pairs": pairs, "parent": revs[0], "change": revs[1]}
    for metric in spec["end_to_end"]:
        values = {side: [r["metrics"][metric["name"]]["value"] for r in runs[side]] for side in runs}
        (b1, bm, b3), (h1, hm, h3) = quartiles(values["base"]), quartiles(values["head"])
        entry[metric["name"]] = {
            "parent_median": round(bm, 4),
            "parent_quartiles": [round(b1, 4), round(b3, 4)],
            "change_median": round(hm, 4),
            "change_quartiles": [round(h1, 4), round(h3, 4)],
            "change_better_pairs": pairs_won(metric, values["base"], values["head"]),
        }
    rows = [
        {**mine, "trace": 0, "pair": pair, "side": name, "ran_first": (pair % 2 == 0) == (side == "base"),
         "result": runs[side][pair]}
        for pair in range(pairs)
        for side, name in (("base", "parent"), ("head", "change"))
    ]
    for key, new in (("summary", [entry]), ("runs", rows)):
        doc[key] = [item for item in doc[key] if (item["workload"], item["seed"]) != (workload, seed)] + new
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="revision to compare against")
    ap.add_argument("--head", default="HEAD", help="revision under test (default HEAD)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--work", type=Path, help="new directory for the copies (default: a temporary one)")
    ap.add_argument("--json", type=Path, help="BENCH_*.json file to write this A/B into")
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
    if args.json:
        write_json(args.json, args.workload, args.seed, (args.base, args.head), spec, runs)


if __name__ == "__main__":
    main()
