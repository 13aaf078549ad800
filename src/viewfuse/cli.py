"""Command-line entry point.

Subcommands:
  annotate          run the batch over a corpus directory
  threshold solve   gate threshold from truncated-Gaussian parameters
  threshold sweep   error rates over a grid of candidate thresholds
  bandit simulate   strategy comparison on a simulated environment
  cost              API spend estimate for a corpus size
  demo-corpus       write a synthetic corpus for mock runs

Exit codes: 0 success, 1 runtime failure, 2 bad usage or config.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

from .config import STRATEGIES, PipelineConfig
from .cost import estimate_cost
from .demo import build_demo_corpus
from .errors import ConfigError, DegenerateParams, EngineError, NegativePrice, OutOfRangeArgument
from .errors import ParseError
from .gating import (
    TruncatedGaussianPair,
    density_crossing_coefficients,
    error_rates,
    kl_divergence,
    solve_optimal_threshold,
)
from .model import parse_json, read_bytes
from .pipeline import run_corpus
from .simulate import (
    load_environment,
    runs_to_csv,
    simulate_strategies,
    summarize,
)

# the number of distinct 6-decimal alphas in [0, 1]: a sweep grid with
# more points only prints repeated rows
MAX_SWEEP_POINTS = 1_000_001


def _add_gaussian_args(parser: argparse.ArgumentParser, required: bool) -> None:
    for flag in ("--mu-pos", "--mu-neg", "--sigma-pos", "--sigma-neg"):
        parser.add_argument(flag, type=float, required=required)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viewfuse",
        description="Aggregate per-view captions into gated global annotations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ann = sub.add_parser("annotate", help="run the pipeline over a corpus")
    p_ann.add_argument("--corpus", required=True, help="directory of manifest JSON files")
    p_ann.add_argument("--config", required=True, help="pipeline config JSON file")
    p_ann.add_argument("--mock", action="store_true", help="use deterministic mock providers")
    p_ann.add_argument("--seed", type=int, default=None, help="override config seed")
    p_ann.add_argument("--workers", type=int, default=None, help="override worker count")
    p_ann.add_argument("--out", default="out", help="output directory (default: ./out)")
    p_ann.set_defaults(handler=_cmd_annotate)

    p_thr = sub.add_parser("threshold", help="gate threshold tools")
    thr_sub = p_thr.add_subparsers(dest="threshold_command", required=True)

    p_solve = thr_sub.add_parser("solve", help="solve for the equal-density threshold")
    _add_gaussian_args(p_solve, required=True)
    p_solve.set_defaults(handler=_cmd_threshold_solve)

    p_sweep = thr_sub.add_parser("sweep", help="error rates over a threshold grid")
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--step", type=float, required=True)
    _add_gaussian_args(p_sweep, required=False)
    # the reference parameters, those of acceptance criterion 01
    p_sweep.set_defaults(
        mu_pos=0.65, mu_neg=0.35, sigma_pos=0.1, sigma_neg=0.15, handler=_cmd_threshold_sweep
    )
    p_sweep.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p_bandit = sub.add_parser("bandit", help="bandit tools")
    bandit_sub = p_bandit.add_subparsers(dest="bandit_command", required=True)
    p_sim = bandit_sub.add_parser("simulate", help="compare selection strategies")
    p_sim.add_argument("--env", required=True, help="environment JSON file")
    p_sim.add_argument(
        "--strategies",
        default=",".join(STRATEGIES),
        help=f"comma-separated subset of {{{','.join(STRATEGIES)}}}",
    )
    p_sim.add_argument("--seeds", default="0", help="comma-separated integer seeds")
    p_sim.add_argument("--rounds", type=int, default=10_000)
    p_sim.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p_sim.set_defaults(handler=_cmd_bandit_simulate)

    p_cost = sub.add_parser("cost", help="estimate API spend")
    p_cost.add_argument("--objects", type=int, required=True)
    p_cost.add_argument("--price-image", type=float, required=True)
    p_cost.add_argument("--price-in", type=float, required=True, help="per 1k input tokens")
    p_cost.add_argument("--price-out", type=float, required=True, help="per 1k output tokens")
    p_cost.set_defaults(handler=_cmd_cost)

    p_demo = sub.add_parser("demo-corpus", help="write a synthetic mock corpus")
    p_demo.add_argument("--out", required=True, help="corpus directory to create")
    p_demo.add_argument("--objects", type=int, default=10)
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument(
        "--mismatched",
        default="",
        help="comma-separated object indices given deliberately wrong cloud truth",
    )
    p_demo.set_defaults(handler=_cmd_demo_corpus)
    return parser


def _parse_int_list(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _write_csv(csv: str, out: str | None) -> None:
    """Write `csv` to the file `out`, or to stdout when `out` is not given."""
    if not out:
        sys.stdout.write(csv)
        return
    try:
        Path(out).write_text(csv, encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot write {out}: {e.strerror or e}") from None


def _gaussian_pair(args) -> TruncatedGaussianPair:
    return TruncatedGaussianPair(
        mu_pos=args.mu_pos, mu_neg=args.mu_neg, sigma_pos=args.sigma_pos, sigma_neg=args.sigma_neg
    )


def _cmd_annotate(args) -> int:
    cfg = PipelineConfig.from_file(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.workers is not None:
        cfg.workers = args.workers
    started = time.perf_counter()
    summary = run_corpus(args.corpus, cfg, mock=args.mock, out_dir=args.out)
    elapsed = time.perf_counter() - started
    print(json.dumps(summary, sort_keys=True, indent=2))
    print(f"annotated {summary['objects']} objects in {elapsed:.2f}s", file=sys.stderr)
    return 0


def _cmd_threshold_solve(args) -> int:
    params = _gaussian_pair(args)
    a, b, c = density_crossing_coefficients(params)
    root = solve_optimal_threshold(
        params.mu_pos, params.mu_neg, params.sigma_pos, params.sigma_neg
    )
    fnr, fpr, total = error_rates(params, root)
    print(
        json.dumps(
            {
                "coefficients": {"a": a, "b": b, "c": c},
                "discriminant": b * b - 4.0 * a * c,
                "threshold": root,
                "fnr": fnr,
                "fpr": fpr,
                "total_error": total,
                "kl_divergence": kl_divergence(params),
            },
            sort_keys=True,
            indent=2,
        )
    )
    return 0


def _cmd_threshold_sweep(args) -> int:
    for flag, value in (("--from", args.start), ("--to", args.stop), ("--step", args.step)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    if args.step <= 0:
        raise ConfigError("--step must be positive")
    if args.stop < args.start:
        raise ConfigError("--to must be >= --from")
    span = (args.stop - args.start) / args.step
    if math.isinf(span) or round(span) + 1 > MAX_SWEEP_POINTS:
        raise ConfigError(f"the grid holds more than {MAX_SWEEP_POINTS} points; use a larger --step")
    params = _gaussian_pair(args)
    lines = ["alpha,fnr,fpr,total_error"]
    steps = round(span)
    best_alpha, best_total = None, None
    for k in range(steps + 1):
        alpha = args.start + k * args.step
        if alpha <= 0.0 or alpha >= 1.0:
            continue
        fnr, fpr, total = error_rates(params, alpha)
        lines.append(f"{alpha:.6f},{fnr!r},{fpr!r},{total!r}")
        if best_total is None or total < best_total:
            best_alpha, best_total = alpha, total
    _write_csv("\n".join(lines) + "\n", args.out)
    if best_alpha is not None:
        print(
            f"minimum total error {best_total:.6f} at alpha={best_alpha:.6f}",
            file=sys.stderr,
        )
    return 0


def _cmd_bandit_simulate(args) -> int:
    what = f"environment file {args.env}"
    try:
        doc = parse_json(read_bytes(Path(args.env), what), what)
    except ParseError as e:
        raise ConfigError(str(e)) from None
    try:
        env = load_environment(doc)
    except EngineError as e:
        raise ConfigError(f"{what}: {e}") from None
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise ConfigError(
            f"unknown strategies {unknown}; choose from {list(STRATEGIES)}"
        )
    if not strategies:
        raise ConfigError("--strategies must list at least one strategy")
    seeds = _parse_int_list(args.seeds)
    if not seeds:
        raise ConfigError("--seeds must list at least one integer")
    if args.rounds < 1:
        raise ConfigError("--rounds must be >= 1")
    runs = simulate_strategies(env, strategies, seeds, rounds=args.rounds)
    _write_csv(runs_to_csv(runs), args.out)
    for strategy, agg in summarize(runs).items():
        print(
            f"{strategy}: mean_reward={agg['mean_reward']:.4f} "
            f"final_regret={agg['final_regret']:.2f} "
            f"best_arm_freq={agg['best_arm_frequency']:.4f} "
            f"wall={agg['wall_seconds']:.2f}s",
            file=sys.stderr,
        )
    return 0


def _cmd_cost(args) -> int:
    total = estimate_cost(args.objects, args.price_image, args.price_in, args.price_out)
    print(total)
    return 0


def _cmd_demo_corpus(args) -> int:
    try:
        result = build_demo_corpus(
            args.out,
            num_objects=args.objects,
            seed=args.seed,
            mismatched=_parse_int_list(args.mismatched),
        )
    except (FileExistsError, NotADirectoryError, PermissionError) as e:  # --out itself is unusable
        raise ConfigError(f"cannot write {args.out}: {e.strerror or e}") from None
    print(json.dumps(result, sort_keys=True, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    # the last three come only from argument values (cost, demo-corpus, the threshold tools)
    except (ConfigError, NegativePrice, OutOfRangeArgument, DegenerateParams) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except EngineError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())  # linecov: not run in-process (only `python -m viewfuse.cli` runs it)
