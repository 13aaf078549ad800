import errno
import json
import math

import pytest

from viewfuse import cli, pipeline
from viewfuse.cli import main
from viewfuse.config import PROVIDER_ROLES, PipelineConfig, config_sha256


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cost_prints_exact_total(capsys):
    code, out, _ = run(
        capsys, "cost",
        "--objects", "1", "--price-image", "0.001",
        "--price-in", "0.5", "--price-out", "1.0",
    )
    assert code == 0
    assert float(out.strip()) == 23.53


def test_threshold_solve_reports_root_and_diagnostics(capsys):
    code, out, _ = run(
        capsys, "threshold", "solve",
        "--mu-pos", "0.65", "--mu-neg", "0.35",
        "--sigma-pos", "0.1", "--sigma-neg", "0.15",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["threshold"] == pytest.approx(0.5102675364261126, abs=1e-9)
    assert doc["coefficients"]["a"] == pytest.approx(-55.5555555556, abs=1e-6)
    assert doc["coefficients"]["b"] == pytest.approx(98.8888888889, abs=1e-6)
    assert doc["fnr"] + doc["fpr"] == pytest.approx(doc["total_error"], abs=1e-12)
    assert doc["kl_divergence"] > 0


def test_threshold_solve_output_is_strict_json_for_separated_populations(capsys):
    # 0 * log(0 / q) made the divergence NaN, which JSON cannot hold
    code, out, _ = run(
        capsys, "threshold", "solve",
        "--mu-pos", "0.95", "--mu-neg", "0.9",
        "--sigma-pos", "0.01", "--sigma-neg", "0.3",
    )

    def reject(constant):
        raise AssertionError(f"stdout holds {constant}")

    assert code == 0
    assert json.loads(out, parse_constant=reject)["kl_divergence"] == pytest.approx(2.4524, abs=1e-4)


def test_threshold_solve_without_a_crossing_in_the_unit_interval_exits_1(capsys):
    # the crossing between the means is at 3.995, outside the similarity range
    code, out, err = run(
        capsys, "threshold", "solve",
        "--mu-pos", "5", "--mu-neg", "3", "--sigma-pos", "1", "--sigma-neg", "1.1",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: NoRootInUnitInterval: no crossing in (0, 1); roots [3.99")


GAUSSIANS = ("--mu-pos", "0.65", "--mu-neg", "0.35", "--sigma-pos", "0.1", "--sigma-neg", "0.15")
PRICES = ("--price-image", "0.001", "--price-in", "0.5", "--price-out", "1.0")
SWEEP = ("threshold", "sweep", "--from", "0.4", "--to", "0.7", "--step", "0.01")

# (argv, with {tmp} for the test's directory; the error it prints)
BAD_ARGUMENT_VALUES = {
    "cost-negative-objects": (("cost", "--objects", "-1", *PRICES), "num_objects must be >= 0, got -1"),
    "cost-nan-price": (
        ("cost", "--objects", "1", *PRICES, "--price-image", "nan"),
        "price_image must be finite and >= 0, got nan",
    ),
    "demo-no-objects": (("demo-corpus", "--out", "{tmp}/corpus", "--objects", "0"), "num_objects must be >= 1"),
    "demo-mismatched-beyond-objects": (
        ("demo-corpus", "--out", "{tmp}/corpus", "--objects", "2", "--mismatched", "5"),
        "mismatched index 5 outside 0..1",
    ),
    "demo-out-under-a-file": (
        ("demo-corpus", "--out", "{tmp}/file/corpus", "--objects", "1"),
        "cannot write {tmp}/file/corpus: Not a directory",
    ),
    "demo-out-is-a-file": (
        ("demo-corpus", "--out", "{tmp}/file", "--objects", "1"),
        "cannot write {tmp}/file: Not a directory",
    ),
    "solve-equal-means": (
        ("threshold", "solve", *GAUSSIANS, "--mu-neg", "0.65"),
        "mu_pos (0.65) must exceed mu_neg (0.65)",
    ),
    "solve-zero-sigma": (("threshold", "solve", *GAUSSIANS, "--sigma-pos", "0"), "sigmas must be positive"),
    "solve-nan-sigma": (("threshold", "solve", *GAUSSIANS, "--sigma-neg", "nan"), "sigma_neg must be finite"),
    "sweep-zero-sigma": ((*SWEEP, "--sigma-pos", "0"), "sigmas must be positive"),
    "sweep-nan-sigma": ((*SWEEP, "--sigma-neg", "nan"), "sigma_neg must be finite"),
    "sweep-means-reversed": ((*SWEEP, "--mu-pos", "0.2"), "mu_pos (0.2) must exceed mu_neg (0.35)"),
    "sweep-zero-step": ((*SWEEP, "--step", "0"), "--step must be positive"),
    "sweep-to-below-from": ((*SWEEP, "--to", "0.3"), "--to must be >= --from"),
}


@pytest.mark.parametrize("case", BAD_ARGUMENT_VALUES)
def test_bad_argument_values_exit_2(capsys, tmp_path, case):
    argv, message = BAD_ARGUMENT_VALUES[case]
    (tmp_path / "file").write_text("a plain file where a directory must go")
    code, out, err = run(capsys, *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
    assert (code, out) == (2, "")
    assert err == f"error: {message.replace('{tmp}', str(tmp_path))}\n"
    assert not (tmp_path / "corpus").exists()


def test_demo_corpus_write_failure_is_a_runtime_fault(monkeypatch, tmp_path):
    # only an --out that cannot be made is bad usage, not a disk that fills up
    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "build_demo_corpus", full_disk)
    with pytest.raises(OSError, match="No space left on device"):
        main(["demo-corpus", "--out", str(tmp_path / "corpus"), "--objects", "1"])


def test_threshold_sweep_writes_csv_and_reports_minimum(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, out, err = run(
        capsys, "threshold", "sweep",
        "--from", "0.4", "--to", "0.7", "--step", "0.01",
        "--out", str(out_file),
    )
    assert code == 0
    assert out == ""
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "alpha,fnr,fpr,total_error"
    assert len(lines) == 32  # header + inclusive grid 0.40..0.70
    assert "minimum" in err and "0.51" in err


def test_threshold_sweep_stdout_mode(capsys):
    code, out, _ = run(
        capsys, "threshold", "sweep",
        "--from", "0.5", "--to", "0.52", "--step", "0.01",
    )
    assert code == 0
    assert out.splitlines()[0] == "alpha,fnr,fpr,total_error"
    assert len(out.strip().splitlines()) == 4


@pytest.mark.parametrize(
    "bounds",
    [
        ("nan", "0.7", "0.01"),
        ("0.4", "inf", "0.01"),
        ("0.4", "0.7", "nan"),
        ("0.4", "0.7", "inf"),
    ],
    ids=["from-nan", "to-inf", "step-nan", "step-inf"],
)
def test_threshold_sweep_non_finite_bound_exit_2(capsys, bounds):
    start, stop, step = bounds
    code, out, err = run(
        capsys, "threshold", "sweep", "--from", start, "--to", stop, "--step", step,
    )
    assert (code, out) == (2, "")
    assert "must be finite" in err


BAD_OUT_PATHS = {
    "missing-parent": (lambda tmp_path: tmp_path / "no-such-dir" / "out.csv", "No such file or directory"),
    "directory": (lambda tmp_path: tmp_path, "Is a directory"),
}


@pytest.mark.parametrize("case", BAD_OUT_PATHS)
def test_threshold_sweep_bad_out_path_exit_2(capsys, tmp_path, case):
    path_of, reason = BAD_OUT_PATHS[case]
    out_path = path_of(tmp_path)
    code, out, err = run(
        capsys, "threshold", "sweep", "--from", "0.5", "--to", "0.52", "--step", "0.01",
        "--out", str(out_path),
    )
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {out_path}: {reason}\n"


@pytest.fixture
def counted_error_rates(monkeypatch):
    """Replaces the sweep's error_rates with a constant one that raises
    after MAX_SWEEP_POINTS + 1 calls, so an unbounded grid fails fast."""
    calls = []

    def fake(params, alpha):
        calls.append(alpha)
        if len(calls) > cli.MAX_SWEEP_POINTS:
            raise AssertionError("the sweep went past MAX_SWEEP_POINTS points")
        return 0.5, 0.5, 1.0

    monkeypatch.setattr(cli, "error_rates", fake)
    return calls


@pytest.mark.parametrize(
    "bounds",
    [
        ("0.4", "0.7", "1e-300"),
        ("0.4", "0.7", "1e-7"),
        ("0", "1", "9.99999e-7"),  # 1,000,002 points
        ("0", "1", "1e-320"),  # the point count overflows a float
    ],
    ids=["step-1e-300", "step-1e-7", "one-point-over", "step-subnormal"],
)
def test_threshold_sweep_grid_beyond_max_points_exit_2(capsys, counted_error_rates, bounds):
    start, stop, step = bounds
    code, out, err = run(
        capsys, "threshold", "sweep", "--from", start, "--to", stop, "--step", step,
    )
    assert (code, out, counted_error_rates) == (2, "", [])
    assert f"more than {cli.MAX_SWEEP_POINTS} points" in err


def test_threshold_sweep_grid_of_max_points_runs(capsys, counted_error_rates, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "threshold", "sweep", "--from", "0", "--to", "1", "--step", "1e-6",
        "--out", str(out_file),
    )
    assert code == 0
    # the grid's 1,000,001 points less the two ends, 0 and 1, which are skipped
    assert len(counted_error_rates) == cli.MAX_SWEEP_POINTS - 2


def test_bandit_simulate_csv_and_summary(capsys, tmp_path):
    env_file = tmp_path / "env.json"
    env_file.write_text(json.dumps({"kind": "bernoulli", "means": [0.9, 0.4, 0.2]}))
    code, out, err = run(
        capsys, "bandit", "simulate",
        "--env", str(env_file),
        "--strategies", "ucb1,thompson",
        "--seeds", "0,1", "--rounds", "300",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("strategy,seed,rounds,")
    assert len(lines) == 5
    assert "ucb1" in err and "thompson" in err


def test_bandit_simulate_out_file_matches_stdout(capsys, tmp_path):
    env_file = tmp_path / "env.json"
    env_file.write_text("[0.9, 0.4]")
    argv = ["bandit", "simulate", "--env", str(env_file), "--seeds", "0,1", "--rounds", "200"]
    code, stdout_csv, _ = run(capsys, *argv)
    assert code == 0
    out_file = tmp_path / "sim.csv"
    code, out, err = run(capsys, *argv, "--out", str(out_file))
    assert (code, out) == (0, "")
    assert out_file.read_text(encoding="utf-8") == stdout_csv
    assert "ucb1: mean_reward=" in err


@pytest.mark.parametrize("case", BAD_OUT_PATHS)
def test_bandit_simulate_bad_out_path_exit_2(capsys, tmp_path, case):
    path_of, reason = BAD_OUT_PATHS[case]
    out_path = path_of(tmp_path)
    env_file = tmp_path / "env.json"
    env_file.write_text("[0.5, 0.6]")
    code, out, err = run(
        capsys, "bandit", "simulate", "--env", str(env_file), "--rounds", "10",
        "--out", str(out_path),
    )
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {out_path}: {reason}\n"


@pytest.mark.parametrize(
    "flag, value, named",
    [("--strategies", ",", "--strategies"), ("--seeds", "a,b", "'a,b'"), ("--seeds", ",", "--seeds")],
    ids=["no-strategy", "seeds-not-integers", "no-seed"],
)
def test_bandit_simulate_bad_list_exit_2(capsys, tmp_path, flag, value, named):
    env_file = tmp_path / "env.json"
    env_file.write_text("[0.5, 0.6]")
    code, out, err = run(
        capsys, "bandit", "simulate", "--env", str(env_file), "--rounds", "10", flag, value,
    )
    assert (code, out) == (2, "")
    assert named in err


def test_bandit_simulate_unknown_strategy_exit_2(capsys, tmp_path):
    env_file = tmp_path / "env.json"
    env_file.write_text("[0.5, 0.6]")
    code, _, err = run(
        capsys, "bandit", "simulate",
        "--env", str(env_file), "--strategies", "ucb1,sarsa", "--rounds", "10",
    )
    assert code == 2
    assert "sarsa" in err


def test_bandit_simulate_rounds_below_one_exit_2(capsys, tmp_path):
    env_file = tmp_path / "env.json"
    env_file.write_text("[0.5, 0.6]")
    code, out, err = run(
        capsys, "bandit", "simulate", "--env", str(env_file), "--rounds", "0",
    )
    assert code == 2
    assert out == ""
    assert "--rounds" in err


@pytest.mark.parametrize(
    "text, named",
    [
        ("{broken", "not valid JSON"),
        ('{"kind": "gaussian", "means": [0.5]}', "'gaussian'"),
        ('{"means": [0.5, 1.5]}', "1.5 outside [0, 1]"),
        ('{"means": []}', "at least one arm"),
        ("[]", "at least one arm"),
        ('{"means": ["0.5"]}', "list of numbers"),
        ('{"means": [true]}', "list of numbers"),
        ('{"means": [1' + "0" * 400 + "]}", "list of numbers"),
        ('{"means": [0.5], "extra": 1}', "unknown environment keys: ['extra']"),
    ],
    ids=[
        "broken-json", "unknown-kind", "mean-above-one", "no-arms", "empty-list",
        "string-mean", "bool-mean", "mean-beyond-float", "unknown-key",
    ],
)
def test_bandit_simulate_bad_env_file_exit_2(capsys, tmp_path, text, named):
    env_file = tmp_path / "env.json"
    env_file.write_text(text)
    code, out, err = run(
        capsys, "bandit", "simulate", "--env", str(env_file), "--rounds", "10",
    )
    assert (code, out) == (2, "")
    assert named in err


def test_bandit_simulate_non_utf8_env_file_exit_2(capsys, tmp_path):
    env_file = tmp_path / "env.json"
    env_file.write_bytes(b"[0.5, \xff]")
    code, out, err = run(
        capsys, "bandit", "simulate", "--env", str(env_file), "--rounds", "10",
    )
    assert (code, out) == (2, "")
    assert err == f"error: environment file {env_file} is not UTF-8: invalid start byte\n"


def test_demo_corpus_then_annotate_end_to_end(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    out_dir = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 42, "rounds": 30}))

    code, out, _ = run(
        capsys, "demo-corpus",
        "--out", str(corpus), "--objects", "4", "--seed", "0", "--mismatched", "1,2",
    )
    assert code == 0
    assert json.loads(out)["objects"] == 4
    assert len(list(corpus.glob("obj_*.json"))) == 4

    code, out, _ = run(
        capsys, "annotate",
        "--corpus", str(corpus), "--config", str(config),
        "--mock", "--out", str(out_dir),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["objects"] == 4
    assert summary["ok"] == 4
    assert summary["flagged"] == 2
    assert (out_dir / "run_summary.json").exists()
    assert (out_dir / "records" / "obj_000.json").exists()
    flagged_ids = [
        json.loads(l)["object_id"]
        for l in (out_dir / "flagged.jsonl").read_text().splitlines()
    ]
    assert flagged_ids == ["obj_001", "obj_002"]


def test_annotate_with_a_missing_cloud_still_writes_the_other_records(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    out_dir = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text("{}")
    run(capsys, "demo-corpus", "--out", str(corpus), "--objects", "3")
    (corpus / "clouds" / "obj_001.ply").unlink()

    code, out, _ = run(
        capsys, "annotate",
        "--corpus", str(corpus), "--config", str(config), "--mock", "--out", str(out_dir),
    )

    assert code == 0
    summary = json.loads(out)
    assert (summary["objects"], summary["ok"], summary["failed"]) == (3, 2, 1)
    assert sorted(p.name for p in (out_dir / "records").iterdir()) == [
        "@obj_001.json", "obj_000.json", "obj_002.json",
    ]


def test_annotate_seed_override_changes_outputs(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rounds": 20}))
    run(capsys, "demo-corpus", "--out", str(corpus), "--objects", "2")

    def record_bytes(seed, out_name):
        out_dir = tmp_path / out_name
        code, _, _ = run(
            capsys, "annotate",
            "--corpus", str(corpus), "--config", str(config), "--mock",
            "--seed", str(seed), "--out", str(out_dir),
        )
        assert code == 0
        return (out_dir / "records" / "obj_000.json").read_bytes()

    assert record_bytes(1, "a") != record_bytes(2, "b")
    assert record_bytes(1, "c") == record_bytes(1, "a")


def test_annotate_workers_override(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rounds": 20}))
    run(capsys, "demo-corpus", "--out", str(corpus), "--objects", "3")

    def annotate(workers):
        out_dir = tmp_path / f"out-{workers}"
        code, out, err = run(
            capsys, "annotate", "--corpus", str(corpus), "--config", str(config), "--mock",
            "--workers", str(workers), "--out", str(out_dir),
        )
        return code, out, err, out_dir

    code, out, err, out_dir = annotate(0)
    assert (code, out, err) == (2, "", "error: workers must be >= 1\n")
    assert not out_dir.exists()
    records = {}
    for workers in (1, 2):
        code, out, _, out_dir = annotate(workers)
        assert code == 0
        assert json.loads(out)["config"]["workers"] == workers
        records[workers] = {p.name: p.read_bytes() for p in (out_dir / "records").iterdir()}
    assert len(records[1]) == 3
    assert records[2] == records[1]


HTTP_PROVIDER = {"endpoint": "http://127.0.0.1:9/v1", "request_template": {"input": "{text}"}}


# (config document, run with mocks, text the error names)
BAD_CONFIGS = {
    "unknown-key": ({"blend_weight": 3.0}, True, "blend_weight"),
    "eps-beyond-float": ({"eps": 10**400}, True, "eps must be a number"),
    # caught before any request is sent
    "provider-timeout-string": (
        {"providers": {role: {**HTTP_PROVIDER, "timeout": "30"} for role in PROVIDER_ROLES}},
        False,
        "provider 'generate': timeout must be a number",
    ),
}
# provider fields of the right type whose value every request would fail on
BAD_PROVIDER_FIELDS = {
    "timeout-negative": ("timeout", -1),
    "timeout-zero": ("timeout", 0),
    "timeout-nan": ("timeout", math.nan),
    "timeout-infinite": ("timeout", math.inf),
    "request_template-nan": ("request_template", {"input": "{text}", "scale": math.nan}),
    "extra_headers-value-list": ("extra_headers", {"X-Tag": ["a"]}),
    "extra_headers-value-newline": ("extra_headers", {"X-Tag": "a\nb"}),
    "extra_headers-value-not-latin1": ("extra_headers", {"X-Tag": "\u20ac"}),
    "auth_header-not-a-name": ("auth_header", "X Bad:"),
    "auth_scheme-newline": ("auth_scheme", "Bearer\n"),
    # the key's value must not reach the error
    "api_key_env-key-newline": ("api_key_env", "VIEWFUSE_TEST_KEY"),
    "api_key_env-key-not-latin1": ("api_key_env", "VIEWFUSE_TEST_KEY_EURO"),
    # a path every reply would fail to walk
    "texts_path-bad-index": ("texts_path", "choices[x].text"),
    "embedding_path-empty": ("embedding_path", ""),
}
for case, (name, value) in BAD_PROVIDER_FIELDS.items():
    BAD_CONFIGS[f"provider-{case}"] = (
        {"providers": {role: {**HTTP_PROVIDER, name: value} for role in PROVIDER_ROLES}},
        False,
        f"provider 'generate': {name} must be ",
    )


@pytest.mark.parametrize("case", BAD_CONFIGS)
def test_annotate_bad_config_exit_2(capsys, monkeypatch, tmp_path, case):
    monkeypatch.setenv("VIEWFUSE_TEST_KEY", "sk-secret\ndef")
    monkeypatch.setenv("VIEWFUSE_TEST_KEY_EURO", "sk-secret\u20ac")
    doc, mock, named = BAD_CONFIGS[case]
    corpus = tmp_path / "corpus"
    run(capsys, "demo-corpus", "--out", str(corpus), "--objects", "1")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "annotate", "--corpus", str(corpus), "--config", str(config),
        "--out", str(tmp_path / "out"), *(["--mock"] if mock else []),
    )
    assert (code, out) == (2, "")
    assert named in err
    assert "sk-secret" not in err


def test_annotate_out_that_is_a_file_exit_2_before_ingest(capsys, monkeypatch, tmp_path):
    corpus = tmp_path / "corpus"
    run(capsys, "demo-corpus", "--out", str(corpus), "--objects", "1")
    config = tmp_path / "config.json"
    config.write_text("{}")
    out_file = tmp_path / "out"
    out_file.write_text("a plain file where the output directory must go")
    ingested = []
    ingest = pipeline.ingest_manifest

    def spy(*args, **kwargs):
        ingested.append(args)
        return ingest(*args, **kwargs)

    monkeypatch.setattr(pipeline, "ingest_manifest", spy)
    code, out, err = run(
        capsys, "annotate", "--corpus", str(corpus), "--config", str(config), "--mock",
        "--out", str(out_file),
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot make output directory {out_file / 'records'}: ")
    assert ingested == []
    assert out_file.read_text() == "a plain file where the output directory must go"


def test_annotate_deep_config_exit_2(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(
        capsys, "annotate", "--corpus", str(tmp_path), "--config", str(config), "--mock",
    )
    assert (code, out) == (2, "")
    assert err == f"error: config file {config} is nested too deeply\n"


def test_annotate_non_utf8_config_exit_2(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"strategy": "\xff"}')
    code, out, err = run(
        capsys, "annotate", "--corpus", str(tmp_path), "--config", str(config), "--mock",
    )
    assert (code, out) == (2, "")
    assert err == f"error: config file {config} is not UTF-8: invalid start byte\n"


@pytest.mark.parametrize(
    "truth, message",
    [(b"\xff{", "mock_truth.json is not UTF-8: invalid start byte"),
     (b"[1, 2]", "mock_truth.json must be a JSON object")],
    ids=["non-utf8", "not-an-object"],
)
def test_annotate_bad_mock_truth_exit_1(capsys, tmp_path, truth, message):
    corpus = tmp_path / "corpus"
    config = tmp_path / "config.json"
    config.write_text("{}")
    run(capsys, "demo-corpus", "--out", str(corpus), "--objects", "1")
    (corpus / "mock_truth.json").write_bytes(truth)
    code, out, err = run(
        capsys, "annotate",
        "--corpus", str(corpus), "--config", str(config), "--mock", "--out", str(tmp_path / "out"),
    )
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == f"error: ParseError: {message}"


def test_annotate_missing_corpus_exit_2(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text("{}")
    code, _, err = run(
        capsys, "annotate",
        "--corpus", str(tmp_path / "missing"), "--config", str(config), "--mock",
    )
    assert code == 2
    assert err.strip()


def test_missing_required_args_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["annotate"])
    assert exc.value.code == 2


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_annotate_summary_names_the_record_schema_and_config_hash(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    out_dir = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 42, "rounds": 20, "workers": 2}))
    run(capsys, "demo-corpus", "--out", str(corpus), "--objects", "3")
    (corpus / "clouds" / "obj_001.ply").unlink()

    code, out, _ = run(
        capsys, "annotate",
        "--corpus", str(corpus), "--config", str(config), "--mock", "--out", str(out_dir),
    )

    assert code == 0
    summary = json.loads(out)
    assert summary == json.loads((out_dir / "run_summary.json").read_text(encoding="utf-8"))
    assert summary["record_schema_version"] == pipeline.RECORD_SCHEMA_VERSION == 3
    assert summary["config_sha256"] == config_sha256(PipelineConfig.from_file(config))
    records = [json.loads(p.read_bytes()) for p in sorted((out_dir / "records").iterdir())]
    assert [r["status"] for r in records] == ["failed", "ok", "ok"]
    for record in records:
        assert record["schema_version"] == summary["record_schema_version"]
        assert record["config_sha256"] == summary["config_sha256"]
