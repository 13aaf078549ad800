"""viewfuse benchmark: objects/s of `run_corpus` on seeded corpora.

Usage (from the repository root):
    python3 bench/run.py --workload mock-corpus --seed 1 --seconds 25 --trace 0

Each pass runs `viewfuse.pipeline.run_corpus` (the call behind
`viewfuse annotate`) in a fresh process over a corpus generated from
--seed, then checks the outputs. Passes repeat until --seconds have
elapsed. The last stdout line is one JSON object: `correct`,
`attempted`, `failed` (objects) and `metrics`, each with its unit.
With --trace 0 the metrics are the end-to-end ones, from passes with
no wrappers installed. With --trace 1 traced and untraced passes
alternate, and the metrics are the per-layer ones plus the tracing
overhead. Workloads, layers and limits are described in spec.json.
Corpora, the warm cache and the reference records are built once per
seed and version of the sources under .bench_work/ and reused, outside
every timed window.
"""

import argparse
import hashlib
import http.client
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
ROLES = tuple(SPEC["roles"])
# a run must end within 180 s; stop starting passes well before that
RUN_DEADLINE_S = 140


def sources_digest(root: Path) -> str:
    """sha256 prefix over the program's sources and the benchmark's files.

    Prepared inputs (corpora, reference records, the warm cache) are
    kept under this digest, so a checkout that changes either never
    reads what another version built.
    """
    h = hashlib.sha256()
    files = [p for p in (root / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    files += [p for p in BENCH.iterdir() if p.is_file()]
    for p in sorted(files):
        h.update(p.name.encode("utf-8") + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    env["NO_PROXY"] = "127.0.0.1,localhost"
    return env


class Runner:
    """Launches child processes and pass bookkeeping for one run."""

    def __init__(self, root: Path, workload: str, seed: int, scale: str):
        self.root = root
        self.seed = seed
        self.w = dict(SPEC["workloads"][workload])
        if scale == "tiny":
            self.w.update({k: v for k, v in SPEC["tiny"].items() if k in self.w})
        self.full_size = scale == "full"
        self.env = child_env(root)
        self.work = root / ".bench_work" / workload
        self.prep_root = root / ".bench_work" / "prep" / sources_digest(root)
        self.started = time.monotonic()
        self.launches = 0
        self.stub = None

    # ---- child processes -------------------------------------------------

    def child(self, corpus: Path, config: dict, out: Path | None, trace: bool,
              mock: bool | None = None) -> dict:
        """Run bench/child.py once; returns its result plus `setup_s`."""
        self.launches += 1
        tag = f"p{self.launches}"
        self.work.mkdir(parents=True, exist_ok=True)
        cfg_path = self.work / f"{tag}.config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        spec = {
            "corpus": str(corpus), "config": str(cfg_path), "out": str(out),
            "mock": self.w["providers"] == "mock" if mock is None else mock, "trace": trace,
            "result": str(self.work / f"{tag}.result.json"),
            "spans": str(self.work / "spans" / f"{tag}.jsonl"),
        }
        spec_path = self.work / f"{tag}.pass.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = max(10.0, 170 - (time.monotonic() - self.started))
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            cwd=self.root, env=self.env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"pass {tag} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        src = self.root / "src"
        if not Path(result["viewfuse_file"]).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"viewfuse imported from {result['viewfuse_file']}, not {src}")
        for p in (cfg_path, spec_path, Path(spec["result"])):
            p.unlink()
        result["setup_s"] = result["entered"] - spawned
        return result

    def config(self, cache_dir: Path | None = None, providers: dict | None = None) -> dict:
        doc = {"seed": self.seed, "workers": self.w["workers"]}
        if "point_budget" in self.w:
            doc["point_budget"] = self.w["point_budget"]
        if cache_dir is not None:
            doc["cache_dir"] = str(cache_dir)
        if providers:
            doc["providers"] = providers
        return doc

    # ---- preparation, built once per seed and reused -----------------------

    def _prepared(self, key: str, build) -> Path:
        """Directory `key` under the prep root, built by `build(dir)` once."""
        final = self.prep_root / key
        if (final / ".done").exists():
            return final
        tmp = self.prep_root / f"{key}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(final, ignore_errors=True)
        tmp.mkdir(parents=True)
        build(tmp)
        (tmp / ".done").write_text("", encoding="utf-8")
        tmp.rename(final)
        return final

    def prepare(self) -> None:
        sys.path.insert(0, str(self.root / "src"))
        import corpora
        from viewfuse.demo import build_demo_corpus

        w = self.w
        marks = corpora.mismatched_indices(self.seed, w["objects"], w["mismatched"])
        if w["corpus"] == "dense":
            key = f"dense-{w['objects']}x{w['points']}-m{w['mismatched']}-seed{self.seed}"
            self.corpus = self._prepared(key, lambda d: corpora.build_dense(
                d, self.seed, w["objects"], marks, w["points"], w["point_budget"]))
        else:
            key = f"demo-{w['objects']}-m{w['mismatched']}-seed{self.seed}"
            self.corpus = self._prepared(key, lambda d: build_demo_corpus(
                d, num_objects=w["objects"], seed=self.seed, mismatched=marks))
        self.mismatched = {f"obj_{i:03d}" for i in marks}

        # records of an in-process mock run, which the http passes must match
        self.reference = None
        if w["providers"] == "http":
            def reference_run(d: Path) -> None:
                self.child(self.corpus, self.config(), d, trace=False, mock=True)
            self.reference = self._prepared(f"reference-{key}", reference_run) / "records"

        self.cache_dir = None
        if w["cache"] == "warm":
            def fill(d: Path) -> None:
                out = d / "fill-out"
                self.child(self.corpus, self.config(cache_dir=d / "cache"), out, trace=False)
                shutil.rmtree(out)
            self.cache_dir = self._prepared(f"warm-{key}", fill) / "cache"

    # ---- the stub -----------------------------------------------------------

    def start_stub(self) -> None:
        self.stub = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"),
             "--truth", str(self.corpus / "mock_truth.json"),
             "--seed", str(self.seed), "--delay-ms", str(self.w["service_delay_ms"])],
            cwd=self.root, env=self.env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.port = int(self.stub.stdout.readline())
        templates = {
            "generate": {"image": "{image}", "view": "{prompt}",
                         "temperature": "{temperature}", "n": "{n}"},
            "embed_text": {"text": "{text}"},
            "embed_image": {"image": "{image}"},
            "embed_cloud": {"cloud": "{cloud}"},
        }
        self.providers = {
            role: {"endpoint": f"http://127.0.0.1:{self.port}/{role}",
                   "request_template": tpl, "model": f"stub-{role}",
                   "prompt": "{view}", "timeout": 30.0}
            for role, tpl in templates.items()
        }

    def stub_stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop_stub(self) -> None:
        self.stub.stdin.close()
        try:
            self.stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.stub.kill()
            self.stub.wait()
        self.stub.stdout.close()

    # ---- one timed pass -------------------------------------------------------

    def timed_pass(self, trace: bool) -> tuple[dict, list[str]]:
        """Run one pass and check its outputs; returns (measurements, problems)."""
        out = self.work / "out"
        cache = self.cache_dir
        shutil.rmtree(out, ignore_errors=True)
        if self.w["cache"] == "fresh":
            cache = self.work / "fresh-cache"
            shutil.rmtree(cache, ignore_errors=True)
        providers = self.providers if self.w["providers"] == "http" else None
        before = self.stub_stats() if providers else None
        result = self.child(self.corpus, self.config(cache, providers), out, trace)
        after = self.stub_stats() if providers else None

        summary = result["summary"]
        blobs = record_bytes(out / "records")
        docs = [json.loads(b) for b in blobs.values()]
        sizes = [len(b) for b in blobs.values()]
        objects = summary["objects"]
        m = {
            "objects": objects,
            "failed": summary["failed"],
            "objects_per_s": objects / result["wall_s"],
            "setup_s": result["setup_s"],
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "bytes_per_record": statistics.fmean(sizes) if sizes else 0.0,
            "digest": outcome_digest(docs),
        }
        problems = self.check(summary, docs, blobs, out)
        if trace:
            m.update(self.layer_pass(result, summary, docs, sizes, cache, before, after))
            problems += self.check_traced(result["layers"])
        if after is not None:
            errors = sum(after[r]["errors"] - before[r]["errors"] for r in ROLES)
            if errors:
                problems.append(f"stub answered {errors} requests with an error")
        shutil.rmtree(out)
        if self.w["cache"] == "fresh":
            shutil.rmtree(cache)
        return m, problems

    def check(self, summary: dict, docs: list[dict], blobs: dict[str, bytes],
              out: Path) -> list[str]:
        problems = []
        if summary["failed"]:
            problems.append(f"{summary['failed']} objects failed")
        if summary["objects"] != self.w["objects"] or len(docs) != self.w["objects"]:
            problems.append(f"{summary['objects']} objects, {len(docs)} records; "
                            f"expected {self.w['objects']}")
        flagged = set()
        with (out / "flagged.jsonl").open(encoding="utf-8") as f:
            for line in f:
                flagged.add(json.loads(line)["object_id"])
        if not self.mismatched <= flagged:
            problems.append(f"mismatched ids not flagged: {sorted(self.mismatched - flagged)}")
        if self.w["corpus"] == "dense" and flagged != self.mismatched:
            problems.append(f"flagged {sorted(flagged)}, expected exactly {sorted(self.mismatched)}")
        if self.reference is not None:
            theirs = record_bytes(self.reference)
            differing = sorted(n for n in blobs.keys() | theirs.keys() if blobs.get(n) != theirs.get(n))
            if differing:
                problems.append(f"records differ from the in-process mock run: {differing[:5]}")
        if self.w["cache"] == "warm" and (summary["cache"] or {}).get("misses") != 0:
            problems.append(f"warm cache missed: {summary['cache']}")
        return problems

    def check_traced(self, layers: dict) -> list[str]:
        if self.w["cache"] != "warm":
            return []
        calls = layers["backing_calls"]
        if None in calls.values():
            raise RuntimeError(f"a backing provider has no `calls` counter: {calls}")
        made = {r: n for r, n in calls.items() if n}
        return [f"warm cache run made backing calls: {made}"] if made else []

    def layer_pass(self, result, summary, docs, sizes, cache, before, after) -> dict:
        """Per-layer numbers of one traced pass."""
        layers = result["layers"]
        m = dict(layers["sums"])
        objects = summary["objects"]
        cache_stats = summary["cache"] or {"hits": 0, "misses": 0}
        lookups = cache_stats["hits"] + cache_stats["misses"]
        m["cache.hits"] = cache_stats["hits"]
        m["cache.misses"] = cache_stats["misses"]
        m["cache.hit_ratio"] = cache_stats["hits"] / lookups if lookups else 0.0
        m["cache.bytes_stored"] = 0
        if self.w["cache"] == "fresh":
            m["cache.bytes_stored"] = sum(p.stat().st_size for p in cache.rglob("*.json"))
        m["provider.calls_per_object"] = m.pop("provider.calls") / objects
        m["provider.request_bytes"] = m["provider.response_bytes"] = 0.0
        if after is not None:
            for key in ("request_bytes", "response_bytes"):
                total = sum(after[r][key] - before[r][key] for r in ROLES)
                m[f"provider.{key}"] = total / objects
        m["gating.flagged"] = summary["flagged"]
        m["record.bytes"] = sum(sizes)
        picks = [argmax_agrees(view) for doc in docs for view in (doc.get("views") or {}).values()]
        m["bandit.argmax_agreement"] = sum(picks) / len(picks) if picks else 0.0
        m["durations"] = layers["durations"]
        return m


def record_bytes(records_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(records_dir.glob("*.json"))}


def outcome_digest(docs: list[dict]) -> str:
    """sha256 of what an object's annotation says, independent of the schema's layout."""
    from viewfuse.model import VIEW_ORDER

    rows = []
    for doc in sorted(docs, key=lambda d: d["object_id"]):
        views = doc.get("views") or {}
        rows.append([
            doc["object_id"],
            [views[vp.value]["selection"]["text"] if vp.value in views else None
             for vp in VIEW_ORDER],
            (doc.get("global") or {}).get("full_text"),
            (doc.get("gating") or {}).get("passed"),
        ])
    canonical = json.dumps(rows, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def argmax_agrees(view: dict) -> bool:
    """The bandit's pick scores as high as the best composite score of the view."""
    scores = [c["composite_score"] for c in view["candidates"] if c["composite_score"] is not None]
    return view["selection"]["score"] == max(scores)


def pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q / 100 * len(ordered)) - 1))]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# objects_per_s is taken from the slowest pass of a run. The reference
# machine's CPU switches between an uncontended state and one about 1.75x
# slower (busy co-tenants) for stretches of seconds to minutes. Every run
# seen so far held contended passes, but not every run held uncontended
# ones, so the slowest pass repeats across runs better (about half the
# spread) than the fastest or the median pass, whose values mostly say
# how much of the run fell in which state. Process CPU time does not help: it grows with
# wall time in the slow state.
def run_rate(passes: list[dict]) -> float:
    return min(p["objects_per_s"] for p in passes)


def end_to_end(passes: list[dict]) -> dict:
    return {
        "objects_per_s": metric(run_rate(passes), "1/s"),
        "setup_s": metric(statistics.median(p["setup_s"] for p in passes), "s"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "bytes_per_record": metric(statistics.median(p["bytes_per_record"] for p in passes), "B"),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    units = {e["name"]: e["unit"] for e in json.loads(
        (BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
    pooled: dict[str, list[float]] = {}
    for p in traced:
        for name, values in p["durations"].items():
            pooled.setdefault(name, []).extend(values)
    out = {}
    for name, unit in units.items():
        if name in traced[0]:
            out[name] = metric(statistics.median(p[name] for p in traced), unit)
    for span, p50, p99 in [("annotate", "annotate.object_ms_p50", "annotate.object_ms_p99")] + [
            (f"provider.{r}", f"provider.{r}.p50_ms", f"provider.{r}.p99_ms") for r in ROLES]:
        values = pooled.get(span) or [0.0]
        out[p50] = metric(1000 * pct(values, 50), "ms")
        out[p99] = metric(1000 * pct(values, 99), "ms")
    traced_rate, untraced_rate = run_rate(traced), run_rate(untraced)
    out["trace.objects_per_s"] = metric(traced_rate, "1/s")
    out["trace.untraced_objects_per_s"] = metric(untraced_rate, "1/s")
    out["trace.overhead"] = metric(untraced_rate / traced_rate - 1, "ratio")
    missing = set(units) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {sorted(missing)}")
    return {name: out[name] for name in units}


def main() -> int:
    ap = argparse.ArgumentParser(description="viewfuse benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    ap.add_argument("--seed", type=int, default=SPEC["default_seed"])
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: a few small objects, for the smoke test")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "viewfuse" / "__init__.py").is_file():
        print(f"no viewfuse sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    r = Runner(root, args.workload, args.seed, args.scale)
    shutil.rmtree(r.work, ignore_errors=True)
    r.prepare()
    passes: dict[bool, list[dict]] = {False: [], True: []}
    problems: list[str] = []
    try:
        if r.w["providers"] == "http":
            r.start_stub()
        deadline = time.monotonic() + args.seconds
        while True:
            trace = bool(args.trace) and len(passes[False]) > len(passes[True])
            m, found = r.timed_pass(trace)
            print(f"pass {len(passes[False]) + len(passes[True]) + 1} trace={int(trace)}: "
                  f"{m['objects_per_s']:.3f} objects/s, set-up {m['setup_s']:.3f} s",
                  file=sys.stderr)
            passes[trace].append(m)
            problems += found
            enough = passes[False] and (passes[True] or not args.trace)
            if enough and (time.monotonic() >= deadline
                           or time.monotonic() - r.started > RUN_DEADLINE_S):
                break
    finally:
        if r.stub is not None:
            r.stop_stub()

    every = passes[False] + passes[True]
    digests = {p["digest"] for p in every}
    if len(digests) != 1:
        problems.append(f"passes disagree on the outcome digest: {sorted(digests)}")
    expected = SPEC["expected_digest"][args.workload]
    if r.full_size and args.seed == SPEC["default_seed"] and digests != {expected}:
        problems.append(f"outcome digest {sorted(digests)} != recorded {expected}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    metrics = per_layer(passes[True], passes[False]) if args.trace else \
        end_to_end(passes[False])
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p["objects"] for p in every),
        "failed": sum(p["failed"] for p in every),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
