"""Spans around the calls into each viewfuse module, installed from outside.

`install()` replaces the module-level names the program calls through
(and the provider and cache objects `build_providers` returns) with
timing wrappers. The program's code is not changed. Spans live in
memory as (id, parent id, object id, name, start, end); the spans of
one object share its object id. `layer_metrics` turns them into the
per-layer numbers and `write_spans` dumps them once the run is over.
"""

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

import viewfuse.model as model
import viewfuse.pipeline as pipeline
import viewfuse.providers.cache as cache_mod
import viewfuse.providers.mock as mock_mod

# role -> (ProviderSet slot, method called on it)
ROLES = json.loads(Path(__file__).with_name("spec.json").read_text(encoding="utf-8"))["roles"]
BANDIT_FUNCTIONS = (
    "compute_reward", "ucb1_select", "update_mean", "epsilon_greedy_select",
    "thompson_select", "thompson_update",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.backing = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, object_of=None, count=None):
        """`fn` recording one span per call; the object id comes from
        `object_of(args)` or is inherited from the enclosing span, and
        `count(result)`, if given, adds to `counts[name]`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent_id, parent_obj = stack[-1] if stack else (0, None)
            span_id = next(self._ids)
            obj = object_of(args) if object_of else parent_obj
            stack.append((span_id, obj))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    self.counts[name] += count(result)
                return result
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent_id, obj, name, start, end))

        return traced

    def patch(self, module, attr: str, name: str, object_of=None, count=None) -> None:
        setattr(module, attr, self.wrap(name, getattr(module, attr), object_of, count))


def install() -> Tracer:
    tracer = Tracer()
    tracer.patch(pipeline, "load_corpus_entries", "ingest")
    tracer.patch(pipeline, "ingest_manifest", "ingest.manifest", lambda a: Path(a[0]).stem)
    tracer.patch(model, "load_point_cloud", "ingest.parse", count=lambda cloud: cloud.count)
    tracer.patch(model, "downsample", "ingest.downsample")
    tracer.patch(pipeline, "annotate_object", "annotate", lambda a: a[0].object_id)
    tracer.patch(pipeline, "dbscan_cluster", "clustering")
    tracer.patch(pipeline, "relevance_weights", "scoring.relevance")
    for fn in BANDIT_FUNCTIONS:
        tracer.patch(pipeline, fn, "bandit")
    tracer.patch(pipeline, "assemble_global", "synthesis")
    tracer.patch(pipeline, "gate", "gating")
    tracer.patch(mock_mod, "cloud_digest", "gating.cloud_digest")
    tracer.patch(cache_mod, "cloud_digest", "gating.cloud_digest")
    tracer.patch(pipeline, "record_to_json", "record.encode", lambda a: a[0].object_id)
    tracer.patch(pipeline, "write_outputs", "record.write")

    build_providers = pipeline.build_providers

    def traced_build_providers(*args, **kwargs):
        active, backing, cache = build_providers(*args, **kwargs)
        tracer.backing = backing
        for role, (slot, method) in ROLES.items():
            provider = getattr(active, slot)
            setattr(provider, method, tracer.wrap(f"provider.{role}", getattr(provider, method)))
        if cache is not None:
            cache.load = tracer.wrap("cache.load", cache.load)
            cache.store = tracer.wrap("cache.store", cache.store)
        return active, backing, cache

    pipeline.build_providers = traced_build_providers
    return tracer


def layer_metrics(tracer: Tracer) -> dict:
    """Per-pass sums and counts by layer, plus raw durations for percentiles.

    Self time of a span is its duration minus that of its direct child
    spans; children of one span run on its thread, so they never overlap.
    """
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    child_provider_time: dict[int, float] = defaultdict(float)
    for span_id, parent_id, _obj, name, start, end in tracer.spans:
        d = end - start
        total[name] += d
        calls[name] += 1
        if name == "annotate" or name.startswith("provider."):
            durations[name].append(d)
        child_time[parent_id] += d
        if name.startswith("provider."):
            child_provider_time[parent_id] += d

    m = {
        "ingest.s": total["ingest"],
        "ingest.parse_s": total["ingest.parse"],
        "ingest.downsample_s": total["ingest.downsample"],
        "clustering.calls": calls["clustering"],
        "clustering.s": total["clustering"],
        "scoring.calls": calls["scoring.relevance"],
        "scoring.relevance_s": total["scoring.relevance"],
        "bandit.calls": calls["bandit"],
        "bandit.s": total["bandit"],
        "synthesis.s": total["synthesis"],
        "gating.s": total["gating"],
        "gating.cloud_digest_s": total["gating.cloud_digest"],
        "cache.load_s": total["cache.load"],
        "cache.store_s": total["cache.store"],
        "record.encode_s": total["record.encode"],
        "record.write_s": 0.0,
        "annotate.self_s": 0.0,
        "provider.calls": sum(calls[f"provider.{r}"] for r in ROLES),
        "ingest.points": tracer.counts["ingest.parse"],
    }
    for span_id, _parent_id, _obj, name, start, end in tracer.spans:
        if name == "annotate":
            m["annotate.self_s"] += (end - start) - child_provider_time[span_id]
        elif name == "record.write":
            m["record.write_s"] += (end - start) - child_time[span_id]
    for role in ROLES:
        name = f"provider.{role}"
        m[f"provider.{role}.calls"] = calls[name]
        m[f"provider.{role}.busy_s"] = total[name]
        m[f"provider.{role}.errors"] = tracer.errors[name]
    backing_calls = {
        role: getattr(getattr(tracer.backing, slot), "calls", None)
        for role, (slot, _method) in ROLES.items()
    }
    return {"sums": m, "durations": dict(durations), "backing_calls": backing_calls}


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = ("id", "parent", "object_id", "name", "start", "end")
    with path.open("w", encoding="utf-8") as f:
        for span in tracer.spans:
            f.write(json.dumps(dict(zip(fields, span))) + "\n")

