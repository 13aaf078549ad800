"""End-to-end orchestration over a corpus of object manifests.

Stage order per object: candidate generation per view, clustering and
scoring, bandit selection, global synthesis, then the gate. One
object's failure is recorded, not raised, so a bad manifest cannot
abort a batch. Output records are a pure function of (corpus, config,
seed) under the deterministic mock providers; wall-clock timings are
therefore kept out of the per-object record files and reported in the
run summary instead.
"""

import hashlib
import json
import logging
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .bandit import (
    BanditState,
    RewardSignal,
    ThompsonState,
    compute_reward,
    epsilon_greedy_select,
    thompson_select,
    thompson_update,
    ucb1_select,
    update_mean,
)
from .clustering import dbscan_cluster, select_canonical
from .confidence import normalize_confidence
from .config import PipelineConfig
from .errors import ConfigError, EngineError
from .gating import GatingDecision, flagged_record, gate
from .model import VIEW_ORDER, ObjectManifest, Viewpoint, ingest_manifest
from .providers import GenerationConfig, ProviderSet
from .providers.cache import ResponseCache, wrap_with_cache
from .providers.http import HttpEmbedder, HttpCandidateGenerator, HttpProviderConfig
from .providers.mock import build_mock_providers
from .scoring import ScoredCandidate, composite_score, relevance_weights
from .synthesis import GlobalAnnotation, ViewSelection, assemble_global

logger = logging.getLogger(__name__)

RECORD_SCHEMA_VERSION = 1
MOCK_TRUTH_FILENAME = "mock_truth.json"


def stable_seed(*parts) -> int:
    """Platform-stable integer seed from string parts."""
    joined = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(joined.encode("utf-8")).digest()[:8], "big")


@dataclass
class BanditTrace:
    strategy: str
    rounds: int
    arm_candidate_indices: list[int]
    pulls: list[int]
    trace: list[dict]
    selected_candidate_index: int


@dataclass
class ViewResult:
    view: Viewpoint
    image_ref: str
    candidates: list[ScoredCandidate]
    token_logprobs: list[tuple[float, ...]]
    bandit: BanditTrace
    selection: ViewSelection


@dataclass
class AnnotationRecord:
    object_id: str
    status: str  # "ok" | "failed"
    error: str | None = None
    metadata: dict = field(default_factory=dict)
    views: list[ViewResult] = field(default_factory=list)
    global_annotation: GlobalAnnotation | None = None
    gating: GatingDecision | None = None
    # kept on the record so synthesis can be replayed from it alone
    w_fb: float | None = None
    stage_timings: dict = field(default_factory=dict)


def _run_bandit(
    scored: list[ScoredCandidate],
    reps: list[int],
    cfg: PipelineConfig,
    rng: random.Random,
) -> BanditTrace:
    """R rounds of selection among canonical arms; emit the most-pulled."""
    arms = [scored[i] for i in reps]
    rewards = [compute_reward(a) for a in arms]
    k = len(arms)
    trace: list[dict] = []

    if cfg.strategy == "thompson":
        state = ThompsonState(
            arm_count=k,
            prior_alpha=cfg.thompson_prior_alpha,
            prior_beta=cfg.thompson_prior_beta,
        )
        pulls = [0] * k
        for r in range(1, cfg.rounds + 1):
            arm = thompson_select(state, rng)
            thompson_update(state, arm, rewards[arm], rng)
            pulls[arm] += 1
            trace.append(
                {"round": r, "arm": arm, "candidate_index": reps[arm],
                 "reward": rewards[arm].value}
            )
    else:
        state = BanditState(arm_count=k, exploration_weight=cfg.exploration_weight)
        ema = cfg.ema_rate if cfg.use_ema_update else None
        for r in range(1, cfg.rounds + 1):
            if cfg.strategy == "ucb1":
                arm = ucb1_select(state)
            else:
                arm = epsilon_greedy_select(state, cfg.epsilon, rng)
            update_mean(state, arm, rewards[arm], ema_rate=ema)
            trace.append(
                {"round": r, "arm": arm, "candidate_index": reps[arm],
                 "reward": rewards[arm].value}
            )
        pulls = list(state.pulls)

    best_arm = max(range(k), key=lambda a: (pulls[a], -a))
    return BanditTrace(
        strategy=cfg.strategy,
        rounds=cfg.rounds,
        arm_candidate_indices=list(reps),
        pulls=pulls,
        trace=trace,
        selected_candidate_index=reps[best_arm],
    )


def annotate_object(
    manifest: ObjectManifest, cfg: PipelineConfig, providers: ProviderSet
) -> AnnotationRecord:
    """Run all stages for one object; failures become a failed record."""
    record = AnnotationRecord(
        object_id=manifest.object_id,
        status="ok",
        metadata=dict(manifest.metadata),
        w_fb=cfg.w_fb,
    )
    gen_cfg = GenerationConfig(
        temperature=cfg.temperature, num_candidates=cfg.num_candidates
    )
    try:
        t0 = time.perf_counter()
        image_refs = [manifest.view_images[view] for view in VIEW_ORDER]
        raw_candidates = providers.generator.generate_views(
            list(zip(VIEW_ORDER, image_refs)), gen_cfg
        )
        t1 = time.perf_counter()

        # one call per role for all views; split back per view below
        image_embs = providers.image_embedder.embed_images(image_refs)
        all_text_embs = providers.text_embedder.embed_texts(
            [c.text for candidates in raw_candidates for c in candidates]
        )
        selections: list[ViewSelection] = []
        start = 0
        for view, candidates, image_emb in zip(VIEW_ORDER, raw_candidates, image_embs):
            text_embs = all_text_embs[start : start + len(candidates)]
            start += len(candidates)
            norm_confs = [normalize_confidence(c.raw_confidence) for c in candidates]
            assignments = dbscan_cluster(text_embs, cfg.eps, cfg.min_pts)
            canonical = select_canonical(assignments, norm_confs)
            reps = list(canonical.representatives)

            weights = relevance_weights(image_emb, [text_embs[i] for i in reps])

            rep_rank = {idx: pos for pos, idx in enumerate(reps)}
            scored = []
            for i, c in enumerate(candidates):
                rel = weights.weights[rep_rank[i]] if i in rep_rank else None
                scored.append(
                    ScoredCandidate(
                        view=view,
                        index=i,
                        text=c.text,
                        cluster_id=assignments[i].cluster_id,
                        raw_confidence=c.raw_confidence,
                        normalized_confidence=norm_confs[i],
                        relevance_weight=rel,
                        composite_score=(
                            composite_score(norm_confs[i], rel, cfg.blend_ratio)
                            if rel is not None
                            else None
                        ),
                    )
                )

            rng = random.Random(
                stable_seed("bandit", cfg.seed, manifest.object_id, view.value)
            )
            bandit = _run_bandit(scored, reps, cfg, rng)
            chosen = scored[bandit.selected_candidate_index]
            selections.append(
                ViewSelection(view=view, text=chosen.text, score=chosen.composite_score)
            )
            record.views.append(
                ViewResult(
                    view=view,
                    image_ref=manifest.view_images[view],
                    candidates=scored,
                    token_logprobs=[c.token_logprobs for c in candidates],
                    bandit=bandit,
                    selection=selections[-1],
                )
            )
        t2 = time.perf_counter()

        record.global_annotation = assemble_global(selections, cfg.w_fb)
        t3 = time.perf_counter()

        text_emb = providers.text_embedder.embed_text(record.global_annotation.full_text)
        cloud_emb = providers.cloud_embedder.embed_cloud(manifest.point_cloud)
        record.gating = gate(text_emb, cloud_emb, cfg.gate_threshold)
        t4 = time.perf_counter()

        record.stage_timings = {
            "generation": t1 - t0,
            "aggregation": t2 - t1,
            "synthesis": t3 - t2,
            "gating": t4 - t3,
        }
    except EngineError as e:
        logger.warning("object %s failed: %s", manifest.object_id, e)
        record.status = "failed"
        record.error = f"{type(e).__name__}: {e}"
        record.views = []
        record.global_annotation = None
        record.gating = None
    return record


def run_pipeline(
    corpus: list[ObjectManifest], cfg: PipelineConfig, providers: ProviderSet
) -> list[AnnotationRecord]:
    """Annotate every manifest; output sorted by object_id."""
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            records = list(
                pool.map(lambda m: annotate_object(m, cfg, providers), corpus)
            )
    else:
        records = [annotate_object(m, cfg, providers) for m in corpus]
    return sorted(records, key=lambda r: r.object_id)


def _scored_to_doc(c: ScoredCandidate, logprobs: tuple[float, ...]) -> dict:
    return {
        "index": c.index,
        "text": c.text,
        "token_logprobs": list(logprobs),
        "raw_confidence": c.raw_confidence,
        "normalized_confidence": c.normalized_confidence,
        "cluster_id": c.cluster_id,
        "is_canonical": c.relevance_weight is not None,
        "relevance_weight": c.relevance_weight,
        "composite_score": c.composite_score,
    }


def record_to_doc(record: AnnotationRecord) -> dict:
    """Canonical JSON form of a record.

    Deliberately excludes wall-clock timings so identical runs produce
    byte-identical files; timings are aggregated in the run summary.
    """
    if record.status != "ok":
        return {
            "schema_version": RECORD_SCHEMA_VERSION,
            "object_id": record.object_id,
            "status": record.status,
            "error": record.error,
            "metadata": record.metadata,
            "views": None,
            "global": None,
            "gating": None,
        }
    views_doc = {}
    for vr in record.views:
        views_doc[vr.view.value] = {
            "image_ref": vr.image_ref,
            "candidates": [
                _scored_to_doc(c, vr.token_logprobs[i])
                for i, c in enumerate(vr.candidates)
            ],
            "bandit": {
                "strategy": vr.bandit.strategy,
                "rounds": vr.bandit.rounds,
                "arm_candidate_indices": vr.bandit.arm_candidate_indices,
                "pulls": vr.bandit.pulls,
                "trace": vr.bandit.trace,
                "selected_candidate_index": vr.bandit.selected_candidate_index,
            },
            "selection": {"text": vr.selection.text, "score": vr.selection.score},
        }
    ga = record.global_annotation
    return {
        "schema_version": RECORD_SCHEMA_VERSION,
        "object_id": record.object_id,
        "status": record.status,
        "error": None,
        "metadata": record.metadata,
        "views": views_doc,
        "global": {
            "core_sentence": ga.core_sentence,
            "supplementary": ga.supplementary,
            "full_text": ga.full_text,
            "score_global": ga.score_global,
            "w_fb": record.w_fb,
            "per_view": [
                {"view": s.view.value, "text": s.text, "score": s.score}
                for s in ga.per_view
            ],
        },
        "gating": {
            "similarity": record.gating.similarity,
            "threshold": record.gating.threshold,
            "passed": record.gating.passed,
            "flagged_reason": record.gating.flagged_reason,
        },
    }


def record_to_json(record: AnnotationRecord) -> str:
    return json.dumps(record_to_doc(record), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def load_corpus_entries(corpus_dir: str | Path, cfg: PipelineConfig) -> tuple[list[ObjectManifest], list[AnnotationRecord]]:
    """Ingest every manifest under a corpus directory.

    Returns (manifests, failure_records). Any *.json file directly in
    the directory is treated as a manifest, except the mock truth
    sidecar. A manifest that fails to parse becomes a failed record
    keyed by its file stem.
    """
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise ConfigError(f"corpus directory {corpus_dir} does not exist")
    manifests: list[ObjectManifest] = []
    failures: list[AnnotationRecord] = []
    for path in sorted(corpus_dir.glob("*.json")):
        if path.name == MOCK_TRUTH_FILENAME:
            continue
        try:
            manifests.append(
                ingest_manifest(
                    path,
                    point_budget=cfg.point_budget,
                    seed=stable_seed("downsample", cfg.seed, path.stem),
                )
            )
        except EngineError as e:
            logger.warning("manifest %s rejected: %s", path.name, e)
            failures.append(
                AnnotationRecord(
                    object_id=path.stem,
                    status="failed",
                    error=f"{type(e).__name__}: {e}",
                )
            )
    return manifests, failures


def build_providers(
    cfg: PipelineConfig, mock: bool, corpus_dir: str | Path | None = None
) -> tuple[ProviderSet, ProviderSet, ResponseCache | None]:
    """(active providers, uncached backing set, cache or None).

    The backing set is returned separately so callers can inspect mock
    call counters even when caching is layered on top.
    """
    if mock:
        truth = None
        if corpus_dir is not None:
            truth_path = Path(corpus_dir) / MOCK_TRUTH_FILENAME
            if truth_path.exists():
                truth = json.loads(truth_path.read_text(encoding="utf-8"))
        backing = build_mock_providers(seed=cfg.seed, truth=truth)
    else:
        for role in ("generate", "embed_text", "embed_image", "embed_cloud"):
            if role not in cfg.providers:
                raise ConfigError(
                    f"provider role {role!r} not configured (or run with mocks)"
                )
        backing = ProviderSet(
            generator=HttpCandidateGenerator(_http_config(cfg.providers["generate"])),
            text_embedder=HttpEmbedder(_http_config(cfg.providers["embed_text"])),
            image_embedder=HttpEmbedder(_http_config(cfg.providers["embed_image"])),
            cloud_embedder=HttpEmbedder(_http_config(cfg.providers["embed_cloud"])),
        )
    cache = None
    active = backing
    if cfg.cache_dir:
        cache = ResponseCache(cfg.cache_dir)
        active = wrap_with_cache(backing, cache)
    return active, backing, cache


def _http_config(doc: dict) -> HttpProviderConfig:
    if not isinstance(doc, dict):
        raise ConfigError("provider config must be an object")
    try:
        return HttpProviderConfig(**doc)
    except TypeError as e:
        raise ConfigError(f"bad provider config: {e}") from None


def write_outputs(
    records: list[AnnotationRecord],
    out_dir: str | Path,
    cfg: PipelineConfig,
    cache: ResponseCache | None = None,
) -> dict:
    """Persist records, the flagged export, and the run summary."""
    out_dir = Path(out_dir)
    records_dir = out_dir / "records"
    records_dir.mkdir(parents=True, exist_ok=True)

    flagged = []
    stage_totals: dict[str, float] = {}
    for record in records:
        (records_dir / f"{record.object_id}.json").write_text(
            record_to_json(record), encoding="utf-8"
        )
        for stage, seconds in record.stage_timings.items():
            stage_totals[stage] = stage_totals.get(stage, 0.0) + seconds
        if record.status == "ok" and not record.gating.passed:
            flagged.append(
                flagged_record(
                    record.object_id, record.gating, record.global_annotation.full_text
                )
            )

    flagged_path = out_dir / "flagged.jsonl"
    with flagged_path.open("w", encoding="utf-8") as f:
        for doc in flagged:
            f.write(json.dumps(doc, sort_keys=True, ensure_ascii=False) + "\n")

    summary = {
        "objects": len(records),
        "ok": sum(1 for r in records if r.status == "ok"),
        "failed": sum(1 for r in records if r.status == "failed"),
        "flagged": len(flagged),
        "stage_seconds": {k: round(v, 6) for k, v in sorted(stage_totals.items())},
        "cache": cache.stats() if cache is not None else None,
        "config": cfg.to_dict(),
    }
    (out_dir / "run_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return summary


def run_corpus(
    corpus_dir: str | Path,
    cfg: PipelineConfig,
    mock: bool,
    out_dir: str | Path,
) -> dict:
    """The full batch: ingest, annotate, persist. Returns the summary."""
    manifests, failures = load_corpus_entries(corpus_dir, cfg)
    providers, _backing, cache = build_providers(cfg, mock=mock, corpus_dir=corpus_dir)
    records = run_pipeline(manifests, cfg, providers)
    records = sorted(records + failures, key=lambda r: r.object_id)
    return write_outputs(records, out_dir, cfg, cache=cache)
