"""End-to-end orchestration over a corpus of object manifests.

Stage order per object: candidate generation per view, clustering and
scoring, bandit selection, global synthesis, then the gate. One
object's failure is recorded, not raised, so a bad manifest cannot
abort a batch. Output records are a pure function of (corpus, config,
seed) under the deterministic mock providers; wall-clock timings are
therefore kept out of the per-object record files and reported in the
run summary instead. `run_corpus` writes each record as soon as its
object finishes, so an aborted run keeps the records it finished.
"""

import hashlib
import itertools
import json
import logging
import random
import time
from collections import Counter
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
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
from .config import PROVIDER_ROLES, PipelineConfig
from .errors import ConfigError, DuplicateObjectId, EngineError, ParseError
from .gating import GatingDecision, flagged_record, gate
from .model import FAILURE_KEY_PREFIX, MAX_OBJECT_ID_BYTES, VIEW_ORDER, ObjectManifest, Viewpoint
from .model import canonical_json, ingest_manifest, parse_json, read_bytes, stable_seed, write_atomic
from .providers import GenerationConfig, ProviderSet
from .providers.cache import ResponseCache, wrap_with_cache
from .providers.http import HttpCandidateGenerator, HttpEmbedder, HttpProviderConfig, KeepAliveSession
from .providers.mock import build_mock_providers
from .scoring import ScoredCandidate, composite_score, relevance_weights
from .synthesis import GlobalAnnotation, ViewSelection, assemble_global

logger = logging.getLogger(__name__)

RECORD_SCHEMA_VERSION = 2
MOCK_TRUTH_FILENAME = "mock_truth.json"


@dataclass
class BanditTrace:
    strategy: str
    rounds: int
    arm_candidate_indices: list[int]
    pulls: list[int]
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

    @classmethod
    def failed(cls, object_id: str, error: EngineError, metadata: dict | None = None):
        """The record of an object that `error` stopped."""
        return cls(
            object_id=object_id,
            status="failed",
            error=f"{type(error).__name__}: {error}",
            metadata=metadata or {},
        )


def run_bandit(
    cfg: PipelineConfig,
    reward: Callable[[int], RewardSignal],
    arm_count: int,
    rng: random.Random,
) -> list[tuple[int, float]]:
    """`cfg.rounds` rounds of `cfg.strategy` over `arm_count` arms.

    Each round picks an arm, observes `reward(arm)` and updates the
    policy with it; the result is the (arm, reward value) of each round.
    The selection and update functions are looked up in this module's
    namespace as the run starts, so wrappers installed there see every
    round.
    """
    if cfg.strategy == "thompson":
        posterior = ThompsonState(
            arm_count=arm_count,
            prior_alpha=cfg.thompson_prior_alpha,
            prior_beta=cfg.thompson_prior_beta,
        )
        select = partial(thompson_select, posterior, rng)
        update = partial(thompson_update, posterior, rng=rng)
    else:
        state = BanditState(arm_count=arm_count, exploration_weight=cfg.exploration_weight)
        if cfg.strategy == "ucb1":
            select = partial(ucb1_select, state)
        else:
            select = partial(epsilon_greedy_select, state, cfg.epsilon, rng)
        update = partial(update_mean, state)

    history = []
    for _ in range(cfg.rounds):
        arm = select()
        signal = reward(arm)
        update(arm, signal)
        history.append((arm, signal.value))
    return history


def pull_counts(history: list[tuple[int, float]], arm_count: int) -> list[int]:
    """How often each arm was pulled in a `run_bandit` history."""
    counts = Counter(arm for arm, _ in history)
    return [counts[a] for a in range(arm_count)]


def most_pulled(pulls: list[int]) -> int:
    """The arm pulled most often; ties go to the lowest index."""
    return pulls.index(max(pulls))


def _run_bandit(
    scored: list[ScoredCandidate],
    reps: list[int],
    cfg: PipelineConfig,
    object_id: str,
    view: Viewpoint,
) -> tuple[BanditTrace, list[tuple[int, float]]]:
    """R rounds of selection among canonical arms; pick the most-pulled.

    The RNG stream is the view's own. Returns the pick with the
    `run_bandit` history it came from.
    """
    rewards = [compute_reward(scored[i]) for i in reps]
    rng = random.Random(stable_seed("bandit", cfg.seed, object_id, view.value))
    history = run_bandit(cfg, rewards.__getitem__, len(reps), rng)
    pulls = pull_counts(history, len(reps))
    bandit = BanditTrace(
        strategy=cfg.strategy,
        rounds=cfg.rounds,
        arm_candidate_indices=list(reps),
        pulls=pulls,
        selected_candidate_index=reps[most_pulled(pulls)],
    )
    return bandit, history


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

            bandit, _ = _run_bandit(scored, reps, cfg, manifest.object_id, view)
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
        return AnnotationRecord.failed(manifest.object_id, e, dict(manifest.metadata))
    return record


def iter_records(
    corpus: list[ObjectManifest], cfg: PipelineConfig, providers: ProviderSet
) -> Iterator[AnnotationRecord]:
    """Annotate every manifest, yielding each record in corpus order.

    With `workers > 1` objects run on a thread pool, but records are
    still yielded on the calling thread. An error that is not an
    EngineError propagates, and objects not yet started are cancelled.
    """
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            yield from pool.map(lambda m: annotate_object(m, cfg, providers), corpus)
    else:
        for manifest in corpus:
            yield annotate_object(manifest, cfg, providers)


def run_pipeline(
    corpus: list[ObjectManifest], cfg: PipelineConfig, providers: ProviderSet
) -> list[AnnotationRecord]:
    """Annotate every manifest; output sorted by object_id."""
    return sorted(iter_records(corpus, cfg, providers), key=lambda r: r.object_id)


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
    The bandit's per-round trace is not kept at all (see replay_bandit).
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
            "view": vr.view.value,
            "image_ref": vr.image_ref,
            "candidates": [
                _scored_to_doc(c, vr.token_logprobs[i])
                for i, c in enumerate(vr.candidates)
            ],
            "bandit": asdict(vr.bandit),
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
    """One line: sorted keys, no whitespace, so stdlib's C encoder runs."""
    return canonical_json(record_to_doc(record)) + "\n"


def replay_bandit(view_doc: dict, cfg: PipelineConfig, object_id: str) -> list[dict]:
    """The per-round bandit trace of one view of a record, rebuilt.

    Reruns `_run_bandit` on the arms' stored composite scores with the
    view's own RNG stream; the engine itself keeps no trace. `cfg` must
    be the configuration the record was made with; a replay whose
    strategy, rounds, pulls or pick differ from the record's raises
    ConfigError.
    """
    view = Viewpoint.from_string(view_doc["view"])
    scored = [
        ScoredCandidate(
            view=view,
            index=c["index"],
            text=c["text"],
            cluster_id=c["cluster_id"],
            raw_confidence=c["raw_confidence"],
            normalized_confidence=c["normalized_confidence"],
            relevance_weight=c["relevance_weight"],
            composite_score=c["composite_score"],
        )
        for c in view_doc["candidates"]
    ]
    arms = view_doc["bandit"]["arm_candidate_indices"]
    replayed, history = _run_bandit(scored, arms, cfg, object_id, view)
    if asdict(replayed) != view_doc["bandit"]:
        raise ConfigError(
            f"{object_id} view {view.value}: record was not made with this configuration"
        )
    return [
        {"round": r, "arm": arm, "candidate_index": arms[arm], "reward": value}
        for r, (arm, value) in enumerate(history, start=1)
    ]


def load_corpus_entries(corpus_dir: str | Path, cfg: PipelineConfig) -> tuple[list[ObjectManifest], list[AnnotationRecord]]:
    """Ingest every manifest under a corpus directory.

    Returns (manifests, failure_records). Any *.json file directly in
    the directory is treated as a manifest, except the mock truth
    sidecar. A manifest that fails to parse, and every manifest whose
    object_id another manifest also claims, becomes a failed record
    keyed by FAILURE_KEY_PREFIX plus its file stem. No accepted id
    starts with that prefix, so every record key of a corpus is unique.
    """
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise ConfigError(f"corpus directory {corpus_dir} does not exist")
    claims: dict[str, list[tuple[Path, ObjectManifest]]] = {}
    failures: list[AnnotationRecord] = []

    def reject(path: Path, e: EngineError) -> None:
        logger.warning("manifest %s rejected: %s", path.name, e)
        failures.append(AnnotationRecord.failed(_failure_key(path.stem), e))

    for path in sorted(corpus_dir.glob("*.json")):
        if path.name == MOCK_TRUTH_FILENAME:
            continue
        try:
            manifest = ingest_manifest(
                path,
                point_budget=cfg.point_budget,
                seed=stable_seed("downsample", cfg.seed, path.stem),
            )
        except EngineError as e:
            reject(path, e)
            continue
        claims.setdefault(manifest.object_id, []).append((path, manifest))

    manifests: list[ObjectManifest] = []
    for object_id, claimants in claims.items():
        if len(claimants) == 1:
            manifests.append(claimants[0][1])
            continue
        names = ", ".join(_printable(path.name) for path, _ in claimants)
        for path, _ in claimants:
            reject(path, DuplicateObjectId(
                f"object_id {object_id!r} is claimed by {len(claimants)} manifests: {names}"
            ))
    return manifests, failures


def _failure_key(stem: str) -> str:
    """FAILURE_KEY_PREFIX plus the printable stem, in MAX_OBJECT_ID_BYTES.

    A longer key is cut at a UTF-8 character boundary and ends in "~"
    and 16 hex digits of the stem's sha256, so two long stems that
    share their first bytes still get two keys.
    """
    key = FAILURE_KEY_PREFIX + _printable(stem)
    encoded = key.encode("utf-8")
    if len(encoded) <= MAX_OBJECT_ID_BYTES:
        return key
    digest = hashlib.sha256(stem.encode("utf-8", "surrogateescape")).hexdigest()[:16]
    head = encoded[: MAX_OBJECT_ID_BYTES - len(digest) - 1].decode("utf-8", "ignore")
    return f"{head}~{digest}"


def _printable(name: str) -> str:
    """A file name with each byte that is not UTF-8 written as \\xNN, so
    a record can hold it and be named after it."""
    return name.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")


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
                truth = parse_json(read_bytes(truth_path, MOCK_TRUTH_FILENAME), MOCK_TRUTH_FILENAME)
                if not isinstance(truth, dict):
                    raise ParseError(f"{MOCK_TRUTH_FILENAME} must be a JSON object")
        backing = build_mock_providers(seed=cfg.seed, truth=truth)
    else:
        for role in PROVIDER_ROLES:
            if role not in cfg.providers:
                raise ConfigError(
                    f"provider role {role!r} not configured (or run with mocks)"
                )
        # one session for the four roles, so each thread keeps one
        # connection per endpoint host, not one per role
        session = KeepAliveSession()
        backing = ProviderSet(
            generator=HttpCandidateGenerator(_http_config(cfg.providers["generate"]), session=session),
            text_embedder=HttpEmbedder(_http_config(cfg.providers["embed_text"]), session=session),
            image_embedder=HttpEmbedder(_http_config(cfg.providers["embed_image"]), session=session),
            cloud_embedder=HttpEmbedder(_http_config(cfg.providers["embed_cloud"]), session=session),
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


@dataclass
class RunTally:
    """What the run summary needs of the records already written."""

    objects: int = 0
    ok: int = 0
    flagged: list[dict] = field(default_factory=list)
    stage_totals: dict[str, float] = field(default_factory=dict)

    def add(self, record: AnnotationRecord) -> None:
        self.objects += 1
        for stage, seconds in record.stage_timings.items():
            self.stage_totals[stage] = self.stage_totals.get(stage, 0.0) + seconds
        if record.status != "ok":
            return
        self.ok += 1
        if not record.gating.passed:
            self.flagged.append(
                flagged_record(
                    record.object_id, record.gating, record.global_annotation.full_text
                )
            )


def write_record(record: AnnotationRecord, records_dir: Path) -> None:
    """Write records/<object_id>.json with write_atomic; a failed encode writes nothing."""
    write_atomic(records_dir / f"{record.object_id}.json", record_to_json(record))


def write_outputs(
    tally: RunTally,
    out_dir: str | Path,
    cfg: PipelineConfig,
    cache: ResponseCache | None = None,
) -> dict:
    """Write the flagged export and the run summary once every record is written."""
    out_dir = Path(out_dir)
    flagged = sorted(tally.flagged, key=lambda doc: doc["object_id"])
    write_atomic(
        out_dir / "flagged.jsonl",
        "".join(json.dumps(doc, sort_keys=True, ensure_ascii=False) + "\n" for doc in flagged),
    )

    summary = {
        "objects": tally.objects,
        "ok": tally.ok,
        "failed": tally.objects - tally.ok,
        "flagged": len(flagged),
        "stage_seconds": {k: round(v, 6) for k, v in sorted(tally.stage_totals.items())},
        "cache": cache.stats() if cache is not None else None,
        "config": cfg.to_dict(),
    }
    write_atomic(
        out_dir / "run_summary.json",
        json.dumps(summary, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
    )
    return summary


def run_corpus(
    corpus_dir: str | Path,
    cfg: PipelineConfig,
    mock: bool,
    out_dir: str | Path,
) -> dict:
    """The full batch: ingest, annotate, persist. Returns the summary.

    Each record is written as soon as its object finishes; the flagged
    export and the summary follow once every object is done.
    """
    manifests, failures = load_corpus_entries(corpus_dir, cfg)
    providers, _backing, cache = build_providers(cfg, mock=mock, corpus_dir=corpus_dir)
    records_dir = Path(out_dir) / "records"
    records_dir.mkdir(parents=True, exist_ok=True)
    tally = RunTally()
    for record in itertools.chain(failures, iter_records(manifests, cfg, providers)):
        write_record(record, records_dir)
        tally.add(record)
    return write_outputs(tally, out_dir, cfg, cache=cache)
