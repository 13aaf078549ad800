"""End-to-end orchestration over a corpus of object manifests.

Stage order per object: candidate generation per view and the
embeddings (`annotate_object`'s provider waves); clustering, scoring,
bandit selection and global synthesis (`aggregate_object`, which does
no I/O); then the gate. One object's failure is recorded, not raised,
so a bad manifest cannot abort a batch. Output records are a pure
function of (corpus, config, seed) under the deterministic mock
providers, so they hold no wall-clock time; the run summary holds the
wall time of each phase of the run. `run_corpus` writes each record as
soon as its object finishes, so an aborted run keeps the records it
finished.
"""

import hashlib
import itertools
import json
import logging
import random
import time
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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
from .config import PROVIDER_ROLES, PipelineConfig, typed_fields
from .errors import ConfigError, DuplicateObjectId, EngineError, ParseError
from .gating import flagged_record, gate
from .model import FAILURE_KEY_PREFIX, MAX_OBJECT_ID_BYTES, VIEW_ORDER, ObjectManifest, Viewpoint
from .model import CandidateDescription, EmbeddingVector
from .model import canonical_json, ingest_manifest, parse_json, read_bytes, stable_seed, write_atomic
from .providers import GenerationConfig, ProviderSet
from .providers.cache import ResponseCache, wrap_with_cache
from .providers.http import HttpCandidateGenerator, HttpEmbedder, HttpProviderConfig, KeepAliveSession
from .providers.mock import build_mock_providers
from .scoring import composite_score, relevance_weights
from .synthesis import ViewSelection, assemble_global

logger = logging.getLogger(__name__)

RECORD_SCHEMA_VERSION = 2
MOCK_TRUTH_FILENAME = "mock_truth.json"


@dataclass
class AnnotationRecord:
    object_id: str
    status: str  # "ok" | "failed"
    error: str | None = None
    metadata: dict = field(default_factory=dict)
    # the record's views, global and gating documents as record_to_doc
    # writes them, None on a failed record; views are keyed by view name
    views: dict[str, dict] | None = None
    global_annotation: dict | None = None
    gating: dict | None = None

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
    candidates: list[dict],
    arms: Sequence[int],
    cfg: PipelineConfig,
    object_id: str,
    view: Viewpoint,
) -> tuple[dict, list[tuple[int, float]]]:
    """R rounds of selection among one view's canonical arms.

    `candidates` are the view's candidate documents and `arms` the
    indices of the canonical ones. The RNG stream is the view's own.
    Returns the record's bandit document, which picks the most-pulled
    arm, with the `run_bandit` history it came from.
    """
    rewards = [compute_reward(candidates[i]["composite_score"]) for i in arms]
    rng = random.Random(stable_seed("bandit", cfg.seed, object_id, view.value))
    history = run_bandit(cfg, rewards.__getitem__, len(arms), rng)
    pulls = pull_counts(history, len(arms))
    bandit = {
        "strategy": cfg.strategy,
        "rounds": cfg.rounds,
        "arm_candidate_indices": list(arms),
        "pulls": pulls,
        "selected_candidate_index": arms[most_pulled(pulls)],
    }
    return bandit, history


def aggregate_object(
    manifest: ObjectManifest,
    cfg: PipelineConfig,
    candidates: list[list[CandidateDescription]],
    image_embs: list[EmbeddingVector],
    text_embs: list[EmbeddingVector],
) -> AnnotationRecord:
    """The aggregation agent: one object's record from its provider replies.

    `candidates` and `image_embs` hold one entry per view in VIEW_ORDER;
    `text_embs` holds one embedding per candidate, in that order. Each
    view is clustered, weighted and scored, the bandit picks its text,
    and the picks are synthesised into the global annotation. There is
    no I/O and no clock: equal inputs give equal records. The gate needs
    the final text's embedding, so the record comes back ungated.
    """
    record = AnnotationRecord(
        manifest.object_id, "ok", metadata=dict(manifest.metadata), views={}
    )
    selections: list[ViewSelection] = []
    start = 0
    for view, view_candidates, image_emb in zip(VIEW_ORDER, candidates, image_embs):
        view_text_embs = text_embs[start : start + len(view_candidates)]
        start += len(view_candidates)
        norm_confs = [normalize_confidence(c.raw_confidence) for c in view_candidates]
        labels = dbscan_cluster(view_text_embs, cfg.eps, cfg.min_pts)
        reps = select_canonical(labels, norm_confs)
        weights = relevance_weights(image_emb, [view_text_embs[i] for i in reps])

        rep_rank = {idx: pos for pos, idx in enumerate(reps)}
        docs = []
        for i, c in enumerate(view_candidates):
            rel = weights[rep_rank[i]] if i in rep_rank else None
            score = None if rel is None else composite_score(norm_confs[i], rel, cfg.blend_ratio)
            docs.append({
                "index": i,
                "text": c.text,
                "token_logprobs": list(c.token_logprobs),
                "raw_confidence": c.raw_confidence,
                "normalized_confidence": norm_confs[i],
                "cluster_id": labels[i],
                "is_canonical": rel is not None,
                "relevance_weight": rel,
                "composite_score": score,
            })

        bandit, _ = _run_bandit(docs, reps, cfg, manifest.object_id, view)
        chosen = docs[bandit["selected_candidate_index"]]
        selection = {"text": chosen["text"], "score": chosen["composite_score"]}
        selections.append(ViewSelection(view=view, **selection))
        record.views[view.value] = {
            "view": view.value,
            "image_ref": manifest.view_images[view],
            "candidates": docs,
            "bandit": bandit,
            "selection": selection,
        }
    record.global_annotation = assemble_global(selections, cfg.w_fb)
    return record


def annotate_object(
    manifest: ObjectManifest, cfg: PipelineConfig, providers: ProviderSet
) -> AnnotationRecord:
    """One object's provider waves around `aggregate_object`, then the
    gate; failures become a failed record."""
    gen_cfg = GenerationConfig(
        temperature=cfg.temperature, num_candidates=cfg.num_candidates
    )
    try:
        image_refs = [manifest.view_images[view] for view in VIEW_ORDER]
        candidates = providers.generator.generate_views(list(zip(VIEW_ORDER, image_refs)), gen_cfg)
        # one call per role for all views; aggregate_object splits them per view
        image_embs = providers.image_embedder.embed_images(image_refs)
        text_embs = providers.text_embedder.embed_texts([c.text for cs in candidates for c in cs])
        record = aggregate_object(manifest, cfg, candidates, image_embs, text_embs)

        text_emb = providers.text_embedder.embed_text(record.global_annotation["full_text"])
        cloud_emb = providers.cloud_embedder.embed_cloud(manifest.point_cloud)
        record.gating = gate(text_emb, cloud_emb, cfg.gate_threshold)
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


def record_to_doc(record: AnnotationRecord) -> dict:
    """Canonical JSON form of a record.

    Holds no wall-clock time, so identical runs produce byte-identical
    files; the run summary has the phase times.
    The bandit's per-round trace is not kept at all (see replay_bandit).
    """
    return {
        "schema_version": RECORD_SCHEMA_VERSION,
        "object_id": record.object_id,
        "status": record.status,
        "error": record.error,
        "metadata": record.metadata,
        "views": record.views,
        "global": record.global_annotation,
        "gating": record.gating,
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
    arms = view_doc["bandit"]["arm_candidate_indices"]
    replayed, history = _run_bandit(view_doc["candidates"], arms, cfg, object_id, view)
    if replayed != view_doc["bandit"]:
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
            generator=HttpCandidateGenerator(_http_config(cfg, "generate"), session=session),
            text_embedder=HttpEmbedder(_http_config(cfg, "embed_text"), session=session),
            image_embedder=HttpEmbedder(_http_config(cfg, "embed_image"), session=session),
            cloud_embedder=HttpEmbedder(_http_config(cfg, "embed_cloud"), session=session),
        )
    cache = None
    active = backing
    if cfg.cache_dir:
        cache = ResponseCache(cfg.cache_dir)
        active = wrap_with_cache(backing, cache)
    return active, backing, cache


def _http_config(cfg: PipelineConfig, role: str) -> HttpProviderConfig:
    """The HttpProviderConfig of `role`, each field checked against its annotation."""
    doc = cfg.providers[role]
    try:
        if not isinstance(doc, dict):
            raise ConfigError("provider config must be an object")
        return HttpProviderConfig(**typed_fields(HttpProviderConfig, doc, "provider config"))
    except (ConfigError, TypeError) as e:  # TypeError: a required field is missing
        raise ConfigError(f"provider {role!r}: {e}") from None


@dataclass
class RunTally:
    """What the run summary needs of the records already written."""

    objects: int = 0
    ok: int = 0
    flagged: list[dict] = field(default_factory=list)

    def add(self, record: AnnotationRecord) -> None:
        self.objects += 1
        if record.status != "ok":
            return
        self.ok += 1
        if not record.gating["passed"]:
            self.flagged.append(
                flagged_record(
                    record.object_id, record.gating, record.global_annotation["full_text"]
                )
            )


class PhaseClock:
    """Wall time per phase of a run, read on the thread that runs them.

    `lap(phase)` charges the time since the previous lap to `phase`, so
    the phases never overlap and sum to at most the run's wall time.
    """

    def __init__(self, *phases: str):
        self.seconds = dict.fromkeys(phases, 0.0)
        self._mark = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[phase] += now - self._mark
        self._mark = now


def write_record(record: AnnotationRecord, records_dir: Path) -> None:
    """Write records/<object_id>.json with write_atomic; a failed encode writes nothing."""
    write_atomic(records_dir / f"{record.object_id}.json", record_to_json(record))


def write_outputs(
    tally: RunTally,
    out_dir: str | Path,
    cfg: PipelineConfig,
    clock: PhaseClock,
    cache: ResponseCache | None = None,
) -> dict:
    """Write the flagged export and the run summary once every record is written.

    The flagged export is charged to `clock`'s write phase; the summary
    cannot time its own write.
    """
    out_dir = Path(out_dir)
    flagged = sorted(tally.flagged, key=lambda doc: doc["object_id"])
    write_atomic(
        out_dir / "flagged.jsonl",
        "".join(json.dumps(doc, sort_keys=True, ensure_ascii=False) + "\n" for doc in flagged),
    )
    clock.lap("write")

    summary = {
        "objects": tally.objects,
        "ok": tally.ok,
        "failed": tally.objects - tally.ok,
        "flagged": len(flagged),
        "phase_seconds": {k: round(v, 6) for k, v in clock.seconds.items()},
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
    export and the summary follow once every object is done. The
    summary's `phase_seconds` splits the run's wall time into `ingest`
    (manifests, clouds, providers and the output directory), `annotate`
    (waiting for the next record) and `write` (records and the flagged
    export). The HTTP providers' connections are closed when the
    objects are done, on an error too. `cfg` is validated first, so a
    field changed after construction still raises ConfigError.
    """
    cfg.validate()
    clock = PhaseClock("ingest", "annotate", "write")
    records_dir = Path(out_dir) / "records"
    try:  # before ingest, so a bad --out fails before any manifest is read
        records_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot make output directory {records_dir}: {e.strerror or e}") from None
    manifests, failures = load_corpus_entries(corpus_dir, cfg)
    providers, backing, cache = build_providers(cfg, mock=mock, corpus_dir=corpus_dir)
    clock.lap("ingest")
    tally = RunTally()
    records = iter_records(manifests, cfg, providers)
    try:
        for record in itertools.chain(failures, records):
            clock.lap("annotate")
            write_record(record, records_dir)
            tally.add(record)
            clock.lap("write")
    finally:
        # stop the objects still running before their connections close
        records.close()
        if not mock:  # the four HTTP roles share one session
            backing.generator.session.close()
    clock.lap("annotate")
    return write_outputs(tally, out_dir, cfg, clock, cache=cache)
