import numpy as np
import pytest

from viewfuse.clustering import cosine_similarity
from viewfuse.errors import MalformedProviderResponse, MissingLogprobs
from viewfuse.model import PointCloud, Viewpoint
from viewfuse.providers import (
    GenerationConfig,
    cloud_digest,
    make_request,
    resolve_candidates,
)
from viewfuse.providers.mock import (
    ConceptSpace,
    MockCandidateGenerator,
    MockCloudEmbedder,
    MockImageEmbedder,
    MockTextEmbedder,
    build_mock_providers,
    concept_from_image_ref,
)

CFG = GenerationConfig(temperature=0.7, num_candidates=5)


def test_concept_from_image_ref_takes_first_token():
    assert concept_from_image_ref("mug__obj_003__front.png") == "mug"
    assert concept_from_image_ref("/data/renders/lamp__x__top.jpg") == "lamp"
    assert concept_from_image_ref("plainname.png") == "plainname"


def test_anchor_vectors_are_unit_and_stable():
    space = ConceptSpace(dim=64)
    a1 = space.anchor("mug")
    a2 = ConceptSpace(dim=64).anchor("mug")
    assert np.allclose(a1, a2)
    assert np.linalg.norm(a1) == pytest.approx(1.0, abs=1e-9)


def test_distinct_concepts_are_nearly_orthogonal():
    space = ConceptSpace(dim=256)
    sims = []
    names = ["mug", "chair", "lamp", "vase", "robot"]
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            sims.append(float(space.anchor(a) @ space.anchor(b)))
    assert max(abs(s) for s in sims) < 0.25


def test_text_embedder_same_concept_phrasings_close():
    emb = MockTextEmbedder(ConceptSpace(dim=256))
    a = emb.embed_text("A shiny mug with a chipped rim.")
    b = emb.embed_text("The mug appears sturdy and well used.")
    assert cosine_similarity(a, b) > 0.8


def test_text_embedder_different_concepts_far():
    emb = MockTextEmbedder(ConceptSpace(dim=256))
    a = emb.embed_text("A shiny mug on a table.")
    b = emb.embed_text("A tall lamp in a corner.")
    assert abs(cosine_similarity(a, b)) < 0.3


def test_text_embedder_deterministic_and_counts_calls():
    emb = MockTextEmbedder(ConceptSpace(dim=128))
    v1 = emb.embed_text("A mug.")
    v2 = emb.embed_text("A mug.")
    assert v1 == v2
    assert emb.calls == 2


def test_batches_equal_the_per_item_map_and_count_per_item():
    batched, single = build_mock_providers(seed=3), build_mock_providers(seed=3)
    texts = ["A mug.", "A lamp.", "A mug."]
    refs = ["mug__o__front.png", "lamp__o__top.png"]
    items = [(Viewpoint.FRONT, refs[0]), (Viewpoint.TOP, refs[1])]
    assert batched.text_embedder.embed_texts(texts) == [
        single.text_embedder.embed_text(t) for t in texts
    ]
    assert batched.image_embedder.embed_images(refs) == [
        single.image_embedder.embed_image(r) for r in refs
    ]
    assert batched.generator.generate_views(items, CFG) == [
        single.generator.generate_candidates(v, r, CFG) for v, r in items
    ]
    for slot in ("generator", "text_embedder", "image_embedder"):
        assert getattr(batched, slot).calls == getattr(single, slot).calls > 0
    assert batched.text_embedder.embed_texts([]) == []


def test_image_and_text_embeddings_share_concept_geometry():
    space = ConceptSpace(dim=256)
    text = MockTextEmbedder(space)
    image = MockImageEmbedder(space)
    img = image.embed_image("mug__obj_001__front.png")
    near = text.embed_text("A mug with a handle.")
    far = text.embed_text("A chair with four legs.")
    assert cosine_similarity(img, near) > 0.8
    assert cosine_similarity(img, far) < 0.3


def test_cloud_embedder_uses_truth_table():
    space = ConceptSpace(dim=256)
    cloud = PointCloud(np.random.default_rng(0).normal(size=(50, 3)))
    digest = cloud_digest(cloud)
    text = MockTextEmbedder(space)
    matched = MockCloudEmbedder(space, truth={digest: "mug"})
    assert cosine_similarity(matched.embed_cloud(cloud), text.embed_text("A mug.")) > 0.8


def test_cloud_embedder_without_truth_entry_lands_off_anchor():
    space = ConceptSpace(dim=256)
    cloud = PointCloud(np.random.default_rng(0).normal(size=(50, 3)))
    text = MockTextEmbedder(space)
    unmatched = MockCloudEmbedder(space, truth={})
    sim = cosine_similarity(unmatched.embed_cloud(cloud), text.embed_text("A mug."))
    assert abs(sim) < 0.3


def test_generator_is_deterministic_across_instances():
    a = MockCandidateGenerator(seed=4).generate_candidates(
        Viewpoint.FRONT, "mug__o__front.png", CFG
    )
    b = MockCandidateGenerator(seed=4).generate_candidates(
        Viewpoint.FRONT, "mug__o__front.png", CFG
    )
    assert a == b
    assert len(a) == 5


def test_generator_seed_changes_output():
    a = MockCandidateGenerator(seed=1).generate_candidates(
        Viewpoint.FRONT, "mug__o__front.png", CFG
    )
    b = MockCandidateGenerator(seed=2).generate_candidates(
        Viewpoint.FRONT, "mug__o__front.png", CFG
    )
    assert [c.text for c in a] != [c.text for c in b]


def test_generator_respects_view_and_candidate_count():
    cands = MockCandidateGenerator(seed=0).generate_candidates(
        Viewpoint.TOP, "vase__o__top.png", GenerationConfig(num_candidates=3)
    )
    assert len(cands) == 3
    assert all("top" in c.text for c in cands)


def test_generator_without_hallucination_mentions_the_concept():
    cands = MockCandidateGenerator(seed=0, hallucination_rate=0.0).generate_candidates(
        Viewpoint.FRONT, "kettle__o__front.png", CFG
    )
    assert all("kettle" in c.text for c in cands)


def test_generator_full_hallucination_swaps_the_subject():
    cands = MockCandidateGenerator(seed=0, hallucination_rate=1.0).generate_candidates(
        Viewpoint.FRONT, "kettle__o__front.png", CFG
    )
    assert all("kettle" not in c.text for c in cands)


def test_generator_missing_logprobs_get_fallback_confidence():
    cands = MockCandidateGenerator(seed=3, missing_logprob_rate=1.0).generate_candidates(
        Viewpoint.FRONT, "mug__o__front.png", CFG
    )
    # nobody has logprobs: everyone carries the documented 1.0 fallback
    assert all(c.token_logprobs == () for c in cands)
    assert all(c.raw_confidence == 1.0 for c in cands)


def test_resolve_drafts_median_fallback():
    out = resolve_candidates(["t0", "t1", "t2", "t3"], [[-1.0], [-3], [-2.0], None], 4)
    assert out[3].raw_confidence == pytest.approx(2.0)  # median of 1, 3, 2
    assert out[3].token_logprobs == ()
    assert out[1].token_logprobs == (-3.0,)
    assert out[0].raw_confidence == pytest.approx(1.0)


def test_resolve_drafts_empty_logprob_tuple_rejected():
    with pytest.raises(MissingLogprobs):
        resolve_candidates(["t"], [[]], 1)


@pytest.mark.parametrize("text", ["", 5, None], ids=["empty", "number", "null"])
def test_resolve_drafts_text_must_be_a_non_empty_string(text):
    with pytest.raises(MalformedProviderResponse, match="not a list of non-empty strings$"):
        resolve_candidates(["a mug", text], [[-1.0], None], 2)


def test_make_request_key_sensitivity():
    k1 = make_request("generate", {"temperature": 0.7, "n": 5}, "m1").cache_key
    k2 = make_request("generate", {"temperature": 0.8, "n": 5}, "m1").cache_key
    k3 = make_request("generate", {"temperature": 0.7, "n": 5}, "m2").cache_key
    k4 = make_request("embed", {"temperature": 0.7, "n": 5}, "m1").cache_key
    assert len({k1, k2, k3, k4}) == 4


def test_make_request_key_ignores_dict_ordering():
    k1 = make_request("generate", {"a": 1, "b": 2}, "m").cache_key
    k2 = make_request("generate", {"b": 2, "a": 1}, "m").cache_key
    assert k1 == k2


def test_build_mock_providers_shares_one_concept_space():
    providers = build_mock_providers(seed=0)
    img = providers.image_embedder.embed_image("mug__o__front.png")
    txt = providers.text_embedder.embed_text("A mug.")
    assert cosine_similarity(img, txt) > 0.8
