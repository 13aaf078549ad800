"""Image-text relevance weighting and the composite candidate score.

Each candidate's grounding in its view image is measured by cosine
similarity between the image embedding and the candidate text
embedding, turned into a probability via softmax. The composite score
is a convex blend of normalized confidence and that relevance weight.
"""

import math

from .clustering import cosine_similarity
from .model import EmbeddingVector


def relevance_weights(
    image_emb: EmbeddingVector, text_embs: list[EmbeddingVector]
) -> tuple[float, ...]:
    """Softmax over cosine(image, text_i) across one or more candidates; sums to 1."""
    sims = [cosine_similarity(image_emb, t) for t in text_embs]
    peak = max(sims)
    exps = [math.exp(s - peak) for s in sims]
    total = sum(exps)
    return tuple(e / total for e in exps)


def composite_score(norm_conf: float, relevance: float, blend_ratio: float) -> float:
    """Convex combination: (1 - blend) * confidence + blend * relevance.

    At blend 0 and 1 the formula gives the confidence and the relevance
    exactly, since both lie in [0, 1]. For any blend in [0, 1] the result
    stays in [0, 1] in floating point too: rounding is monotone, so
    fl(b * r) <= b, fl(fl(1 - b) * c) <= fl(1 - b) and fl(1 - b) + b
    rounds to 1.
    """
    return (1.0 - blend_ratio) * norm_conf + blend_ratio * relevance
