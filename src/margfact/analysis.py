"""Correspondence extraction, phenotype reports, and quality metrics."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_setting
from .regularizers import column_cosines, upper_pairs
from .tensor import marginal_scales


@dataclass
class CorrespondenceRow:
    anchor_modality: str
    anchor_item: str
    target_modality: str
    item_ids: list
    scores: np.ndarray  # l1-normalized, or all-zero with all_zero=True
    base_population_size: int
    all_zero: bool = False

    def top(self, k=10):
        """(item, score) pairs, best first; ties broken by item index."""
        check_setting("correspondence", "k", k, 1, integral=True)
        order = np.lexsort((np.arange(len(self.scores)), -self.scores))[:k]
        return [(self.item_ids[j], float(self.scores[j])) for j in order]


@dataclass
class Phenotype:
    index: int
    items: dict  # modality -> list of (item_id, normalized weight), descending


def find_tensor(model, tensor_id, *modalities):
    """The model's tensor named tensor_id, which must list each of modalities,
    or for tensor_id None the first of its tensors that lists them all."""
    named = [t for t in model.spec.tensors if tensor_id in (None, t.id)]
    if not named:
        raise ConfigurationError(f"unknown tensor {tensor_id!r}")
    for tensor in named:
        missing = [name for name in modalities if name not in tensor.modalities]
        if not missing:
            return tensor
    raise ConfigurationError(
        f"no tensor contains {' and '.join(map(repr, modalities))}" if tensor_id is None
        else f"tensor {tensor_id!r} does not contain modality {missing[0]!r}")


def extract_correspondence(model, tensor_id, anchor_modality, anchor_item,
                           target_modality, population=None):
    """Population-accumulated correspondence of target items to one anchor item.

    Accumulates the reconstructed interaction tensor over the patient
    dimension of the base population (by default: patients with the
    anchor item present in the observed matrix), extracts the anchor's
    row, and l1-normalizes it. tensor_id None picks the first tensor that
    lists both modalities (find_tensor).
    """
    tensor = find_tensor(model, tensor_id, anchor_modality, target_modality)
    obs_a = model.observations[anchor_modality]
    try:
        j = obs_a.item_ids.index(anchor_item)
    except ValueError:
        raise ConfigurationError(f"item {anchor_item!r} not in modality {anchor_modality!r}")

    if population is None:
        population = np.flatnonzero(obs_a.values[:, j] > 0)
    else:
        given = np.asarray(population, dtype=float)  # an int cast would truncate 1.7 to 1
        n = model.shared.shape[0]
        if (given.ndim != 1 or np.any((given < 0) | (given >= n) | (given != np.floor(given)))
                or np.unique(given).size != given.size):
            raise ConfigurationError(f"population must list distinct patient indices "
                                     f"in [0, {n}), got {np.asarray(population).tolist()}")
        population = given.astype(int)
    if population.size == 0:
        raise ConfigurationError(f"empty base population for anchor "
                                 f"{anchor_modality}:{anchor_item}")

    # accumulate shared rows over the population, fold in the scale factors
    # of every tensor modality other than anchor and target
    other_scales = marginal_scales([model.factors[m] for m in tensor.modalities],
                                   tensor.modalities.index(anchor_modality),
                                   tensor.modalities.index(target_modality))
    w = model.shared[population].sum(axis=0) * other_scales

    row = (model.factors[anchor_modality][j] * w) @ model.factors[target_modality].T
    total = row.sum()
    all_zero = bool(total <= 0)
    return CorrespondenceRow(anchor_modality, anchor_item, target_modality,
                             list(model.observations[target_modality].item_ids),
                             np.zeros_like(row) if all_zero else row / total,
                             int(population.size), all_zero)


def extract_phenotypes(model, weight_threshold=1e-4):
    """Per-rank item lists: l1-normalize each factor column, keep entries
    at or above the threshold (in [0, 1]), sort descending (ties by item index)."""
    check_setting("phenotypes", "weight_threshold", weight_threshold, 0, 1)
    phenotypes = []
    for r in range(model.spec.rank):
        items = {}
        for name, U in model.factors.items():
            col = U[:, r]
            total = col.sum()
            ids = model.observations[name].item_ids
            if total <= 0:
                items[name] = []
                continue
            weights = col / total
            keep = np.flatnonzero(weights >= weight_threshold)
            order = keep[np.lexsort((keep, -weights[keep]))]
            items[name] = [(ids[i], float(weights[i])) for i in order]
        phenotypes.append(Phenotype(r, items))
    return phenotypes


def _cosine_pair_sum(U):
    """Sum over r2 > r1 of cos(u_r1, u_r2); zero columns contribute 0."""
    # clip so identical columns give exactly 1 despite norm rounding
    cos = np.clip(column_cosines(U)[0], -1.0, 1.0)
    return float(np.sum(cos[upper_pairs(U.shape[1])]))


def cosine_similarity_metric(factors):
    """Average pairwise column cosine over modality factors.

    The printed convention divides the sum over unordered pairs by
    N * R * (R - 1), the ordered-pair count.
    """
    factors = list(factors.values()) if isinstance(factors, dict) else list(factors)
    R = factors[0].shape[1]
    if R < 2:
        raise ConfigurationError("cosine similarity metric needs rank >= 2")
    N = len(factors)
    total = sum(_cosine_pair_sum(U) for U in factors)
    return total / (N * R * (R - 1))


def top_k_items(phenotype, k=10):
    """Union over modalities of the phenotype's top-k items, tagged by modality."""
    check_setting("phenotype top items", "k", k, 1, integral=True)
    out = set()
    for name, items in phenotype.items.items():
        for item, _ in items[:k]:
            out.add((name, item))
    return out


def jaccard_at_k(phenotypes, k=10):
    """Mean pairwise Jaccard of top-k item unions, printed normalizer R(R-1)."""
    R = len(phenotypes)
    if R < 2:
        raise ConfigurationError("jaccard@k needs at least 2 phenotypes")
    sets = [top_k_items(p, k) for p in phenotypes]
    total = 0.0
    for r1 in range(R):
        for r2 in range(r1 + 1, R):
            union = sets[r1] | sets[r2]
            if union:
                total += len(sets[r1] & sets[r2]) / len(union)
    return total / (R * (R - 1))


def sparsity(factors):
    """Ratio of strictly positive entries across the modality factor matrices."""
    factors = list(factors.values()) if isinstance(factors, dict) else list(factors)
    nonzero = sum(int(np.count_nonzero(U > 0)) for U in factors)
    total = sum(U.size for U in factors)
    return nonzero / total


def meaningfulness_score(row, annotations, k=10):
    """Annotation-weighted mean of the re-normalized top-k correspondence scores.

    Annotations map target item id to a relevance score in {0, 1, 2}.
    """
    top = row.top(k)
    missing = [item for item, _ in top if item not in annotations]
    if missing:
        raise ConfigurationError(f"missing annotations for items: {missing}")
    weight_sum = sum(score for _, score in top)
    if weight_sum <= 0:
        return None
    return sum(score * annotations[item] for item, score in top) / weight_sum
