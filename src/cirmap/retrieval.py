"""Query composition, exact top-k cosine retrieval, and R@K / mAP@K metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .composer import PromptComposer
from .errors import ParameterError, ShapeError
from .mappers import Mappers, map_rows

BASELINE_MODES = ("image_only", "text_only", "average", "slerp")


@dataclass
class Query:
    query_id: str
    reference_id: str
    reference_emb: np.ndarray  # unit vector
    condition_id: str
    condition_emb: np.ndarray  # unit vector
    target_ids: frozenset[str]

    def __post_init__(self):
        if not self.target_ids:
            raise ShapeError(f"query {self.query_id}: empty target set")
        self.reference_emb = np.asarray(self.reference_emb, dtype=np.float32)
        self.condition_emb = np.asarray(self.condition_emb, dtype=np.float32)
        self.target_ids = frozenset(self.target_ids)


@dataclass
class Gallery:
    ids: list[str]
    vectors: np.ndarray  # [G x d] unit rows

    def __post_init__(self):
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float32)
        if self.vectors.ndim != 2 or len(self.ids) != self.vectors.shape[0]:
            raise ShapeError("gallery ids and vectors disagree")
        if len(set(self.ids)) != len(self.ids):
            raise ShapeError("gallery ids must be unique")

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class RankedResult:
    """Descending cosine order; ties broken by ascending id."""

    items: list[tuple[str, float]]

    def ids(self) -> list[str]:
        return [i for i, _ in self.items]


@dataclass
class EvalTask:
    gallery: Gallery
    queries: list[Query]
    metrics: list[str] = field(default_factory=lambda: ["recall", "map"])
    k_values: list[int] = field(default_factory=lambda: [1, 5, 10])
    gamma: float = 0.6


def _unit(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=np.float64)
    return (v / np.linalg.norm(v)).astype(np.float32)


def compose_query(
    query: Query, mappers: Mappers, composer: PromptComposer, gamma: float
) -> np.ndarray:
    """Mix the reference pseudo token with the prompted supplement token and compose.

    The mixed token is a bare convex combination (tokens are free vectors, so
    no renormalization) inserted into the two-slot template together with the
    condition embedding. The query runs through the batched paths as a batch
    of one.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma}")
    ref = Tensor(query.reference_emb.reshape(1, -1))
    cond = Tensor(query.condition_emb.reshape(1, -1))
    pseudo_token = map_rows(mappers.pseudo, ref)
    prompted = composer.compose_rows("photo_of", [cond])
    supplement_token = map_rows(mappers.supplement, prompted)
    token = ad.add(
        ad.scale(pseudo_token, gamma), ad.scale(supplement_token, 1.0 - gamma)
    )
    return composer.compose_rows("photo_of_that", [token, cond]).values[0]


def baseline_compose(query: Query, mode: str, t: float = 0.5) -> np.ndarray:
    """Training-free query compositions used as comparison rows."""
    if mode == "image_only":
        return query.reference_emb.copy()
    if mode == "text_only":
        return query.condition_emb.copy()
    if mode == "average":
        return _unit(
            query.reference_emb.astype(np.float64) + query.condition_emb.astype(np.float64)
        )
    if mode == "slerp":
        return slerp(query.reference_emb, query.condition_emb, t)
    raise ParameterError(f"unknown baseline mode {mode!r}")


def slerp(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """Spherical interpolation of unit vectors, renormalized.

    Falls back to the normalized average when the angle is below 1e-6 (the
    sine denominator is ill-conditioned there).
    """
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    omega = np.arccos(np.clip(np.dot(av, bv), -1.0, 1.0))
    if omega < 1e-6:
        return _unit(av + bv)
    s = np.sin(omega)
    mixed = np.sin((1.0 - t) * omega) / s * av + np.sin(t * omega) / s * bv
    return _unit(mixed)


def rank(gallery: Gallery, query_vec: np.ndarray, k: int) -> RankedResult:
    """Exhaustive top-k by cosine against every gallery row."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    q = np.asarray(query_vec, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != gallery.vectors.shape[1]:
        raise ShapeError(f"query vector shape {q.shape} does not match gallery")
    scores = gallery.vectors.astype(np.float64) @ q
    ids = np.array(gallery.ids)
    order = np.lexsort((ids, -scores))[: min(k, len(gallery))]
    return RankedResult([(str(ids[i]), float(scores[i])) for i in order])


def _check_metric_inputs(results: list[RankedResult], queries: list[Query], k: int) -> None:
    if len(results) != len(queries):
        raise ShapeError(f"{len(results)} results for {len(queries)} queries")
    if not queries:
        raise ShapeError("no queries to score")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")


def recall_at_k(results: list[RankedResult], queries: list[Query], k: int) -> float:
    """Fraction of queries with at least one target in the top k."""
    _check_metric_inputs(results, queries, k)
    hits = 0
    for res, query in zip(results, queries):
        top = res.ids()[:k]
        if any(i in query.target_ids for i in top):
            hits += 1
    return hits / len(queries)


def average_precision_at_k(result: RankedResult, query: Query, k: int) -> float:
    """Truncated AP with multi-target normalizer min(k, number of targets)."""
    top = result.ids()[:k]
    hits = 0
    precision_sum = 0.0
    for r, item in enumerate(top, start=1):
        if item in query.target_ids:
            hits += 1
            precision_sum += hits / r
    return precision_sum / min(k, len(query.target_ids))


def map_at_k(results: list[RankedResult], queries: list[Query], k: int) -> float:
    _check_metric_inputs(results, queries, k)
    return sum(
        average_precision_at_k(res, q, k) for res, q in zip(results, queries)
    ) / len(queries)


def evaluate_task(
    task: EvalTask,
    mappers: Mappers | None,
    composer: PromptComposer | None,
    gamma: float | None = None,
    mode: str = "composed",
    slerp_t: float = 0.5,
    per_query: bool = False,
) -> dict:
    """Score every query and aggregate the configured metrics into a report."""
    if mode != "composed" and mode not in BASELINE_MODES:
        raise ParameterError(f"unknown evaluation mode {mode!r}")
    if mode == "composed" and (mappers is None or composer is None):
        raise ParameterError("composed evaluation needs mappers and a composer")
    gamma = task.gamma if gamma is None else gamma
    max_k = max(task.k_values)

    results = []
    for query in task.queries:
        if mode == "composed":
            vec = compose_query(query, mappers, composer, gamma)
        else:
            vec = baseline_compose(query, mode, slerp_t)
        results.append(rank(task.gallery, vec, max_k))

    report: dict = {
        "mode": mode,
        "gamma": gamma,
        "n_queries": len(task.queries),
        "metrics": {},
    }
    for k in task.k_values:
        if "recall" in task.metrics:
            report["metrics"][f"recall@{k}"] = recall_at_k(results, task.queries, k)
        if "map" in task.metrics:
            report["metrics"][f"map@{k}"] = map_at_k(results, task.queries, k)
    if per_query:
        report["per_query"] = [
            {
                "query_id": q.query_id,
                "top": [[i, s] for i, s in res.items[: min(10, max_k)]],
                "targets": sorted(q.target_ids),
            }
            for q, res in zip(task.queries, results)
        ]
    return report
