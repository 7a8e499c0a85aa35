"""Query composition, exact top-k cosine retrieval, and R@K / mAP@K metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .composer import PromptComposer
from .errors import ParameterError, ShapeError
from .fileio import IdList, NumberedIds
from .mappers import Mappers, map_rows

BASELINE_MODES = ("image_only", "text_only", "average")


@dataclass
class Gallery:
    """Gallery rows and their ids. The ids are taken as unique: ``load_task``
    checks its id file for a repeat."""

    ids: NumberedIds | IdList  # any other sequence of str is held as an IdList
    vectors: np.ndarray  # [G x d] unit rows

    def __post_init__(self):
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float32)
        if self.vectors.ndim != 2 or len(self.ids) != self.vectors.shape[0]:
            raise ShapeError("gallery ids and vectors disagree")
        if not isinstance(self.ids, NumberedIds):
            self.ids = IdList.of(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def eval_settings_problem(metrics: list[str], k_values: list[int]):
    """The first evaluation setting that breaks its rule, as (key, what is
    wrong), or None. The config's eval section and ``task.json`` share it."""
    unknown = sorted(set(metrics) - {"recall", "map"})
    if unknown:
        return "metrics", f"names unknown metrics {unknown}"
    if not k_values or min(k_values) < 1:
        return "k_values", f"must be a non-empty list of integers >= 1, got {k_values}"
    return None


@dataclass
class EvalTask:
    """The queries as columns: one id list or [Q x d] block per field, each
    query's target gallery rows, ascending and unique, and the metrics and K
    they are scored at."""

    gallery: Gallery
    query_ids: list[str]
    reference_ids: list[str]
    condition_ids: list[str]
    reference_rows: np.ndarray  # [Q x d]
    condition_rows: np.ndarray  # [Q x d]
    targets: list[np.ndarray]
    metrics: list[str]
    k_values: list[int]


def compose_query(
    reference_rows: np.ndarray,
    condition_rows: np.ndarray,
    mappers: Mappers,
    composer: PromptComposer,
    gamma: float,
) -> np.ndarray:
    """Compose a [Q x d] block of queries from their reference and condition rows.

    Each reference pseudo token is mixed with its prompted supplement token as
    a bare convex combination (tokens are free vectors, so no renormalization)
    and inserted into the two-slot template together with the condition
    embedding. A single query is a batch of one.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma}")
    ref = Tensor(reference_rows)
    cond = Tensor(condition_rows)
    pseudo_token = map_rows(mappers.pseudo, ref)
    prompted = composer.compose_rows("photo_of", [cond])
    supplement_token = map_rows(mappers.supplement, prompted)
    token = ad.add(
        ad.scale(pseudo_token, gamma), ad.scale(supplement_token, 1.0 - gamma)
    )
    return composer.compose_rows("photo_of_that", [token, cond]).values


def baseline_compose(
    reference_rows: np.ndarray, condition_rows: np.ndarray, mode: str
) -> np.ndarray:
    """Training-free compositions of a [Q x d] block, used as comparison rows."""
    if mode not in BASELINE_MODES:
        raise ParameterError(f"unknown baseline mode {mode!r}")
    if mode == "image_only":
        return np.array(reference_rows, dtype=np.float32)
    if mode == "text_only":
        return np.array(condition_rows, dtype=np.float32)
    total = np.asarray(reference_rows, np.float64) + np.asarray(condition_rows, np.float64)
    return (total / np.linalg.norm(total, axis=1, keepdims=True)).astype(np.float32)


# Gallery rows per float32 GEMM, and candidate pairs per float64 rescoring
# step. The first block also sets each query's first candidate floor.
_SCORE_BLOCK_ROWS = 8192
_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53  # unit roundoff of float64
# Above this, float32 scores may overflow; such queries keep every row.
_SCORE_LIMIT = 2.0**100


def _gamma(d: int, u: float) -> float:
    """Higham's gamma_d = d u / (1 - d u): the relative error bound of a
    d-term dot product in working precision u, in any summation order."""
    return d * u / (1.0 - d * u)


@np.errstate(over="ignore", invalid="ignore")
def _score_error_bounds(vectors: np.ndarray, q64: np.ndarray) -> np.ndarray:
    """Per query row, a bound E on |float32 GEMM score - float64 row score|
    that holds for every gallery row, or inf where no bound holds.

    Three relative terms, each times max ||g|| ||q||: the float32 dot
    product, the float32 cast of the query and the float64 row sum. An
    absolute term covers underflow, with subnormals flushed or not.
    """
    d = q64.shape[1]
    g32 = _gamma(d, _U32)
    # A float32 sum of squares is low by at most gamma_d relative, plus
    # d * 2**-126 for squares lost to underflow.
    sq_max = float(np.einsum("ij,ij->i", vectors, vectors).max(initial=0.0))
    g_norm = np.sqrt((sq_max + d * 2.0**-126) / (1.0 - 2.0 * g32))
    q_norm = np.sqrt(np.einsum("ij,ij->i", q64, q64))
    # The factor 1.001 covers the rounding of this bound's own arithmetic.
    rel = (g32 * (1.0 + _U32) + _U32 + _gamma(d, _U64)) * 1.001
    bound = rel * g_norm * q_norm + d * 2.0**-120 * (1.0 + g_norm + q_norm)
    trusted = (q_norm < _SCORE_LIMIT) & (g_norm * q_norm < _SCORE_LIMIT)
    return np.where(trusted, bound, np.inf)


def _floor(kth: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Per query, the float32 floor ``kth - 2 bound`` rounded toward -inf, or
    -inf where the bound is infinite or ``kth`` is NaN."""
    floor64 = kth.astype(np.float64) - 2.0 * bound
    floor = floor64.astype(np.float32)
    floor = np.where(floor > floor64, np.nextafter(floor, -np.inf), floor)
    return np.where(np.isinf(bound) | np.isnan(kth), np.float32(-np.inf), floor)


@np.errstate(over="ignore", invalid="ignore")
def _candidates(vectors: np.ndarray, q64: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat (gallery row, query row) pairs that hold each query's exact top k.

    One float32 GEMM per block of gallery rows. If k rows score at least c
    in float32, they score at least c - E in float64, so every row of the
    float64 top k scores at least c - 2E in float32. The first floor takes c
    as the k-th float32 score in the first block, the second as the k-th
    among the rows that pass the first: those that pass both, NaN included,
    are the candidates. A query without a finite bound keeps every row.
    """
    n = vectors.shape[0]
    rows = max(_SCORE_BLOCK_ROWS, k)  # the first block holds at least k rows
    bound = _score_error_bounds(vectors, q64)
    q32 = q64.astype(np.float32)
    hits, floor = [], None
    for start in range(0, n, rows):
        scores = vectors[start : start + rows] @ q32.T  # [block x Q]
        if floor is None:
            floor = _floor(np.partition(scores, scores.shape[0] - k, axis=0)[-k], bound)
        r, j = np.divmod(np.flatnonzero(~(scores < floor)), len(floor))
        hits.append((r + start, j, scores[r, j]))
    hit_rows, hit_queries, hit_scores = (np.concatenate(column) for column in zip(*hits))
    # Each query has at least k hits: the first block's top k pass its floor.
    order = np.lexsort((-hit_scores, hit_queries))  # descending, NaN last
    kth = hit_scores[order[np.searchsorted(hit_queries[order], np.arange(len(floor))) + k - 1]]
    keep = ~(hit_scores < _floor(kth, bound)[hit_queries])
    return hit_rows[keep], hit_queries[keep]


@np.errstate(over="ignore", invalid="ignore")
def rank(gallery: Gallery, query_rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k inner-product search of each query row against every gallery row.

    Returns ``(rows, scores)``: a [Q x k] block of gallery rows and the
    matching [Q x k] float64 scores, with k capped at the gallery's size.
    A float32 GEMM in row blocks narrows the gallery to candidates with a
    rigorous error bound E: if k rows score at least c in float32, every
    float64 top-k row scores at least c - 2E in float32. So c is first the
    k-th score of the first block, then the k-th among the rows that pass
    (see :func:`_candidates`). The candidates of all queries are scored in
    float64 and sorted once. A score is the float64 sum of one gallery row
    times the query row, so it depends on those two rows alone: not on the
    rest of the batch, the candidate set, the block size or the BLAS. Order
    is descending score, ties broken by ascending id, NaN last.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    q64 = np.asarray(query_rows, dtype=np.float64)
    if q64.ndim != 2 or q64.shape[1] != gallery.vectors.shape[1]:
        raise ShapeError(f"query block shape {q64.shape} does not match gallery")
    k = min(k, len(gallery))
    if k == 0:  # an empty gallery
        return np.empty((len(q64), 0), np.intp), np.empty((len(q64), 0))
    cand, queries = _candidates(gallery.vectors, q64, k)
    scores = np.empty(len(cand))
    # In pieces, so no step holds a float64 copy of the gallery.
    for lo in range(0, len(cand), _SCORE_BLOCK_ROWS):
        part = slice(lo, lo + _SCORE_BLOCK_ROWS)
        products = gallery.vectors[cand[part]].astype(np.float64)
        products *= q64[queries[part]]
        scores[part] = products.sum(axis=1)
    order = np.lexsort((-scores, queries))  # by query, then descending, NaN last
    q, s = queries[order], scores[order]
    # Each run of equal scores (NaN equal to NaN) within one query goes in
    # ascending id order, and ids are read for no other row. An object array
    # compares the id strings themselves, trailing NULs too.
    same = (q[1:] == q[:-1]) & ((s[1:] == s[:-1]) | (np.isnan(s[1:]) & np.isnan(s[:-1])))
    tied = np.concatenate(([False], same, [False]))  # place i ties place i - 1
    at = np.flatnonzero(tied[:-1] | tied[1:])
    ids = np.array(gallery.ids[cand[order[at]]], dtype=object)
    order[at] = order[at[np.lexsort((ids, np.cumsum(~tied[:-1])[at]))]]
    top = order[np.searchsorted(q, np.arange(len(q64)))[:, None] + np.arange(k)]
    return cand[top], scores[top]


def ranking_metrics(
    rows: np.ndarray, targets: list[np.ndarray], metrics: list[str], k_values: list[int]
) -> dict[str, float]:
    """``recall@K`` and ``map@K`` of ranked gallery rows against each query's
    targets (ascending, unique rows), all from one [Q x k] hit matrix.

    recall@K is the share of queries with a target in the top K. AP@K sums
    the precision at each hit in the top K over min(K, number of targets).
    A ranking narrower than K is the whole gallery, as :func:`rank` gives it.
    The terms are added rank by rank, then query by query, so each value is
    the sum a loop over the ranked lists would make.
    """
    if len(rows) != len(targets):
        raise ShapeError(f"{len(rows)} rankings for {len(targets)} queries")
    if not len(targets):
        raise ShapeError("no queries to score")
    if min(k_values) < 1:
        raise ParameterError(f"k must be >= 1, got {min(k_values)}")
    # A (query, row) pair as one code, so one sorted search finds every hit.
    n_targets = np.array([len(t) for t in targets])
    flat = np.concatenate(targets)
    stride = 1 + max(int(rows.max(initial=0)), int(flat.max(initial=0)))
    query = np.arange(len(targets))
    hits = np.isin(rows + stride * query[:, None], flat + stride * np.repeat(query, n_targets))
    precision = np.cumsum(hits, axis=1) / np.arange(1, hits.shape[1] + 1)
    ap_sums = np.cumsum(np.where(hits, precision, 0.0), axis=1)
    out = {}
    for k in k_values:
        top = min(k, hits.shape[1])
        if "recall" in metrics:
            out[f"recall@{k}"] = int(hits[:, :top].any(axis=1).sum()) / len(targets)
        if "map" in metrics:
            # min(top, n) == min(k, n), as no query has more targets than the
            # gallery has rows; a k past numpy's integer range fails np.minimum
            ap = ap_sums[:, top - 1] / np.minimum(top, n_targets)
            out[f"map@{k}"] = float(np.cumsum(ap)[-1]) / len(targets)
    return out


def evaluate_task(
    task: EvalTask,
    mappers: Mappers | None,
    composer: PromptComposer | None,
    gamma: float,
    mode: str = "composed",
    per_query: bool = False,
) -> dict:
    """Score every query at mixing ratio ``gamma`` and aggregate the task's
    metrics into a report."""
    if mode != "composed" and mode not in BASELINE_MODES:
        raise ParameterError(f"unknown evaluation mode {mode!r}")
    if mode == "composed" and (mappers is None or composer is None):
        raise ParameterError("composed evaluation needs mappers and a composer")
    if not task.query_ids:
        raise ShapeError("no queries to score")
    # Checked in every mode: a baseline ignores gamma but reports it.
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma}")
    max_k = max(task.k_values)

    refs, conds = task.reference_rows, task.condition_rows
    if mode == "composed":
        block = compose_query(refs, conds, mappers, composer, gamma)
    else:
        block = baseline_compose(refs, conds, mode)
    rows, scores = rank(task.gallery, block, max_k)

    report: dict = {
        "mode": mode,
        "gamma": gamma,
        "n_queries": len(task.query_ids),
        "metrics": ranking_metrics(rows, task.targets, task.metrics, task.k_values),
    }
    if per_query:
        top = min(10, max_k)
        ids = task.gallery.ids
        report["per_query"] = [
            {
                "query_id": query_id,
                "top": [list(pair) for pair in zip(ids[top_rows], top_scores.tolist())],
                "targets": sorted(ids[target_rows]),
            }
            for query_id, top_rows, top_scores, target_rows in zip(
                task.query_ids, rows[:, :top], scores[:, :top], task.targets
            )
        ]
    return report
