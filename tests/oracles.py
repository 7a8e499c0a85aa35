"""Float64 reference implementations used as test oracles.

The composer and mapper forwards, the mappers' flat parameter layout and
R@K/mAP@K are the benchmark's oracle, ``bench/oracle.py``: it imports nothing
from the package and re-derives the frozen composer from its seed by the
documented draw order. This module puts ``bench/`` on ``sys.path`` and hands
that oracle, and the benchmark's span tracer, to the tests.

The references here are of two kinds. Independent ones are written against
the math directly (plain numpy and loops) and share no code with the package:
the loss loops, finite differences, AdamW, subset selection, tuple sampling and
``ref_rank``. The rest only pin behaviour: ``ref_read_jsonl`` and
``ref_read_ids`` are frozen copies of the readers' line path, and
``ref_gallery_vectors`` replays the generator's streams but composes with the
package's own composer.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from cirmap.autodiff import Tensor
from cirmap.composer import PromptComposer
from cirmap.errors import FormatError, InconsistentSpecError, ParameterError, ShapeError
from cirmap.retrieval import Gallery

BENCH_DIR = str(Path(__file__).resolve().parents[1] / "bench")
if BENCH_DIR not in sys.path:
    sys.path.append(BENCH_DIR)
import oracle  # noqa: E402
import spans  # noqa: E402


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0), floor)
    return float(np.max(np.abs(a - b), initial=0.0) / denom)


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# losses, written per the loss definitions with explicit loops


def _log_softmax_row(row: np.ndarray) -> np.ndarray:
    m = row.max()
    return row - m - math.log(np.exp(row - m).sum())


def ref_info_nce(a: np.ndarray, b: np.ndarray, tau: float) -> float:
    n = a.shape[0]
    sims = a @ b.T
    total = 0.0
    for i in range(n):
        total -= _log_softmax_row(sims[i] / tau)[i] / n
    for i in range(n):
        total -= _log_softmax_row(sims[:, i] / tau)[i] / n
    return float(total)


def ref_mse(a: np.ndarray, b: np.ndarray) -> float:
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.mean(diff * diff))


def ref_sset(images: np.ndarray, supplement: np.ndarray, idx: list[int], tau: float) -> float:
    if len(idx) == 0:
        return 0.0
    return ref_info_nce(images[idx], supplement[idx], tau)


def ref_pipeline_losses(
    images: np.ndarray,
    texts: np.ndarray,
    cw: dict,
    mappers: dict,
    tau: float,
    alpha: float,
    beta: float,
    selection: list[int],
) -> dict[str, float]:
    """Full float64 forward: mapper tokens -> composed prompts -> all losses.
    ``cw`` and ``mappers`` are the oracle's composer and mapper weights."""
    pseudo = oracle.map_rows(mappers["pseudo"], images)
    supplement = oracle.map_rows(mappers["supplement"], texts)
    composed_pseudo = oracle.compose_rows(cw, "photo_of", [pseudo])
    composed_suppl = oracle.compose_rows(cw, "photo_of", [supplement])
    ori = ref_info_nce(images, composed_pseudo, tau)
    itcon = ref_info_nce(images, composed_suppl, tau)
    mse = ref_mse(composed_pseudo, composed_suppl)
    ts = itcon + alpha * mse
    ss = ref_sset(images, composed_suppl, selection, tau)
    return {
        "ori": ori,
        "itcon": itcon,
        "mse": mse,
        "ts": ts,
        "ss": ss,
        "deg": ori + ts + beta * ss,
    }


# ---------------------------------------------------------------------------
# finite differences


def fd_gradient(fn, vec: np.ndarray, step: float = 1e-3) -> np.ndarray:
    grad = np.zeros_like(vec)
    for i in range(vec.size):
        up = vec.copy()
        up[i] += step
        down = vec.copy()
        down[i] -= step
        grad[i] = (fn(up) - fn(down)) / (2.0 * step)
    return grad


# ---------------------------------------------------------------------------
# world generation


def ref_sample_separated_tuples(
    rng: np.random.Generator, n: int, n_attr: int, n_values: int, min_hamming: int
) -> np.ndarray:
    """Rejection sampling that scans every accepted tuple per candidate."""
    accepted = np.empty((n, n_attr), dtype=np.int64)
    count = 0
    attempts = 0
    while count < n:
        attempts += 1
        if attempts > 500 * n:
            raise InconsistentSpecError("cannot place the tuples")
        cand = rng.integers(0, n_values, size=n_attr)
        if count:
            dist = np.sum(accepted[:count] != cand, axis=1)
            if int(dist.min()) < min_hamming:
                continue
        accepted[count] = cand
        count += 1
    return accepted


def ref_gallery_vectors(spec, gallery_tuples: np.ndarray, block_rows: int) -> np.ndarray:
    """A world's gallery as composed before the per-tuple dedup: blocks of
    ``block_rows`` rows, each row's two-slot anchor composed from its own
    descriptor. It replays the generator's seeded streams (the projections,
    and the training images' noise before the gallery's), and composes with
    the package's composer, since what it checks is bytes, not math.
    """
    def stream(k):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence([spec.seed, k])))

    rng_proj, rng_noise = stream(0), stream(2)
    n_attr, n_values, dim = spec.n_attributes, spec.n_values_per_attribute, spec.dim
    p_text = rng_proj.standard_normal((dim, n_attr * n_values))
    p_image = rng_proj.standard_normal((dim, n_attr * n_values))
    rng_noise.standard_normal((spec.n_train_pairs, dim))
    composer = PromptComposer(dim, spec.composer_seed)

    def unit(m):
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    out = np.empty((len(gallery_tuples), dim), dtype=np.float32)
    for lo in range(0, len(gallery_tuples), block_rows):
        block = gallery_tuples[lo : lo + block_rows]
        one_hot = np.zeros((len(block), n_attr * n_values))
        one_hot[np.arange(len(block))[:, None], np.arange(n_attr) * n_values + block] = 1.0
        gap = unit(one_hot @ p_image.T)
        noise = rng_noise.standard_normal(gap.shape)
        rows = Tensor(unit(one_hot @ p_text.T).astype(np.float32))
        anchors = composer.compose_rows("photo_of_that", [rows, rows]).values
        raw = anchors.astype(np.float64) + spec.modality_gap * gap + spec.noise_scale * noise
        out[lo : lo + len(block)] = unit(raw)
    return out


# ---------------------------------------------------------------------------
# AdamW per named parameter, each with its own moments


class RefAdamState:
    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        # Each updated parameter in float64, before its cast to float32.
        self.theta: dict[str, np.ndarray] = {}
        self.step = 0


def ref_adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: RefAdamState,
    lr_t: float,
    weight_decay: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> dict[str, np.ndarray]:
    """Decoupled-weight-decay Adam on float32 arrays, in 64-bit math. A
    parameter without a gradient is left as it is and its moments do not
    advance; the step counter advances once per call."""
    state.step += 1
    t = state.step
    out = {}
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            out[name] = p
            continue
        g = np.asarray(g, dtype=np.float64)
        theta = p.astype(np.float64)
        theta -= lr_t * weight_decay * theta
        m = state.m.get(name, np.zeros_like(g))
        v = state.v.get(name, np.zeros_like(g))
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta -= lr_t * m_hat / (np.sqrt(v_hat) + eps)
        state.theta[name] = theta
        out[name] = theta.astype(np.float32)
    return out


# ---------------------------------------------------------------------------
# brute-force subset selection (independent of cirmap.mining)


def brute_force_select(images: np.ndarray, texts: np.ndarray, sigma: float, lam: float):
    v = np.asarray(images, dtype=np.float64)
    w = np.asarray(texts, dtype=np.float64)
    n = v.shape[0]
    argmax, mask_f, mask_s, sims = [], [], [], []
    for i in range(n):
        logits = [float(v[i] @ w[j]) / sigma for j in range(n)]
        m = max(logits)
        exps = [math.exp(z - m) for z in logits]
        probs = [e / sum(exps) for e in exps]
        best = 0
        for j in range(1, n):
            if probs[j] > probs[best]:
                best = j
        argmax.append(best)
        mask_f.append(best != i)
        s = float(w[best] @ w[i])
        sims.append(s)
        mask_s.append(s >= lam)
    selected = [i for i in range(n) if mask_f[i] and mask_s[i]]
    return {
        "argmax": argmax,
        "mask_f": mask_f,
        "mask_s": mask_s,
        "s": sims,
        "selected": selected,
    }


# ---------------------------------------------------------------------------
# retrieval


def ref_rank(gallery: Gallery, query_vec: np.ndarray, k: int) -> list[tuple[str, float]]:
    """The per-query ranker: every row scored on its own in float64 (the sum
    of its products with the query), one Python sort by descending score,
    NaN last, then by the exact id string."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    q = np.asarray(query_vec, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != gallery.vectors.shape[1]:
        raise ShapeError(f"query vector shape {q.shape} does not match gallery")
    scores = [float(np.sum(row.astype(np.float64) * q)) for row in gallery.vectors]
    ids = list(gallery.ids)
    order = sorted(
        range(len(ids)),
        key=lambda i: (math.isnan(scores[i]), 0.0 if math.isnan(scores[i]) else -scores[i], ids[i]),
    )
    return [(ids[i], scores[i]) for i in order[:k]]


def ranked_items(gallery: Gallery, rows: np.ndarray, scores: np.ndarray) -> list[list]:
    """``rank``'s [Q x k] row and score blocks as one list of (id, score)
    pairs per query, the form :func:`ref_rank` returns."""
    return [list(zip(gallery.ids[r], s.tolist())) for r, s in zip(rows, scores)]


# ---------------------------------------------------------------------------
# files


def ref_read_jsonl(path: Path) -> list:
    """The line reader that decodes every line with ``json.loads``."""
    out = []
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            text = line.decode("utf-8").strip()
            if text:
                out.append(json.loads(text))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}:{lineno}: malformed JSON line: {exc}") from exc
    return out


def ref_read_ids(path: Path, count: int) -> list[str]:
    """The id-file reader that decodes every line with ``json.loads`` and
    then checks the count and each ``{"id": ..., "row": r}`` record."""
    rows = ref_read_jsonl(path)
    if len(rows) != count:
        raise FormatError(f"{path}: {len(rows)} ids for {count} rows")
    ids = []
    for r, row in enumerate(rows):
        if type(row) is not dict or len(row) != 2 or row.get("row") != r or "id" not in row:
            raise FormatError(f"{path}: malformed id record at line {r}")
        ids.append(str(row["id"]))
    return ids
