"""Output checks for the benchmark, written apart from the program.

Nothing here imports ``cirmap``: files are read by their documented layouts,
the frozen composer is re-derived from its seed by the draw order
``composer.py`` documents as part of the format, and every query vector is
recomputed in float64 from the checkpoint's flat parameter vector. Each check
returns a list of problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

EMB_HEADER = struct.Struct("<4sIQI")
EMB_MAGIC = b"DEGE"
TEMPLATES = ("photo_of", "photo_of_that")  # sorted names, the draw order
TEMPLATE_INCREMENT = 0.25
MAX_SLOTS = 2
MAPPER_LAYOUT = (("w1", "dh"), ("b1", "h"), ("w2", "hh"), ("b2", "h"), ("w3", "hd"), ("b3", "d"))
# Cosine scores of the program (float32 per op) and of the float64 oracle
# agree to about 1e-6 at d=256; two gallery rows whose oracle scores lie
# closer than this are a float32 tie and may come out in either order.
SCORE_TOL = 2e-5
UNIT_NORM_TOL = 1e-5


# ---------------------------------------------------------------------------
# file formats


def read_jsonl(path: Path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_emb(path: Path) -> tuple[np.ndarray, list[str]]:
    """Embedding file plus its companion ``.ids.jsonl``."""
    path = Path(path)
    raw = path.read_bytes()
    magic, _version, count, dim = EMB_HEADER.unpack_from(raw)
    if magic != EMB_MAGIC or len(raw) != EMB_HEADER.size + 4 * count * dim:
        raise ValueError(f"{path}: not an embedding file")
    matrix = np.frombuffer(raw, dtype="<f4", offset=EMB_HEADER.size).reshape(count, dim)
    ids = [row["id"] for row in read_jsonl(path.with_suffix(".ids.jsonl"))]
    if len(ids) != count:
        raise ValueError(f"{path}: {len(ids)} ids for {count} rows")
    return matrix, ids


# ---------------------------------------------------------------------------
# float64 model


def mapper_parameters(dim: int, hidden: int) -> int:
    """Parameters of one mapper d -> h -> h -> d."""
    return 2 * hidden * dim + hidden * hidden + 2 * hidden + dim


def composer_weights(dim: int, seed: int) -> dict:
    """Frozen composer weights, drawn in the documented order from PCG64(seed)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    hidden, in_dim = 2 * dim, (1 + MAX_SLOTS) * dim
    base = rng.standard_normal(dim)
    base /= np.linalg.norm(base)
    templates = {}
    for name in TEMPLATES:
        extra = rng.standard_normal(dim)
        extra /= np.linalg.norm(extra)
        v = base + TEMPLATE_INCREMENT * extra
        templates[name] = (v / np.linalg.norm(v)).astype(np.float32).astype(np.float64)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(np.float32).astype(np.float64)

    w1 = uniform((in_dim, hidden), in_dim)
    b1 = uniform((hidden,), in_dim)
    w2 = uniform((hidden, dim), hidden)
    return {"templates": templates, "w1": w1, "b1": b1, "w2": w2}


def compose_rows(weights: dict, template: str, slots: list[np.ndarray]) -> np.ndarray:
    n, d = slots[0].shape
    blocks = [np.tile(weights["templates"][template], (n, 1))] + list(slots)
    blocks += [np.zeros((n, d))] * (1 + MAX_SLOTS - len(blocks))
    out = np.tanh(np.concatenate(blocks, axis=1) @ weights["w1"] + weights["b1"]) @ weights["w2"]
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def split_mappers(flat: np.ndarray, dim: int, hidden: int) -> dict[str, dict]:
    """Pseudo then supplement mapper, each in MAPPER_LAYOUT order."""
    sizes = {"d": dim, "h": hidden}
    flat = flat.astype(np.float64)
    out, offset = {}, 0
    for role in ("pseudo", "supplement"):
        weights = {}
        for name, dims in MAPPER_LAYOUT:
            shape = tuple(sizes[c] for c in dims)
            size = math.prod(shape)
            weights[name] = flat[offset : offset + size].reshape(shape)
            offset += size
        out[role] = weights
    if offset != flat.size:
        raise ValueError(f"flat parameter vector has {flat.size} values, layout needs {offset}")
    return out


def map_rows(w: dict, x: np.ndarray) -> np.ndarray:
    h1 = np.tanh(x @ w["w1"] + w["b1"])
    h2 = np.tanh(h1 @ w["w2"] + w["b2"])
    return h2 @ w["w3"] + w["b3"]


def composed_queries(mappers: dict, weights: dict, refs, conds, gamma: float) -> np.ndarray:
    pseudo = map_rows(mappers["pseudo"], refs)
    supplement = map_rows(mappers["supplement"], compose_rows(weights, "photo_of", [conds]))
    token = gamma * pseudo + (1.0 - gamma) * supplement
    return compose_rows(weights, "photo_of_that", [token, conds])


def baseline_queries(mode: str, refs, conds) -> np.ndarray:
    if mode == "image_only":
        return refs
    if mode == "text_only":
        return conds
    raise ValueError(f"no oracle for mode {mode!r}")


def rank_all(scores: np.ndarray, id_keys: np.ndarray) -> np.ndarray:
    """Brute-force order: descending score, then ascending id."""
    return np.lexsort((id_keys, -scores))


def recall_at_k(tops: list[list[str]], targets: list[set], k: int) -> float:
    return sum(any(i in t for i in top[:k]) for top, t in zip(tops, targets)) / len(tops)


def map_at_k(tops: list[list[str]], targets: list[set], k: int) -> float:
    total = 0.0
    for top, t in zip(tops, targets):
        hits, precision = 0, 0.0
        for r, item in enumerate(top[:k], start=1):
            if item in t:
                hits += 1
                precision += hits / r
        total += precision / min(k, len(t))
    return total / len(tops)


def metric_table(tops, targets, k_values, metrics) -> dict[str, float]:
    out = {}
    for k in k_values:
        if "recall" in metrics:
            out[f"recall@{k}"] = recall_at_k(tops, targets, k)
        if "map" in metrics:
            out[f"map@{k}"] = map_at_k(tops, targets, k)
    return out


# ---------------------------------------------------------------------------
# evaluation


class EvalOracle:
    """Gallery, queries and frozen weights of one data directory, in float64."""

    def __init__(self, data_dir: Path, composer_seed: int):
        data_dir = Path(data_dir)
        self.task = read_json(data_dir / "task.json")
        gallery, self.gallery_ids = read_emb(data_dir / self.task["gallery"])
        self.gallery = gallery.astype(np.float64)
        conditions, cond_ids = read_emb(data_dir / self.task["conditions"])
        self.queries = read_jsonl(data_dir / self.task["queries"])
        row = {i: r for r, i in enumerate(self.gallery_ids)}
        cond_row = {i: r for r, i in enumerate(cond_ids)}
        self.refs = self.gallery[[row[q["reference_id"]] for q in self.queries]]
        self.conds = conditions.astype(np.float64)[
            [cond_row[q["condition_id"]] for q in self.queries]
        ]
        self.targets = [set(q["target_ids"]) for q in self.queries]
        # Rank of each id in ascending string order: the tie key.
        self.id_keys = np.empty(len(self.gallery_ids), dtype=np.int64)
        self.id_keys[np.argsort(np.array(self.gallery_ids))] = np.arange(len(self.gallery_ids))
        self.weights = composer_weights(self.task["dim"], composer_seed)

    def query_vectors(self, mode: str, gamma: float, checkpoint: Path | None) -> np.ndarray:
        if mode != "composed":
            return baseline_queries(mode, self.refs, self.conds)
        manifest = read_json(Path(checkpoint).with_suffix(".json"))
        flat, _ = read_emb(Path(checkpoint).with_suffix(".emb"))
        mappers = split_mappers(flat[0], manifest["dim"], manifest["hidden"])
        return composed_queries(mappers, self.weights, self.refs, self.conds, gamma)

    def check_report(
        self, report_path: Path, mode: str, gamma: float, checkpoint: Path | None = None
    ) -> list[str]:
        """Compare one ``evaluate --per-query --mode mode --gamma gamma`` report
        with the oracle."""
        report = read_json(report_path)
        name = Path(report_path).name
        if (report.get("mode"), report.get("gamma")) != (mode, gamma):
            return [f"{name}: reports mode {report.get('mode')!r} gamma {report.get('gamma')!r}, "
                    f"asked for {mode!r} {gamma!r}"]  # fmt: skip
        problems = []
        per_query = report.get("per_query", [])
        if len(per_query) != len(self.queries):
            return [f"{name}: {len(per_query)} per-query rows for {len(self.queries)} queries"]
        vectors = self.query_vectors(mode, gamma, checkpoint)
        scores = self.gallery @ vectors.T  # [G x Q]
        index = {i: r for r, i in enumerate(self.gallery_ids)}
        k_top = min(10, max(self.task["k_values"]))
        program_tops, oracle_tops, swapped = [], [], 0
        for j, (row, query) in enumerate(zip(per_query, self.queries)):
            if row["query_id"] != query["query_id"]:
                problems.append(f"{name}: row {j} is {row['query_id']}, expected {query['query_id']}")
                continue
            col = scores[:, j]
            oracle_top = [self.gallery_ids[i] for i in rank_all(col, self.id_keys)[:k_top]]
            program_top = [item[0] for item in row["top"]]
            if len(program_top) != k_top or len(set(program_top)) != k_top:
                problems.append(f"{name}: {query['query_id']} top list is not {k_top} distinct ids")
                continue
            for pos, ((pid, pscore), oid) in enumerate(zip(row["top"], oracle_top)):
                if pid not in index:
                    problems.append(f"{name}: {query['query_id']} ranks unknown id {pid!r}")
                    break
                exact = col[index[pid]]
                if abs(pscore - exact) > SCORE_TOL:
                    problems.append(
                        f"{name}: {query['query_id']} {pid} score {pscore!r}, oracle {exact!r}"
                    )
                if pid != oid:
                    gap = abs(exact - col[index[oid]])
                    if gap > SCORE_TOL:
                        problems.append(
                            f"{name}: {query['query_id']} rank {pos + 1} is {pid}, oracle has "
                            f"{oid} (score gap {gap:.3e} is no float32 tie)"
                        )
                        break
                    swapped += 1
            program_tops.append(program_top)
            oracle_tops.append(oracle_top)
        if problems:
            return problems

        reported = report["metrics"]
        k_values, metrics = self.task["k_values"], self.task["metrics"]
        recomputed = metric_table(program_tops, self.targets, k_values, metrics)
        from_oracle = metric_table(oracle_tops, self.targets, k_values, metrics)
        for key, value in recomputed.items():
            if not math.isclose(reported.get(key, math.nan), value, rel_tol=0, abs_tol=1e-12):
                problems.append(f"{name}: {key} reported {reported.get(key)!r}, recomputed {value!r}")
            if not swapped and not math.isclose(from_oracle[key], value, rel_tol=0, abs_tol=1e-12):
                problems.append(f"{name}: {key} reported {value!r}, oracle {from_oracle[key]!r}")
        recalls = [reported[f"recall@{k}"] for k in sorted(k_values) if f"recall@{k}" in reported]
        if any(b < a for a, b in zip(recalls, recalls[1:])):
            problems.append(f"{name}: R@K decreases in K: {recalls}")
        return problems


# ---------------------------------------------------------------------------
# training and world outputs


def check_training(run_dir: Path, train_cfg: dict, world_dim: int) -> list[str]:
    """metrics.jsonl identities and schedule, and the checkpoint's size."""
    run_dir = Path(run_dir)
    problems = []
    rows = read_jsonl(run_dir / "metrics.jsonl")
    steps = train_cfg["steps"]
    if len(rows) != steps:
        problems.append(f"metrics.jsonl has {len(rows)} rows for {steps} steps")
    alpha, beta = train_cfg.get("alpha", 1.0), train_cfg.get("beta", 2.0)
    base_lr, warmup = train_cfg.get("learning_rate", 5e-4), train_cfg["warmup_steps"]
    keys = ("lr", "L_ori", "L_itcon", "L_mse", "L_ts", "L_ss", "L_deg")
    for i, row in enumerate(rows):
        if row.get("step") != i or not all(math.isfinite(row.get(k, math.nan)) for k in keys):
            problems.append(f"metrics row {i} is out of order or not finite: {row}")
            break
        ts = row["L_itcon"] + alpha * row["L_mse"]
        deg = row["L_ori"] + row["L_ts"] + beta * row["L_ss"]
        # Each term is a float32 result; a sum of float32 terms agrees to a
        # few units in the last place of the largest term.
        if abs(row["L_ts"] - ts) > 1e-6 * (abs(row["L_itcon"]) + abs(alpha * row["L_mse"]) + 1e-30):
            problems.append(f"step {i}: L_ts {row['L_ts']!r} != L_itcon + alpha*L_mse = {ts!r}")
            break
        if abs(row["L_deg"] - deg) > 1e-6 * (
            abs(row["L_ori"]) + abs(row["L_ts"]) + abs(beta * row["L_ss"]) + 1e-30
        ):
            problems.append(f"step {i}: L_deg {row['L_deg']!r} != L_ori + L_ts + beta*L_ss = {deg!r}")
            break
        lr = base_lr * i / warmup if warmup > 0 and i < warmup else base_lr
        if abs(row["lr"] - lr) > 1e-12 * base_lr:
            problems.append(f"step {i}: lr {row['lr']!r}, warmup schedule gives {lr!r}")
            break

    manifest = read_json(run_dir / "checkpoint.json")
    dim, hidden = world_dim, train_cfg.get("hidden", 4 * world_dim)
    expected = 2 * mapper_parameters(dim, hidden)
    flat, _ = read_emb(run_dir / "checkpoint.emb")
    if manifest.get("total_parameters") != expected or flat.size != expected:
        problems.append(
            f"checkpoint holds {manifest.get('total_parameters')} / {flat.size} parameters, "
            f"2*(2hd + h^2 + 2h + d) = {expected}"
        )
    if manifest.get("step") != steps:
        problems.append(f"checkpoint step {manifest.get('step')} != {steps}")
    return problems


def check_world(data_dir: Path) -> list[str]:
    """Unit-norm rows, and one-attribute edits between references and targets."""
    data_dir = Path(data_dir)
    problems = []
    for name in ("train_images.emb", "train_texts.emb", "gallery.emb", "conditions.emb"):
        matrix, _ = read_emb(data_dir / name)
        worst = float(np.max(np.abs(np.linalg.norm(matrix.astype(np.float64), axis=1) - 1.0)))
        if worst > UNIT_NORM_TOL:
            problems.append(f"{name}: row norms deviate from 1 by {worst:.2e}")
    meta = read_json(data_dir / "world_meta.json")
    tuples = np.asarray(meta["gallery_tuples"], dtype=np.int64)
    _, gallery_ids = read_emb(data_dir / "gallery.emb")
    row = {i: r for r, i in enumerate(gallery_ids)}
    exported = {q["query_id"]: q for q in read_jsonl(data_dir / "queries.jsonl")}
    for rec in meta["query_records"]:
        ref = tuples[row[rec["reference_id"]]]
        target_rows = [row[t] for t in rec["target_ids"]]
        flips = np.sum(tuples[target_rows] != ref, axis=1)
        if not target_rows or np.any(flips != 1):
            problems.append(f"{rec['query_id']}: targets differ from the reference in {flips} attributes")
        matches = np.nonzero(np.all(tuples == np.asarray(rec["edited_tuple"]), axis=1))[0]
        if sorted(gallery_ids[r] for r in matches) != sorted(rec["target_ids"]):
            problems.append(f"{rec['query_id']}: targets are not every gallery match of the edit")
        if sorted(exported.get(rec["query_id"], {}).get("target_ids", [])) != sorted(rec["target_ids"]):
            problems.append(f"{rec['query_id']}: queries.jsonl targets disagree with world_meta.json")
    return problems
