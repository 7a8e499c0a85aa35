"""Seeded synthetic attribute world: training pairs and retrieval tasks with
known ground truth.

Entities are attribute tuples. Each entity has a caption descriptor (a
seeded linear projection of the tuple, normalized); its caption embedding is
that descriptor pushed through the frozen composer's one-slot prompt, i.e.
captions are outputs of the same frozen encoder that embeds prompts at
inference time. Its image embedding is anchored to the two-slot prompt
composed over the entity's own descriptor (the full prompt that describes
the image), plus a second, independent projection of the tuple (the modality
gap) and per-instance Gaussian noise. This models an aligned encoder pair:
paired image/caption embeddings are close but not equal, and both prompt
families the query side uses are correlated with gallery geometry.

A large gallery repeats tuples, so each distinct tuple's anchor is
composed once and only the gap direction and the noise are per row. Each row
meets the same operations in the same order either way, so neither the
dedup nor the block size changes a byte.

Caption collisions (distinct entities with near-identical captions) are
injected at a configured rate in small clusters, which is what makes the
confusable-pair selection fire on realistic batches.

Evaluation tasks pick a gallery entity as reference, flip one attribute, and
target every gallery entity matching the edited tuple. The reference stays in
the gallery, so a pure image query retrieves the reference itself first.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .autodiff import Tensor
from .composer import PromptComposer
from .errors import FormatError, InconsistentSpecError, check_finite_fields
from .retrieval import EvalTask, Gallery, eval_settings_problem

# Gallery rows generated and composed together; bounds set-up's peak memory.
_GALLERY_BLOCK_ROWS = 8192

# The least value of each bounded WorldSpec field. task.json's dim and
# composer_seed, which build the frozen encoder, are held to the same bounds.
_LEAST = {
    "n_attributes": 2,
    "n_values_per_attribute": 2,
    "dim": 2,
    "seed": 0,
    "composer_seed": 0,
    "n_train_pairs": 1,
    "n_eval_queries": 1,
    "noise_scale": 0,
    "collision_cluster": 2,
    "train_min_hamming": 1,
}


@dataclass(frozen=True)
class WorldSpec:
    n_attributes: int = 6
    n_values_per_attribute: int = 6
    dim: int = 32
    seed: int = 2024
    noise_scale: float = 0.05
    n_train_pairs: int = 2048
    n_eval_queries: int = 64
    gallery_size: int = 256
    composer_seed: int = 2024
    # Collision clusters share one caption descriptor up to a small jitter.
    caption_collision_rate: float = 0.15
    collision_cluster: int = 3
    caption_jitter: float = 0.02
    # Weight of the image-only projection relative to the caption anchor.
    modality_gap: float = 0.25
    # Minimum pairwise Hamming distance between train entity tuples (1 =
    # distinct tuples; 2 = additionally no single-flip neighbors).
    train_min_hamming: int = 1

    def __post_init__(self):
        check_finite_fields(self, InconsistentSpecError)
        for name, bound in _LEAST.items():
            if getattr(self, name) < bound:
                raise InconsistentSpecError(f"{name} must be >= {bound}, got {getattr(self, name)}")
        if self.gallery_size < self.n_eval_queries:
            raise InconsistentSpecError(
                f"gallery_size must be >= n_eval_queries ({self.n_eval_queries}), "
                f"got {self.gallery_size}"
            )
        if not 0.0 <= self.caption_collision_rate <= 1.0:
            raise InconsistentSpecError(
                f"caption_collision_rate must lie in [0, 1], got {self.caption_collision_rate}"
            )


@dataclass
class World:
    spec: WorldSpec
    train_ids: Sequence[str]
    train_images: np.ndarray
    train_texts: np.ndarray
    train_tuples: np.ndarray
    gallery_ids: Sequence[str]
    gallery_vectors: np.ndarray
    gallery_tuples: np.ndarray
    condition_ids: Sequence[str]
    condition_vectors: np.ndarray
    query_records: list[dict]
    composer_hash: str


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """``matrix``'s rows scaled to unit norm. A norm that overflowed, or is
    NaN or zero, is an InconsistentSpecError: the spec's scales are too large."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    if not np.all((norms > 0) & (norms < np.inf)):
        raise InconsistentSpecError(
            "world rows have a norm that is not finite and positive; lower "
            "world.noise_scale, world.modality_gap or world.caption_jitter"
        )
    return matrix / norms


def _one_hot(tuples: np.ndarray, n_values: int) -> np.ndarray:
    n, n_attr = tuples.shape
    out = np.zeros((n, n_attr * n_values), dtype=np.float64)
    cols = np.arange(n_attr) * n_values + tuples
    out[np.arange(n)[:, None], cols] = 1.0
    return out


def _tuple_codes(tuples: np.ndarray, n_values: int) -> np.ndarray:
    """Each row's base-``n_values`` code, wrapped to 64 bits."""
    codes = np.zeros(len(tuples), dtype=np.uint64)
    for column in tuples.T.astype(np.uint64):
        codes = codes * np.uint64(n_values) + column
    return codes


def _sample_separated_tuples(
    rng: np.random.Generator, n: int, n_attr: int, n_values: int, min_hamming: int
) -> np.ndarray:
    """Draw ``n`` tuples whose pairwise Hamming distance is at least
    ``min_hamming``, rejecting candidates that come too close. An ``n`` past
    the Singleton bound fails before the first draw."""
    fail = InconsistentSpecError(
        f"cannot place {n} tuples with min Hamming {min_hamming} in {n_values}^{n_attr} space"
    )
    if n > n_values ** max(n_attr - min_hamming + 1, 0):
        raise fail
    accepted = np.empty((n, n_attr), dtype=np.int64)
    seen: set[bytes] = set()  # min_hamming 1 rejects exact repeats only
    count = 0
    attempts = 0
    while count < n:
        attempts += 1
        if attempts > 500 * n:
            raise fail
        cand = rng.integers(0, n_values, size=n_attr)
        if min_hamming == 1:
            code = cand.tobytes()
            if code in seen:
                continue
            seen.add(code)
        elif count:
            dist = np.sum(accepted[:count] != cand, axis=1)
            if int(dist.min()) < min_hamming:
                continue
        accepted[count] = cand
        count += 1
    return accepted


class _Embedder:
    """Frozen seeded maps from attribute tuples to descriptor/image space."""

    def __init__(self, spec: WorldSpec, composer: PromptComposer, rng: np.random.Generator):
        feat = spec.n_attributes * spec.n_values_per_attribute
        self.spec = spec
        self.composer = composer
        self.p_text = rng.standard_normal((spec.dim, feat))
        self.p_image = rng.standard_normal((spec.dim, feat))

    def descriptors(self, tuples: np.ndarray) -> np.ndarray:
        return _unit_rows(_one_hot(tuples, self.spec.n_values_per_attribute) @ self.p_text.T)

    def delta_descriptor(self, attribute: int, value: int) -> np.ndarray:
        col = attribute * self.spec.n_values_per_attribute + value
        vec = self.p_text[:, col]
        return vec / np.linalg.norm(vec)

    def captions(self, descriptors: np.ndarray) -> np.ndarray:
        rows = Tensor(descriptors.astype(np.float32))
        return self.composer.compose_rows("photo_of", [rows]).values.astype(np.float64)

    def anchors(self, descriptors: np.ndarray) -> np.ndarray:
        """The float32 two-slot prompt composed over each descriptor."""
        rows = Tensor(descriptors.astype(np.float32))
        return self.composer.compose_rows("photo_of_that", [rows, rows]).values

    def images(
        self, tuples: np.ndarray, anchors: np.ndarray, noise_rng: np.random.Generator
    ) -> np.ndarray:
        gap_dirs = _unit_rows(
            _one_hot(tuples, self.spec.n_values_per_attribute) @ self.p_image.T
        )
        noise = noise_rng.standard_normal(gap_dirs.shape)
        raw = (
            anchors.astype(np.float64)
            + self.spec.modality_gap * gap_dirs
            + self.spec.noise_scale * noise
        )
        return _unit_rows(raw)

    def gallery_images(
        self, tuples: np.ndarray, codes: np.ndarray, noise_rng: np.random.Generator
    ) -> np.ndarray:
        """``images`` of the gallery's rows, as float32; ``codes`` are the
        rows' ``_tuple_codes``.

        An anchor depends on the tuple alone, so it is composed once per
        distinct tuple, ``_GALLERY_BLOCK_ROWS`` tuples at a time. Gap
        directions and noise are per row, one block of rows at a time, so no
        whole-gallery 64-bit intermediate is alive; the noise stream is drawn
        in row order, as one draw would.
        """
        distinct, inverse = _distinct_rows(tuples, codes)
        anchors = np.empty((len(distinct), self.spec.dim), dtype=np.float32)
        for lo in range(0, len(distinct), _GALLERY_BLOCK_ROWS):
            block = distinct[lo : lo + _GALLERY_BLOCK_ROWS]
            anchors[lo : lo + len(block)] = self.anchors(self.descriptors(block))
        out = np.empty((len(tuples), self.spec.dim), dtype=np.float32)
        for lo in range(0, len(tuples), _GALLERY_BLOCK_ROWS):
            rows = slice(lo, lo + _GALLERY_BLOCK_ROWS)
            out[rows] = self.images(tuples[rows], anchors[inverse[rows]], noise_rng)
        return out


def _distinct_rows(tuples: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of ``tuples`` and, for each row, the index of its tuple
    among them; ``codes`` are the rows' ``_tuple_codes``.

    Rows sorted by code hold equal tuples next to each other, and neighbours
    are compared on the tuples themselves. Where wrapped codes collide, one
    tuple may be listed more than once; two distinct tuples never share an
    index.
    """
    order = np.argsort(codes)
    ordered = tuples[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


# Scales too large for float64 overflow here; _unit_rows reports them.
@np.errstate(over="ignore", invalid="ignore")
def generate_world(spec: WorldSpec) -> World:
    composer = PromptComposer(spec.dim, spec.composer_seed)
    streams = [
        np.random.Generator(np.random.PCG64(np.random.SeedSequence([spec.seed, k])))
        for k in range(6)
    ]
    rng_proj, rng_train, rng_noise, rng_coll, rng_gallery, rng_query = streams
    embedder = _Embedder(spec, composer, rng_proj)

    # Training pairs.
    train_tuples = _sample_separated_tuples(
        rng_train,
        spec.n_train_pairs,
        spec.n_attributes,
        spec.n_values_per_attribute,
        spec.train_min_hamming,
    )
    descriptors = embedder.descriptors(train_tuples)
    n_colliding = int(spec.caption_collision_rate * spec.n_train_pairs)
    n_clusters = n_colliding // spec.collision_cluster
    if n_clusters > 0:
        member_pool = rng_coll.permutation(spec.n_train_pairs)[
            : n_clusters * spec.collision_cluster
        ]
        for c in range(n_clusters):
            members = member_pool[c * spec.collision_cluster : (c + 1) * spec.collision_cluster]
            base = descriptors[members[0]]
            for m in members[1:]:
                jitter = rng_coll.standard_normal(spec.dim) * spec.caption_jitter
                descriptors[m] = base + jitter
        descriptors = _unit_rows(descriptors)
    train_texts = embedder.captions(descriptors)
    train_images = embedder.images(train_tuples, embedder.anchors(descriptors), rng_noise)
    train_ids = fileio.NumberedIds("pair-", 5, spec.n_train_pairs)

    # Gallery: duplicates allowed so that queries can have several targets.
    gallery_tuples = rng_gallery.integers(
        0,
        spec.n_values_per_attribute,
        size=(spec.gallery_size, spec.n_attributes),
    )
    gallery_codes = _tuple_codes(gallery_tuples, spec.n_values_per_attribute)

    def slots_holding(edited: np.ndarray) -> np.ndarray:
        code = _tuple_codes(edited[None], spec.n_values_per_attribute)[0]
        slots = np.flatnonzero(gallery_codes == code)
        # Codes wrap past 64 bits, so equal codes are confirmed on the tuples.
        return slots[np.all(gallery_tuples[slots] == edited, axis=1)]

    # Queries: flip one attribute of a gallery reference; make sure at least
    # one gallery entity carries the edited tuple, inserting one if needed.
    gallery_ids = fileio.NumberedIds("item-", 5, spec.gallery_size)
    condition_ids = fileio.NumberedIds("cond-", 4, spec.n_eval_queries)
    protected = np.zeros(spec.gallery_size, dtype=bool)
    condition_rows, query_records = [], []
    for q, cond_id in enumerate(condition_ids):
        ref_slot = int(rng_query.integers(spec.gallery_size))
        protected[ref_slot] = True
        attribute = int(rng_query.integers(spec.n_attributes))
        old_value = int(gallery_tuples[ref_slot, attribute])
        shift = int(rng_query.integers(1, spec.n_values_per_attribute))
        new_value = (old_value + shift) % spec.n_values_per_attribute
        edited = gallery_tuples[ref_slot].copy()
        edited[attribute] = new_value
        matches = slots_holding(edited)
        if matches.size:
            protected[matches[0]] = True
        else:
            free = np.flatnonzero(~protected)
            if not free.size:
                raise InconsistentSpecError(
                    "gallery too small to host all query targets; raise gallery_size"
                )
            slot = int(free[rng_query.integers(len(free))])
            gallery_tuples[slot] = edited
            gallery_codes[slot] = _tuple_codes(edited[None], spec.n_values_per_attribute)[0]
            protected[slot] = True
        condition_rows.append(embedder.delta_descriptor(attribute, new_value))
        query_records.append(
            {
                "query_id": f"query-{q:04d}",
                "reference_id": gallery_ids[ref_slot],
                "condition_id": cond_id,
                "attribute": attribute,
                "old_value": old_value,
                "new_value": new_value,
                "edited_tuple": edited.tolist(),
            }
        )

    # Targets are read once every insertion is made: a later query's target
    # can overwrite an unprotected slot that held an earlier query's edit.
    for rec in query_records:
        rec["target_ids"] = sorted(gallery_ids[slots_holding(np.array(rec["edited_tuple"]))])

    gallery_vectors = embedder.gallery_images(gallery_tuples, gallery_codes, rng_noise)

    return World(
        spec=spec,
        train_ids=train_ids,
        train_images=train_images.astype(np.float32),
        train_texts=train_texts.astype(np.float32),
        train_tuples=train_tuples,
        gallery_ids=gallery_ids,
        gallery_vectors=gallery_vectors,
        gallery_tuples=gallery_tuples,
        condition_ids=condition_ids,
        condition_vectors=np.vstack(condition_rows).astype(np.float32),
        query_records=query_records,
        composer_hash=composer.weights_hash(),
    )


# ---------------------------------------------------------------------------
# export / import

TRAIN_IMAGES = "train_images.emb"
TRAIN_TEXTS = "train_texts.emb"
GALLERY = "gallery.emb"
CONDITIONS = "conditions.emb"
QUERIES = "queries.jsonl"
TASK = "task.json"
WORLD_META = "world_meta.json"


def export_world(world: World, data_dir: Path, metrics: list[str], k_values: list[int]) -> None:
    data_dir = Path(data_dir)
    fileio.write_embeddings(data_dir / TRAIN_IMAGES, world.train_images, world.train_ids)
    fileio.write_embeddings(data_dir / TRAIN_TEXTS, world.train_texts, world.train_ids)
    fileio.write_embeddings(data_dir / GALLERY, world.gallery_vectors, world.gallery_ids)
    fileio.write_embeddings(data_dir / CONDITIONS, world.condition_vectors, world.condition_ids)
    fileio.write_jsonl(
        data_dir / QUERIES,
        [
            {
                "query_id": rec["query_id"],
                "reference_id": rec["reference_id"],
                "condition_id": rec["condition_id"],
                "target_ids": rec["target_ids"],
            }
            for rec in world.query_records
        ],
    )
    fileio.write_json(
        data_dir / TASK,
        {
            "dim": world.spec.dim,
            "composer_seed": world.spec.composer_seed,
            "gallery": GALLERY,
            "conditions": CONDITIONS,
            "queries": QUERIES,
            "metrics": metrics,
            "k_values": k_values,
        },
    )
    meta = {
        "spec": asdict(world.spec),
        "composer_hash": world.composer_hash,
        "gallery_tuples": world.gallery_tuples,
        "query_records": world.query_records,
    }
    fileio.write_json(data_dir / WORLD_META, meta)


_TASK_KEYS = {
    "dim": int,
    "composer_seed": int,
    "gallery": str,
    "conditions": str,
    "queries": str,
    "metrics": list[str],
    "k_values": list[int],
}
_QUERY_KEYS = {"query_id": str, "reference_id": str, "condition_id": str, "target_ids": list[str]}


def read_task_doc(data_dir: Path) -> dict:
    """Read ``task.json``; a missing, mistyped or out-of-range key raises
    FormatError naming the file and the key."""
    path = Path(data_dir) / TASK
    task_doc = fileio.read_json(path)
    fileio.check_object(task_doc, _TASK_KEYS, str(path))
    for key in ("dim", "composer_seed"):
        if task_doc[key] < _LEAST[key]:
            raise FormatError(f"{path}: key {key!r} must be >= {_LEAST[key]}, got {task_doc[key]}")
    problem = eval_settings_problem(task_doc["metrics"], task_doc["k_values"])
    if problem:
        raise FormatError(f"{path}: key {problem[0]!r} {problem[1]}")
    return task_doc


def load_train_pairs(data_dir: Path) -> tuple[np.ndarray, np.ndarray, dict]:
    """The train images and texts, read as one pair, and ``task.json``, whose
    ``dim`` the rows must have and whose encoder settings made them."""
    data_dir = Path(data_dir)
    task_doc = read_task_doc(data_dir)
    images, texts = fileio.read_embedding_pair(data_dir / TRAIN_IMAGES, data_dir / TRAIN_TEXTS)
    if images.shape[1] != task_doc["dim"]:
        raise FormatError(
            f"{data_dir / TRAIN_IMAGES}: rows are {images.shape[1]}-d, "
            f"{data_dir / TASK} has dim {task_doc['dim']}"
        )
    return images, texts, task_doc


def load_task(data_dir: Path) -> tuple[EvalTask, dict]:
    """Load the evaluation task; a missing, mistyped or out-of-range key of
    ``task.json`` or of a query record raises FormatError naming file and key,
    an id that an id file or the query file holds twice or a query file with
    no records one naming the file, and an unknown id or an empty target list
    one naming the query."""
    data_dir = Path(data_dir)
    task_doc = read_task_doc(data_dir)
    gallery_path = data_dir / task_doc["gallery"]
    cond_path = data_dir / task_doc["conditions"]
    gallery_matrix, gallery_ids = fileio.read_embeddings(gallery_path)
    cond_matrix, cond_ids = fileio.read_embeddings(cond_path)
    dim = gallery_matrix.shape[1]
    if task_doc["dim"] != dim:
        raise FormatError(
            f"{gallery_path}: rows are {dim}-d, {data_dir / TASK} has dim {task_doc['dim']}"
        )
    if cond_matrix.shape[1] != dim:
        raise FormatError(
            f"{cond_path}: rows are {cond_matrix.shape[1]}-d, {gallery_path} rows are {dim}-d"
        )
    for path, ids in ((gallery_path, gallery_ids), (cond_path, cond_ids)):
        repeated = ids.first_repeat()
        if repeated is not None:
            raise FormatError(f"{fileio.ids_path_for(path)}: id {repeated!r} appears twice")
    gallery = Gallery(gallery_ids, gallery_matrix)
    queries_path = data_dir / task_doc["queries"]
    records = fileio.read_jsonl(queries_path)
    if not records:
        raise FormatError(f"{queries_path}: no queries to score")
    for n, rec in enumerate(records, start=1):
        fileio.check_object(rec, _QUERY_KEYS, f"{queries_path}: record {n}")
    query_ids = fileio.IdList([rec["query_id"] for rec in records])
    repeated = query_ids.first_repeat()
    if repeated is not None:
        raise FormatError(f"{queries_path}: query id {repeated!r} appears twice")
    ref_rows = gallery.ids.find([rec["reference_id"] for rec in records])
    cond_rows = cond_ids.find([rec["condition_id"] for rec in records])
    target_rows = gallery.ids.find([t for rec in records for t in rec["target_ids"]])
    stop, targets = 0, []
    for rec, ref_row, cond_row in zip(records, ref_rows, cond_rows):
        where = f"{queries_path}: query {rec['query_id']}"
        if ref_row is None:
            raise FormatError(f"{where}: unknown reference id")
        if cond_row is None:
            raise FormatError(f"{where}: unknown condition id")
        if not rec["target_ids"]:
            raise FormatError(f"{where}: empty target set")
        start, stop = stop, stop + len(rec["target_ids"])
        found = target_rows[start:stop]
        if None in found:
            unknown = rec["target_ids"][found.index(None)]
            raise FormatError(f"{where}: unknown target id {unknown!r}")
        targets.append(np.unique(np.array(found, dtype=np.intp)))
    task = EvalTask(
        gallery=gallery,
        query_ids=query_ids,
        reference_ids=[rec["reference_id"] for rec in records],
        condition_ids=[rec["condition_id"] for rec in records],
        reference_rows=gallery_matrix[np.array(ref_rows, dtype=np.intp)],
        condition_rows=cond_matrix[np.array(cond_rows, dtype=np.intp)],
        targets=targets,
        metrics=list(task_doc["metrics"]),
        k_values=list(task_doc["k_values"]),
    )
    return task, task_doc
