"""Span recorder for the traced benchmark run.

Wrappers are installed on the module attributes (and class attributes) where
the program's callers look its public functions up, so the program itself is
never edited. Each wrapped call records one span: (layer, parent span, start,
end) in integer nanoseconds from ``time.perf_counter_ns``. A span's self time
is its duration minus the durations of its direct children; calls on one
thread nest strictly, so children never overlap and the self times of one
command's spans add up exactly to the duration of its root span.

Counters are recorded at the same boundaries from the call's arguments or
result, so ratios are measured where the work happens. Primitive ops of
``cirmap.autodiff`` are counted without spans: a span per op would cost more
than the op.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "cirmap"
ROOT_LAYER = "cli.self_s"


def _nbytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Counter hooks: (args, kwargs, result) -> {counter: amount}.
def _written(args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    return {"fileio.bytes_written": len(data)}


def _read(args, kwargs, result):
    return {"fileio.bytes_read": _nbytes(args[0] if args else kwargs["path"])}


def _composed_rows(args, kwargs, result):
    slots = args[2] if len(args) > 2 else kwargs["slot_rows"]
    return {"composer.rows": slots[0].shape[0]}


def _mapped_rows(args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs["x_rows"]
    return {"mappers.rows": rows.shape[0]}


def _mined_rows(args, kwargs, result):
    images = args[0] if args else kwargs["images"]
    return {"mining.rows_considered": len(images), "mining.rows_selected": result.count}


def _tape_nodes(args, kwargs, result):
    tape = args[1] if len(args) > 1 else kwargs["tape"]
    return {"autodiff.tape_nodes": len(tape), "autodiff.backward_calls": 1}


def _train_steps(args, kwargs, result):
    return {"training.steps": len(result.metrics)}


def _rows_scored(args, kwargs, result):
    gallery = args[0] if args else kwargs["gallery"]
    return {"retrieval.rows_scored": len(gallery)}


# (module, attribute path, layer, counter hook). The layer names are the
# per-layer time metrics; the README maps each to the end-to-end metric it
# should move.
BOUNDARIES = [
    ("cirmap.worldgen", "generate_world", "worldgen.generate_s", None),
    ("cirmap.worldgen", "export_world", "worldgen.export_s", None),
    ("cirmap.worldgen", "load_task", "worldgen.load_s", None),
    ("cirmap.worldgen", "load_train_pairs", "worldgen.load_s", None),
    ("cirmap.fileio", "write_embeddings", "fileio.write_s", None),
    ("cirmap.fileio", "write_json", "fileio.write_s", None),
    ("cirmap.fileio", "write_jsonl", "fileio.write_s", None),
    ("cirmap.fileio", "atomic_write_bytes", "fileio.write_s", _written),
    ("cirmap.fileio", "read_embeddings", "fileio.read_s", _read),
    ("cirmap.fileio", "read_json", "fileio.read_s", _read),
    ("cirmap.fileio", "read_jsonl", "fileio.read_s", _read),
    ("cirmap.composer", "PromptComposer.compose_rows", "composer.compose_s", _composed_rows),
    ("cirmap.composer", "PromptComposer.compose", "composer.compose_s", None),
    ("cirmap.composer", "PromptComposer.prompt_text", "composer.compose_s", None),
    ("cirmap.composer", "PromptComposer.prompt_text_rows", "composer.compose_s", None),
    ("cirmap.mappers", "map_rows", "mappers.map_s", _mapped_rows),
    ("cirmap.mappers", "map_token", "mappers.map_s", None),
    ("cirmap.mappers", "save_checkpoint", "mappers.checkpoint_s", None),
    ("cirmap.mappers", "load_checkpoint", "mappers.checkpoint_s", None),
    ("cirmap.losses", "info_nce_bidirectional", "losses.objective_s", None),
    ("cirmap.losses", "loss_ori", "losses.objective_s", None),
    ("cirmap.losses", "loss_itcon", "losses.objective_s", None),
    ("cirmap.losses", "loss_mse", "losses.objective_s", None),
    ("cirmap.losses", "loss_ts", "losses.objective_s", None),
    ("cirmap.losses", "loss_sset", "losses.objective_s", None),
    ("cirmap.losses", "loss_deg", "losses.objective_s", None),
    ("cirmap.mining", "select_batch", "mining.select_s", _mined_rows),
    ("cirmap.autodiff", "backward", "autodiff.backward_s", _tape_nodes),
    ("cirmap.training", "adamw_step", "training.optim_s", None),
    ("cirmap.training", "train", "training.loop_s", _train_steps),
    ("cirmap.retrieval", "compose_query", "retrieval.compose_s", None),
    ("cirmap.retrieval", "baseline_compose", "retrieval.compose_s", None),
    ("cirmap.retrieval", "rank", "retrieval.rank_s", _rows_scored),
    ("cirmap.retrieval", "recall_at_k", "retrieval.score_s", None),
    ("cirmap.retrieval", "map_at_k", "retrieval.score_s", None),
    ("cirmap.retrieval", "average_precision_at_k", "retrieval.score_s", None),
    ("cirmap.retrieval", "evaluate_task", "retrieval.evaluate_s", None),
]

OPS_MODULE = "cirmap.autodiff"
OPS_COUNTER = "autodiff.ops"
# Public functions of the autodiff module that are not primitive ops.
NOT_OPS = {"backward"}


@dataclass
class Recorder:
    """Spans and counters of one traced interval, kept in memory."""

    spans: list[list] = field(default_factory=list)  # [layer, parent, start_ns, end_ns]
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, parent, time.perf_counter_ns(), 0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("take() while spans are open")
        out = (self.spans, self.counts)
        self.spans, self.counts = [], {}
        return out

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (used for the root span)."""
        index = self.open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)


def self_times_ns(spans: list[list]) -> list[int]:
    """Per-span self time: duration minus the durations of direct children."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def nesting_problems(spans: list[list]) -> list[str]:
    """Spans that break the accounting: a span that ends before it starts, a
    child not inside its parent's interval, or a negative self time (children
    that overlap). Any of these makes the self times meaningless even though
    they still add up to the root span's duration."""
    problems = []
    for i, ((layer, parent, start, end), own) in enumerate(zip(spans, self_times_ns(spans))):
        if end < start:
            problems.append(f"span {i} ({layer}) ends before it starts")
        if parent >= 0 and not (spans[parent][2] <= start and end <= spans[parent][3]):
            problems.append(f"span {i} ({layer}) lies outside its parent span {parent}")
        if own < 0:
            problems.append(f"span {i} ({layer}) has a negative self time of {own} ns")
    return problems


def layer_self_seconds(spans: list[list]) -> dict[str, float]:
    totals: dict[str, int] = {}
    for span, own in zip(spans, self_times_ns(spans)):
        totals[span[0]] = totals.get(span[0], 0) + own
    return {layer: ns / 1e9 for layer, ns in totals.items()}


def _span_wrapper(fn, layer: str, hook, rec: Recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if hook is not None:
            for name, amount in hook(args, kwargs, result).items():
                rec.count(name, amount)
        return result

    return wrapper


def _count_wrapper(fn, counter: str, rec: Recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(counter)
        return fn(*args, **kwargs)

    return wrapper


class Tracer:
    """Installs the wrappers on every binding of each boundary function.

    A function imported by name into another module (``from .mappers import
    map_rows``) is bound there too; every binding in the package is replaced,
    so the wrapper sits where each caller looks the function up. Boundaries
    whose function no longer exists are listed in ``absent``.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    @staticmethod
    def _modules():
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> "Tracer":
        for module_name, path, layer, hook in BOUNDARIES:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = _span_wrapper(original, layer, hook, self.recorder)
            if owner_name:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        ops = sys.modules.get(OPS_MODULE)
        for name, fn in sorted(vars(ops).items()) if ops is not None else []:
            if (
                inspect.isfunction(fn)
                and fn.__module__ == OPS_MODULE
                and not name.startswith("_")
                and name not in NOT_OPS
            ):
                self._replace_everywhere(fn, _count_wrapper(fn, OPS_COUNTER, self.recorder))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
