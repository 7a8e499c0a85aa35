"""Embedding-space training and inference for composed image retrieval.

Frozen, pluggable encoder stand-ins plus two trainable token mappers: one
turns an image embedding into a pseudo-word token, the other turns a caption
embedding into a complementary token. Training runs contrastive objectives
over in-batch negatives with a confusable-pair subset mined per batch;
inference mixes both tokens into a two-slot prompt and ranks a gallery by
cosine.
"""

from .autodiff import Tape, Tensor, backward
from .composer import PromptComposer
from .errors import CirmapError
from .losses import BatchEmbeddings, LossWeights
from .mappers import Mappers, load_checkpoint, save_checkpoint
from .mining import BatchSelection, select_batch
from .retrieval import EvalTask, Gallery
from .training import TrainConfig, TrainResult, train
from .worldgen import World, WorldSpec, generate_world

__version__ = "0.1.0"

__all__ = [
    "BatchEmbeddings",
    "BatchSelection",
    "CirmapError",
    "EvalTask",
    "Gallery",
    "LossWeights",
    "Mappers",
    "PromptComposer",
    "Tape",
    "Tensor",
    "TrainConfig",
    "TrainResult",
    "World",
    "WorldSpec",
    "backward",
    "generate_world",
    "load_checkpoint",
    "save_checkpoint",
    "select_batch",
    "train",
    "__version__",
]
