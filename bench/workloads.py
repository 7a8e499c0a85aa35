"""The benchmark's workloads: the config each one hands the program.

A workload is a function of the seed only; the program sees nothing but the
generated config file. A run repeats whole rounds (``reps`` gen-data, train
and evaluate-sweep commands) for ``--seconds``, and at least ``MIN_ROUNDS``
of them.
"""

from __future__ import annotations

from dataclasses import dataclass

MIN_ROUNDS = 3
K_VALUES = [1, 5, 10]
CONFIG_GAMMA = 0.6
# The mixing-ratio sweep the paper tunes gamma with.
GAMMA_SWEEP = tuple(round(0.1 * i, 1) for i in range(11))


@dataclass(frozen=True)
class Workload:
    name: str
    world: dict
    train: dict
    gammas: tuple[float, ...]  # one composed `evaluate` per gamma
    # Commands per round: gen-data, train, evaluate sweep. Sized so that each
    # phase takes a second or more of every round.
    reps: tuple[int, int, int]
    # Quality checks that hold only for the shipped configuration.
    shipped: bool = False

    def config(self, seed: int, data_dir: str, run_dir: str) -> dict:
        return {
            "seed": seed,
            "world": dict(self.world),
            "train": dict(self.train),
            "eval": {"gamma": CONFIG_GAMMA, "k_values": list(K_VALUES)},
            "paths": {"data_dir": data_dir, "run_dir": run_dir},
        }

    @property
    def queries_per_sweep(self) -> int:
        return self.world["n_eval_queries"] * len(self.gammas)

    @property
    def samples_per_train(self) -> int:
        return self.train["steps"] * self.train["batch_size"]


WORKLOADS = {
    w.name: w
    for w in (
        # The README's shipped config, then the gamma sweep on its small
        # gallery: per-op Python overhead dominates, ranking is cheap.
        Workload(
            name="shipped-d32",
            world={"n_train_pairs": 2048, "gallery_size": 256, "n_eval_queries": 64, "dim": 32},
            train={"batch_size": 64, "steps": 500, "warmup_steps": 50},
            gammas=GAMMA_SWEEP,
            reps=(4, 1, 2),
            shipped=True,
        ),
        # 3,150,336 trainable parameters: BLAS-bound matmuls, AdamW over
        # large vectors, 512x512 mining and tape memory dominate.
        Workload(
            name="train-d256",
            world={"n_train_pairs": 4096, "gallery_size": 512, "n_eval_queries": 64, "dim": 256},
            train={"batch_size": 512, "steps": 10, "warmup_steps": 5, "hidden": 1024},
            gammas=(CONFIG_GAMMA,),
            reps=(1, 1, 3),
        ),
        # A 200k-row gallery and a few dozen queries: ranking dominates
        # evaluation, worldgen and fileio at scale dominate set-up.
        Workload(
            name="retrieval-200k",
            world={"n_train_pairs": 2048, "gallery_size": 200_000, "n_eval_queries": 32, "dim": 32},
            train={"batch_size": 64, "steps": 800, "warmup_steps": 10},
            gammas=(CONFIG_GAMMA,),
            reps=(1, 1, 1),
        ),
    )
}
