"""FedAvg training simulation.

All clients participate every round: broadcast the global params, run
seeded local SGD on each shard, then aggregate with shard-size weights.
One master seed deterministically derives every per-(round, client)
shuffling seed, so a whole run is reproducible bit for bit.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import fanout, nn


@dataclass(frozen=True)
class FedConfig:
    num_clients: int = 5
    rounds: int = 30
    local_epochs: int = 2
    batch_size: int = 32
    lr: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name, low in (("num_clients", 1), ("rounds", 0),
                          ("local_epochs", 0), ("batch_size", 1), ("lr", 0)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value!r}")


def check_partition(n, num_clients):
    """Raise unless n samples give each of num_clients shards one."""
    if num_clients > n:
        raise ValueError(f"num_clients must be <= {n}, the training split "
                         f"size, got {num_clients}")


def partition(dataset, num_clients, seed):
    """Disjoint, exhaustive, near-even shards (sizes differ by <= 1):
    client i's shard is the i-th dataset.subset."""
    n = len(dataset)
    check_partition(n, num_clients)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    order = rng.permutation(n)
    return [dataset.subset(idx)
            for idx in np.array_split(order, num_clients)]


def shuffle_seed(master_seed, round_idx, client_id):
    """Stable sub-seed for one client's local pass in one round."""
    return np.random.SeedSequence([master_seed, round_idx, client_id])


def local_train(global_params, arch, shard, cfg: FedConfig, round_idx=0,
                client_id=0):
    """local_epochs of seeded mini-batch SGD from the broadcast params."""
    if len(shard) == 0:
        raise ValueError(f"client {client_id} has an empty shard")
    rng = np.random.default_rng(shuffle_seed(cfg.seed, round_idx, client_id))
    params = global_params
    losses = []
    for _ in range(cfg.local_epochs):
        order = rng.permutation(len(shard))
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            loss, grads = nn.loss_and_gradients(
                params, arch, shard.images[idx], shard.labels[idx])
            params = nn.sgd_step(params, grads, cfg.lr)
            losses.append(loss)
    mean_loss = float(np.mean(losses)) if losses else float("nan")
    return params, mean_loss


def fedavg_aggregate(client_params, client_sizes):
    """Elementwise weighted mean of parameter blocks, weights = sizes."""
    if not client_params or len(client_params) != len(client_sizes):
        raise ValueError("need matching nonempty params/sizes lists")
    total = float(sum(client_sizes))
    if total <= 0:
        raise ValueError("total client size must be positive")
    shapes = nn.block_shapes(client_params[0])
    if any(nn.block_shapes(params) != shapes for params in client_params):
        raise nn.ShapeMismatchError(
            "parameter shapes or layer counts differ across clients")

    def mean(i, name):
        acc = np.zeros(shapes[i][name], dtype=np.float64)
        for params, size in zip(client_params, client_sizes):
            acc += (size / total) * params[i][name]
        return acc.astype(client_params[0][i][name].dtype)

    return [None if block is None else {name: mean(i, name) for name in block}
            for i, block in enumerate(shapes)]


def _accuracy(params, arch, images, labels):
    # images per forward pass: the im2col buffers of larger chunks set
    # the memory peak of training, and are no faster
    batch = 64
    hits = 0
    for lo in range(0, len(labels), batch):
        logits = nn.forward_batch(params, arch, images[lo:lo + batch])
        hits += int((logits.argmax(axis=1) == labels[lo:lo + batch]).sum())
    return hits / len(labels)


class DivergedError(ArithmeticError):
    """Training produced a non-finite parameter or mean client loss."""


def run_federated_training(dataset, arch, cfg: FedConfig, test_set=None,
                           workers=1):
    """Full FedAvg loop; returns (global params, per-round log rows).

    Log rows: dicts with round, train_acc, test_acc, mean_client_loss.
    Client training fans out to worker processes when workers > 1 (see
    fanout.fan_out), the same ones every round, each on one BLAS thread;
    numerics are identical for any worker count because clients are
    independent.  Each round's fan-out also carries the accuracy pass of
    the previous round's global params, on the calling thread; the final
    params are measured after the last round.  DivergedError names the
    first round whose aggregated params or mean client loss are not
    finite.
    """
    shards = partition(dataset, cfg.num_clients, cfg.seed)
    sizes = [len(s) for s in shards]
    params = nn.init_params(arch, cfg.seed)
    log = []

    def log_round(rnd, params, loss):
        log.append({
            "round": rnd + 1,
            "train_acc": _accuracy(params, arch, dataset.images,
                                   dataset.labels),
            "test_acc": (_accuracy(params, arch, test_set.images,
                                   test_set.labels)
                         if test_set is not None else float("nan")),
            "mean_client_loss": loss,
        })

    def fit(job):
        """local_train for one job (round, global params, client id)."""
        rnd, global_params, cid = job
        return local_train(global_params, arch, shards[cid], cfg,
                           round_idx=rnd, client_id=cid)

    measure = None
    with fanout.fan_out(workers, fit) as map_clients:
        for rnd in range(cfg.rounds):
            results = map_clients([(rnd, params, cid)
                                   for cid in range(len(shards))],
                                  first=measure)
            params = fedavg_aggregate([r[0] for r in results], sizes)
            loss = float(np.mean([r[1] for r in results]))
            if not np.isfinite(loss):
                raise DivergedError(f"round {rnd + 1} diverged: mean "
                                    f"client loss {loss}")
            if not all(np.isfinite(a).all() for block in params if block
                       for a in block.values()):
                raise DivergedError(f"round {rnd + 1} diverged: "
                                    f"non-finite parameters")
            measure = functools.partial(log_round, rnd, params, loss)
    if measure is not None:
        measure()
    return params, log
