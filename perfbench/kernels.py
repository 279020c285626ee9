"""Seeded per-kernel timing table for the default architecture.

Every row times one layer kernel on inputs drawn from the workload seed,
with the shapes the default architecture gives that layer, and records a
checksum of the kernel's output so a rewrite that changes numerics shows
up as a changed checksum.  The dense layers have no kernel function of
their own in ``nn``; their rows time the same numpy expressions that
``nn.forward_batch`` and ``nn.loss_and_gradients`` evaluate inline.
"""

import hashlib
import statistics
import time

import numpy as np


def _checksum(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _time_ms(fn, reps):
    fn()  # warm-up
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def _dense_forward(a, p, relu):
    y = a @ p["W"] + p["b"]
    return y * (y > 0) if relu else y


def _dense_backward(a_in, da, p):
    return a_in.T @ da, da.sum(axis=0), da @ p["W"].T


def layer_rows(nn, seed, reps_b32, reps_b1):
    """[(row name, ms, checksum)] plus {conv row: gflop/s}."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4242]))
    arch = nn.default_architecture()
    shapes = arch.layer_shapes()
    params = nn.init_params(arch, seed)
    rows = []
    gflops = {}
    counts = {"conv": 0, "maxpool": 0, "dense": 0}
    for i, layer in enumerate(arch.layers):
        kind = layer[0]
        if kind == "flatten":
            continue
        family = "dense" if kind.startswith("dense") else kind
        counts[family] += 1
        label = f"nn.kernel.{family}{counts[family]}"
        in_shape, out_shape = shapes[i], shapes[i + 1]
        p = params[i]
        for batch, tag, reps in ((32, "b32", reps_b32), (1, "b1", reps_b1)):
            x = rng.random((batch, *in_shape), dtype=np.float32)
            dy = rng.standard_normal((batch, *out_shape)).astype(np.float32)
            if family == "conv":
                fwd = lambda: nn._conv_forward(x, p["W"], p["b"])
                y, cache = fwd()
                bwd = lambda: nn._conv_backward(dy, p["W"], cache)
            elif family == "maxpool":
                fwd = lambda: nn._maxpool_forward(x)
                y, cache = fwd()
                bwd = lambda: (nn._maxpool_backward(dy, cache),)
            else:
                relu = kind == "dense_relu"
                fwd = lambda: _dense_forward(x, p, relu)
                y = fwd()
                bwd = lambda: _dense_backward(x, dy, p)
            ms = _time_ms(fwd, reps)
            rows.append((f"{label}.fwd.{tag}", ms, _checksum(y)))
            if batch == 32:
                bwd_ms = _time_ms(bwd, reps)
                rows.append((f"{label}.bwd.{tag}", bwd_ms,
                             _checksum(*bwd())))
                if family == "conv":
                    c_out, h, w = out_shape
                    flop = 2.0 * batch * h * w * c_out * in_shape[0] * 9
                    # backward computes dW and dX, each one forward's worth
                    gflops[f"{label}.fwd.b32"] = flop / (ms * 1e-3) / 1e9
                    gflops[f"{label}.bwd.b32"] = \
                        2 * flop / (bwd_ms * 1e-3) / 1e9
    return rows, gflops


def tensor_rows(tensors, seed, reps):
    """[(row name, ms, checksum)] for the erosion operators on one image."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4343]))
    img = rng.random((3, 32, 32), dtype=np.float32)
    half = tensors.avg_pool(img, 2)
    cfg = tensors.ErosionConfig(steps=3)
    cases = [
        ("avg_pool", lambda: tensors.avg_pool(img, 2)),
        ("upsample_nearest", lambda: tensors.upsample(half, 2, "nearest")),
        ("upsample_bilinear", lambda: tensors.upsample(half, 2, "bilinear")),
        ("erosion_sequence_k3",
         lambda: np.stack(tensors.erosion_sequence(img, cfg))),
    ]
    return [(f"tensors.kernel.{name}", _time_ms(fn, reps), _checksum(fn()))
            for name, fn in cases]
