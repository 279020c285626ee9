"""Minimal trainable CNN stack with a black-box query facade.

Everything is plain numpy: conv3x3+ReLU, maxpool2, flatten, dense layers,
stable softmax, exact analytic gradients of the mean cross-entropy, and a
plain SGD step.  Layer math follows the dtype of its inputs, so float64
can be pushed through for high-precision checks while training runs in
float32.

The :class:`Model` facade is the only surface attacks are allowed to use:
it answers image -> class-probability queries and counts them.
"""

import json
import threading
from dataclasses import dataclass, field

import numpy as np

CHECKPOINT_MAGIC = b"FEDAUDIT-CKPT v1\n"


class ShapeMismatchError(ValueError):
    pass


class LabelRangeError(ValueError):
    pass


@dataclass(frozen=True)
class ArchitectureDescriptor:
    """Layer sequence plus input dims and class count.

    Layers are (kind, *args) tuples: ("conv", out_channels),
    ("maxpool",), ("flatten",), ("dense_relu", width), ("dense", width).
    The final layer must be a plain dense of width num_classes.
    """

    input_shape: tuple  # (C, H, W)
    layers: tuple
    num_classes: int

    def __post_init__(self):
        shapes = self.layer_shapes()
        final_kind = self.layers[-1][0]
        if final_kind != "dense":
            raise ValueError("final layer must be a plain dense layer")
        if shapes[-1] != (self.num_classes,):
            raise ValueError(
                f"final layer width {shapes[-1]} != num_classes "
                f"{self.num_classes}")

    def layer_shapes(self):
        """Output shape after each layer, starting from input_shape."""
        shapes = [tuple(self.input_shape)]
        for layer in self.layers:
            kind = layer[0]
            cur = shapes[-1]
            if kind == "conv":
                c, h, w = cur
                shapes.append((layer[1], h, w))
            elif kind == "maxpool":
                c, h, w = cur
                if h % 2 or w % 2:
                    raise ValueError(f"maxpool2 on odd dims {h}x{w}")
                shapes.append((c, h // 2, w // 2))
            elif kind == "flatten":
                shapes.append((int(np.prod(cur)),))
            elif kind in ("dense_relu", "dense"):
                if len(cur) != 1:
                    raise ValueError("dense layer needs a flat input")
                shapes.append((layer[1],))
            else:
                raise ValueError(f"unknown layer kind {kind!r}")
        return shapes


def default_architecture(input_shape=(3, 32, 32), num_classes=10):
    """Small CNN that trains from scratch in minutes yet overfits readily."""
    return ArchitectureDescriptor(
        input_shape=tuple(input_shape),
        layers=(("conv", 8), ("maxpool",), ("conv", 16), ("maxpool",),
                ("flatten",), ("dense_relu", 64), ("dense", num_classes)),
        num_classes=num_classes)


def init_params(arch: ArchitectureDescriptor, seed: int) -> list:
    """Glorot-uniform parameter blocks, one entry per layer (None where
    the layer has no parameters)."""
    rng = np.random.default_rng(seed)
    shapes = arch.layer_shapes()
    params = []
    for i, layer in enumerate(arch.layers):
        kind = layer[0]
        if kind == "conv":
            in_c = shapes[i][0]
            out_c = layer[1]
            fan_in, fan_out = in_c * 9, out_c * 9
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-limit, limit, (out_c, in_c, 3, 3))
            params.append({"W": w.astype(np.float32),
                           "b": np.zeros(out_c, dtype=np.float32)})
        elif kind in ("dense_relu", "dense"):
            fan_in = shapes[i][0]
            fan_out = layer[1]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-limit, limit, (fan_in, fan_out))
            params.append({"W": w.astype(np.float32),
                           "b": np.zeros(fan_out, dtype=np.float32)})
        else:
            params.append(None)
    return params


# ---------------------------------------------------------------------------
# layer forward/backward


def _conv_forward(x, w, b):
    n, c, h, wd = x.shape
    out_c = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((n, h, wd, c, 3, 3), dtype=xp.dtype)
    for di in range(3):
        for dj in range(3):
            cols[:, :, :, :, di, dj] = \
                xp[:, :, di:di + h, dj:dj + wd].transpose(0, 2, 3, 1)
    mat = cols.reshape(n * h * wd, c * 9)
    y = mat @ w.reshape(out_c, c * 9).T + b
    y = y.reshape(n, h, wd, out_c).transpose(0, 3, 1, 2)
    return y, (mat, x.shape)


def _conv_backward(dy, w, cache):
    mat, x_shape = cache
    n, c, h, wd = x_shape
    out_c = w.shape[0]
    dym = dy.transpose(0, 2, 3, 1).reshape(n * h * wd, out_c)
    dw = (dym.T @ mat).reshape(out_c, c, 3, 3)
    db = dym.sum(axis=0)
    dcols = (dym @ w.reshape(out_c, c * 9)).reshape(n, h, wd, c, 3, 3)
    dxp = np.zeros((n, c, h + 2, wd + 2), dtype=dcols.dtype)
    for di in range(3):
        for dj in range(3):
            dxp[:, :, di:di + h, dj:dj + wd] += \
                dcols[:, :, :, :, di, dj].transpose(0, 3, 1, 2)
    return dxp[:, :, 1:-1, 1:-1], dw, db


def _maxpool_forward(x):
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // 2, 2, w // 2, 2)
    win = win.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)
    idx = win.argmax(axis=-1)  # ties resolve to the first index
    y = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    return y, (idx, x.shape)


def _maxpool_backward(dy, cache):
    idx, x_shape = cache
    n, c, h, w = x_shape
    dwin = np.zeros((n, c, h // 2, w // 2, 4), dtype=dy.dtype)
    np.put_along_axis(dwin, idx[..., None], dy[..., None], axis=-1)
    dwin = dwin.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return dwin.reshape(n, c, h, w)


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def forward_batch(params, arch, x, caches=None):
    """Run the network over a batch (N, C, H, W); returns logits.

    Pass a list as `caches` to collect what the backward pass needs.
    """
    if tuple(x.shape[1:]) != tuple(arch.input_shape):
        raise ShapeMismatchError(
            f"input shape {x.shape[1:]} != architecture input "
            f"{arch.input_shape}")
    a = x
    for layer, p in zip(arch.layers, params):
        kind = layer[0]
        if kind == "conv":
            a, cache = _conv_forward(a, p["W"], p["b"])
            mask = a > 0
            a = a * mask
            cache = (cache, mask)
        elif kind == "maxpool":
            a, cache = _maxpool_forward(a)
        elif kind == "flatten":
            cache = a.shape
            a = a.reshape(a.shape[0], -1)
        elif kind in ("dense_relu", "dense"):
            cache = a
            a = a @ p["W"] + p["b"]
            if kind == "dense_relu":
                mask = a > 0
                a = a * mask
                cache = (cache, mask)
        if caches is not None:
            caches.append(cache)
    return a


def forward(params, arch, img):
    """Single-image forward pass returning a probability vector."""
    return _softmax(forward_batch(params, arch, img[None]))[0]


def loss_and_gradients(params, arch, images, labels):
    """Mean cross-entropy over the batch and its exact gradient.

    images: (N, C, H, W); labels: (N,) ints < num_classes.
    Returns (loss, grads) with grads shaped like params.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("empty batch")
    if labels.min() < 0 or labels.max() >= arch.num_classes:
        raise LabelRangeError(
            f"labels must be in [0, {arch.num_classes}), got "
            f"[{labels.min()}, {labels.max()}]")
    caches = []
    logits = forward_batch(params, arch, images, caches=caches)
    n = logits.shape[0]
    # log-sum-exp form keeps the loss finite for extreme logits
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    loss = float(np.mean(lse - logits[np.arange(n), labels]))

    delta = _softmax(logits)
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    grads = [None if p is None else {} for p in params]
    da = delta
    for i in range(len(arch.layers) - 1, -1, -1):
        kind = arch.layers[i][0]
        cache = caches[i]
        if kind in ("dense_relu", "dense"):
            if kind == "dense_relu":
                a_in, mask = cache
                da = da * mask
            else:
                a_in = cache
            grads[i]["W"] = a_in.T @ da
            grads[i]["b"] = da.sum(axis=0)
            da = da @ params[i]["W"].T
        elif kind == "flatten":
            da = da.reshape(cache)
        elif kind == "maxpool":
            da = _maxpool_backward(da, cache)
        elif kind == "conv":
            conv_cache, mask = cache
            da = da * mask
            da, dw, db = _conv_backward(da, params[i]["W"], conv_cache)
            grads[i]["W"] = dw
            grads[i]["b"] = db
    return loss, grads


def sgd_step(params, grads, lr):
    """params - lr * grads, elementwise; returns new parameter blocks."""
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    if len(params) != len(grads):
        raise ShapeMismatchError("params/grads layer count mismatch")
    out = []
    for p, g in zip(params, grads):
        if p is None:
            out.append(None)
            continue
        if g["W"].shape != p["W"].shape or g["b"].shape != p["b"].shape:
            raise ShapeMismatchError(
                f"gradient shape {g['W'].shape} != param shape "
                f"{p['W'].shape}")
        out.append({"W": (p["W"] - lr * g["W"]).astype(p["W"].dtype),
                    "b": (p["b"] - lr * g["b"]).astype(p["b"].dtype)})
    return out


# ---------------------------------------------------------------------------
# black-box facade


@dataclass
class Model:
    """Trained classifier exposed to attacks as image -> probabilities.

    Every query() bumps the counter under a lock, so the query budget of
    an attack can be asserted exactly even with parallel callers.
    """

    arch: ArchitectureDescriptor
    params: list
    seed: int = 0
    _query_count: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def query(self, img: np.ndarray) -> np.ndarray:
        with self._lock:
            self._query_count += 1
        return forward(self.params, self.arch, img)

    @property
    def query_count(self) -> int:
        return self._query_count


# ---------------------------------------------------------------------------
# checkpoint container: magic line, JSON header line, raw little-endian
# array bytes in header order.  Deterministic byte-for-byte.


def save_checkpoint(path, model: Model):
    header = {
        "arch": {
            "input_shape": list(model.arch.input_shape),
            "layers": [list(layer) for layer in model.arch.layers],
            "num_classes": model.arch.num_classes,
        },
        "seed": model.seed,
        "query_count": model.query_count,
        "arrays": [],
    }
    blobs = []
    for i, p in enumerate(model.params):
        if p is None:
            continue
        for name in ("W", "b"):
            arr = np.ascontiguousarray(p[name])
            header["arrays"].append({
                "layer": i, "name": name,
                "shape": list(arr.shape),
                "dtype": arr.dtype.str,  # includes byte order
            })
            blobs.append(arr.tobytes())
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> Model:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        header = json.loads(fh.readline())
        arch = ArchitectureDescriptor(
            input_shape=tuple(header["arch"]["input_shape"]),
            layers=tuple(tuple(layer) for layer in header["arch"]["layers"]),
            num_classes=header["arch"]["num_classes"])
        params = [None] * len(arch.layers)
        for spec in header["arrays"]:
            raw = fh.read(int(np.prod(spec["shape"]))
                          * np.dtype(spec["dtype"]).itemsize)
            arr = np.frombuffer(raw, dtype=np.dtype(spec["dtype"]))
            arr = arr.reshape(spec["shape"]).copy()
            if params[spec["layer"]] is None:
                params[spec["layer"]] = {}
            params[spec["layer"]][spec["name"]] = arr
    return Model(arch=arch, params=params, seed=header["seed"],
                 _query_count=header["query_count"])
