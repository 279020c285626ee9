"""Minimal trainable CNN stack with a black-box query facade.

Everything is plain numpy: conv3x3+ReLU, maxpool2, flatten, dense layers,
stable softmax, exact analytic gradients of the mean cross-entropy, and a
plain SGD step.  Layer math follows the dtype of its inputs, so float64
can be pushed through for high-precision checks while training runs in
float32.

Activations keep their logical NCHW shape, but the conv and maxpool
kernels store them channels-first: the arrays they return are
``(C, N, H, W)`` buffers seen through a transposed view, and ReLU's
elementwise ops keep that layout.  So conv, ReLU and maxpool hand each
other contiguous channel planes, and the conv GEMMs run on the
transposed im2col matrix ``(C*9, N*H*W)``.  Conv backward takes
``dW = (cols @ dy.T).T`` and its col2im on a zero-padded
``(N, H+2, W+2)`` grid per channel, where each of the nine taps is one
contiguous add.

Passes without a backward (every query, query batch and accuracy pass)
run the conv forward on that padded grid too (``_conv_values``): the
input sits in the grid, each tap is one contiguous slice, and one GEMM
covers all ``N*(H+2)*(W+2)`` columns, of which the ``H x W`` corner of
each plane is kept.  A GEMM column's bits do not depend on the other
columns (the batch-invariant queries rest on the same property), so the
kept columns have the bits of the compact matrix's.  Training keeps the
compact ``(C*9, N*H*W)`` matrix: backward reuses it for ``dW``, whose
bits change with any other split of its product along ``N*H*W``.

A conv's ReLU runs behind the maxpool that follows it (``_relu_at``):
ReLU is monotone, so the orders commute, and its mask and multiplies
act on a quarter of the values.  Training pools with
``_maxpool_forward``, whose ``idx`` (the first maximum on ties) routes
the backward pass; passes without a backward pool values only, with
two ``np.maximum`` over stride-2 views (``_maxpool_values``).  The
orders and the two pools differ only in the sign of a zero maximum,
and no output can see that sign: the GEMMs accumulate from +0.0 and
add the bias, so a product of ±0 changes no sum; the softmax gives
``exp(±0) = 1``; and ``argmax`` treats ±0 as a tie.  In the backward
pass a zero gradient may reach another window position, which adds
only ±0 terms to the same sums.  So every output keeps the bits of
ReLU-before-pool with the argmax pool.

The :class:`Model` facade is the only surface attacks are allowed to use:
it answers image -> class-probability queries, one image at a time
(``query``) or as a stack (``query_batch``), and counts every image.
Inference rows are batch-invariant: without collected caches the dense
layers run one GEMV per row, as a batch-1 pass does, so a row's
probabilities have the same bits alone or in any stack.
"""

import contextlib
import ctypes
import functools
import glob
import json
import math
import os
import pickle
import signal
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from . import files

CHECKPOINT_MAGIC = b"FEDAUDIT-CKPT v2\n"

# arguments after the kind: a width, or none
_LAYER_ARGS = {"conv": 1, "maxpool": 0, "flatten": 0, "dense_relu": 1,
               "dense": 1}


class ShapeMismatchError(ValueError):
    pass


class LabelRangeError(ValueError):
    pass


class CheckpointError(ValueError):
    """A checkpoint file that is not a complete, well-formed checkpoint."""


def _is_int(value):
    """True for Python and numpy integers; bools are not sizes."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        if not _is_int(self.num_classes):
            raise ValueError(
                f"num_classes must be an int, got {self.num_classes!r}")
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
        if not all(map(_is_int, shapes[0])):
            raise ValueError(f"input dims must be ints, got {shapes[0]}")
        if min(shapes[0], default=1) < 1:
            raise ValueError(f"input dims must be >= 1, got {shapes[0]}")
        for layer in self.layers:
            kind = layer[0] if layer else None
            if kind not in _LAYER_ARGS:
                raise ValueError(f"unknown layer kind in {layer!r}")
            if len(layer) != 1 + _LAYER_ARGS[kind]:
                raise ValueError(f"{kind} layer takes {_LAYER_ARGS[kind]} "
                                 f"argument(s), got {layer!r}")
            cur = shapes[-1]
            if kind in ("conv", "maxpool") and len(cur) != 3:
                raise ValueError(f"{kind} layer needs a (C, H, W) input")
            if _LAYER_ARGS[kind]:
                if not _is_int(layer[1]):
                    raise ValueError(
                        f"{kind} width must be an int, got {layer[1]!r}")
                if layer[1] < 1:
                    raise ValueError(
                        f"{kind} width must be >= 1, got {layer[1]}")
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
            else:
                if len(cur) != 1:
                    raise ValueError("dense layer needs a flat input")
                shapes.append((layer[1],))
        return shapes


def default_architecture(input_shape=(3, 32, 32), num_classes=10,
                         conv_channels=(8, 16), dense_width=64):
    """Small CNN that trains from scratch in minutes yet overfits readily:
    a conv + maxpool pair per entry of conv_channels, then a dense_relu
    of dense_width and the num_classes output layer."""
    convs = tuple(layer for ch in conv_channels
                  for layer in (("conv", ch), ("maxpool",)))
    return ArchitectureDescriptor(
        input_shape=tuple(input_shape),
        layers=convs + (("flatten",), ("dense_relu", dense_width),
                        ("dense", num_classes)),
        num_classes=num_classes)


def _param_shapes(arch: ArchitectureDescriptor) -> list:
    """(W shape, b shape) per layer, None where the layer has no
    parameters.  Conv weights are (out, in, 3, 3), dense ones (in, out)."""
    dims = [shape[0] for shape in arch.layer_shapes()]
    return [None if kind in ("maxpool", "flatten")
            else ((c_out, c_in, 3, 3) if kind == "conv" else (c_in, c_out),
                  (c_out,))
            for (kind, *_), c_in, c_out in zip(arch.layers, dims, dims[1:])]


def init_params(arch: ArchitectureDescriptor, seed: int) -> list:
    """Glorot-uniform parameter blocks, one entry per layer (None where
    the layer has no parameters)."""
    rng = np.random.default_rng(seed)
    params = []
    for shape in _param_shapes(arch):
        if shape is None:
            params.append(None)
            continue
        w_shape, b_shape = shape
        # fan_in + fan_out: both channel counts times the taps per channel
        limit = np.sqrt(6.0 / (sum(w_shape[:2]) * math.prod(w_shape[2:])))
        w = rng.uniform(-limit, limit, w_shape)
        params.append({"W": w.astype(np.float32),
                       "b": np.zeros(b_shape, dtype=np.float32)})
    return params


# ---------------------------------------------------------------------------
# layer forward/backward


def _conv_forward(x, w, b):
    n, c, h, wd = x.shape
    out_c = w.shape[0]
    xp = np.zeros((c, n, h + 2, wd + 2), dtype=x.dtype)
    xp[:, :, 1:-1, 1:-1] = x.transpose(1, 0, 2, 3)
    # im2col, transposed: rows ordered (c, di, dj), one column per (n, y, x)
    cols = np.empty((c, 3, 3, n, h, wd), dtype=xp.dtype)
    for di in range(3):
        for dj in range(3):
            cols[:, di, dj] = xp[:, :, di:di + h, dj:dj + wd]
    cols = cols.reshape(c * 9, n * h * wd)
    y = w.reshape(out_c, c * 9) @ cols + b[:, None]
    return y.reshape(out_c, n, h, wd).transpose(1, 0, 2, 3), (cols, x.shape)


def _conv_values(x, w, b):
    """_conv_forward's y without its im2col cache, for passes with no
    backward: the input sits inside a zero-padded (H+2, W+2) grid per
    channel, so tap (di, dj) is one contiguous slice at flat offset
    di*(W+2) + dj, and one GEMM covers the whole grid.  The rows keep
    the (c, di, dj) order and each kept column holds the same products
    as in the compact matrix, so y has _conv_forward's bits; the output
    is stored channels-first, with the grid's margins left in place."""
    n, c, h, wd = x.shape
    out_c = w.shape[0]
    hp, wp = h + 2, wd + 2
    m = n * hp * wp
    # the tail lets the last taps of the last image read zeros
    xp = np.zeros((c, m + 2 * wp + 2), dtype=x.dtype)
    grid = xp[:, :m].reshape(c, n, hp, wp)
    grid[:, :, 1:-1, 1:-1] = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, 9, m), dtype=xp.dtype)
    for k in range(9):
        cols[:, k] = xp[:, k // 3 * wp + k % 3:][:, :m]
    y = w.reshape(out_c, c * 9) @ cols.reshape(c * 9, m)
    y += b[:, None]
    return y.reshape(out_c, n, hp, wp)[:, :, :h, :wd].transpose(1, 0, 2, 3)


def _conv_backward(dy, w, cache, input_grad=True):
    """(dx, dW, db); dx is None when input_grad is false."""
    cols, (n, c, h, wd) = cache
    out_c = w.shape[0]
    # contiguous for any dy layout (a no-op for channels-first dy), so db
    # is a pairwise row sum; dW = (cols @ dy.T).T has the bits of
    # dy @ cols.T at about twice its speed
    dyc = np.ascontiguousarray(dy.transpose(1, 0, 2, 3)).reshape(out_c, -1)
    dw = (cols @ dyc.T).T.reshape(out_c, c, 3, 3)
    db = dyc.sum(axis=1)
    if not input_grad:
        return None, dw, db
    # col2im on a padded grid: dy sits at the top left of each
    # (H+2, W+2) plane, so tap (di, dj) is one contiguous add at flat
    # offset di*(W+2) + dj; the grid's zero columns add only +0.0
    hp, wp = h + 2, wd + 2
    m = n * hp * wp
    grid = np.zeros((out_c, n, hp, wp), dtype=dy.dtype)
    grid[:, :, :h, :wd] = dyc.reshape(out_c, n, h, wd)
    dcols = (w.reshape(out_c, c * 9).T @ grid.reshape(out_c, m)).reshape(
        c, 9, m)
    dxp = np.zeros((c, m + 2 * wp + 2), dtype=dcols.dtype)
    for k in range(9):
        dxp[:, k // 3 * wp + k % 3:][:, :m] += dcols[:, k]
    dx = dxp[:, :m].reshape(c, n, hp, wp)[:, :, 1:-1, 1:-1]
    return dx.transpose(1, 0, 2, 3), dw, db


def _bits(a):
    return a.view(np.dtype(f"u{a.itemsize}"))


def _select(mask, a, b):
    """b where mask else a, bit for bit, by integer masking: np.where
    gives the same bits but is several times slower."""
    a_bits = _bits(a)
    out = a_bits ^ _bits(b)
    out *= mask  # keep the bits that differ only where mask holds
    out ^= a_bits
    return out.view(a.dtype)


def _maxpool_forward(x):
    """2x2 max pool; idx is the window position of each maximum, the
    first one on ties (as argmax: -0.0 ties 0.0, the first NaN wins)."""
    n, c, h, w = x.shape
    # window position k as the contiguous channels-first block wins[k]
    wins = np.ascontiguousarray(
        x.transpose(1, 0, 2, 3).reshape(c, n, h // 2, 2, w // 2, 2)
        .transpose(3, 5, 0, 1, 2, 4)).reshape(4, c, n, h // 2, w // 2)
    y = wins[0]
    idx = np.zeros(y.shape, dtype=np.uint8)
    for k in range(1, 4):
        # strictly greater, or a NaN against a number
        better = (y == y) & ~(wins[k] <= y)
        y = _select(better, y, wins[k])
        idx = np.maximum(idx, better * np.uint8(k))  # k beats earlier picks
    return y.transpose(1, 0, 2, 3), (idx.transpose(1, 0, 2, 3), x.shape)


def _maxpool_backward(dy, cache):
    idx, (n, c, h, w) = cache
    dy_bits = _bits(np.ascontiguousarray(dy.transpose(1, 0, 2, 3)))
    idx = idx.transpose(1, 0, 2, 3)
    dx = np.empty((c, n, h // 2, 2, w // 2, 2), dtype=dy_bits.dtype)
    for k in range(4):
        # dy at the chosen window position k = 2 * row + col, +0.0 elsewhere
        np.multiply(dy_bits, idx == k, out=dx[:, :, :, k // 2, :, k % 2])
    return dx.reshape(c, n, h, w).view(dy.dtype).transpose(1, 0, 2, 3)


def _maxpool_values(x):
    """2x2 max pool without idx, for passes with no backward: two
    np.maximum over stride-2 views of the channels-first buffer, rows
    first.  Values equal _maxpool_forward's y, NaN where it has NaN, and
    the output is stored channels-first; only a zero maximum's sign may
    differ."""
    xc = x.transpose(1, 0, 2, 3)
    rows = np.maximum(xc[:, :, 0::2], xc[:, :, 1::2])
    return np.maximum(rows[..., 0::2], rows[..., 1::2],
                      order="C").transpose(1, 0, 2, 3)


def _relu_at(arch):
    """Per layer, whether a ReLU follows it: a dense_relu; a conv,
    unless a maxpool follows, which then takes the conv's ReLU."""
    kinds = [kind for kind, *_ in arch.layers]
    return [kind == "dense_relu"
            or kind == "conv" and nxt != "maxpool"
            or kind == "maxpool" and prev == "conv"
            for prev, kind, nxt in zip([None] + kinds, kinds,
                                       kinds[1:] + [None])]


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def forward_batch(params, arch, x, caches=None):
    """Run the network over a batch (N, C, H, W); returns logits.

    Pass a list as `caches` to collect what the backward pass needs.
    Without caches each row's logits have the bits of a batch-1 pass:
    the conv GEMMs already give them, and the dense layers run one GEMV
    per row instead of one GEMM over the batch, which rounds otherwise.
    Without caches conv and maxpool also compute values only:
    _conv_values with _conv_forward's bits, and _maxpool_values.
    Either way a
    conv's ReLU applies after its maxpool; the module docstring says
    why no zero sign this changes reaches the logits.
    """
    if tuple(x.shape[1:]) != tuple(arch.input_shape):
        raise ShapeMismatchError(
            f"input shape {x.shape[1:]} != architecture input "
            f"{arch.input_shape}")
    a = x
    for (kind, *_), p, relu in zip(arch.layers, params, _relu_at(arch)):
        if kind == "conv" and caches is None:
            a, cache = _conv_values(a, p["W"], p["b"]), None
        elif kind == "conv":
            a, cache = _conv_forward(a, p["W"], p["b"])
        elif kind == "maxpool" and caches is None:
            a, cache = _maxpool_values(a), None
        elif kind == "maxpool":
            a, cache = _maxpool_forward(a)
        elif kind == "flatten":
            a, cache = a.reshape(a.shape[0], -1), a.shape
        elif caches is None:  # dense_relu, dense: one GEMV per row
            a, cache = (a[:, None] @ p["W"])[:, 0] + p["b"], None
        else:  # dense_relu, dense
            a, cache = a @ p["W"] + p["b"], a
        if relu:
            mask = a > 0
            a = a * mask
            cache = (cache, mask)
        if caches is not None:
            caches.append(cache)
        cache = mask = None  # else a conv's im2col matrix outlives its layer
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

    grads = [None] * len(params)
    da = delta
    relu_at = _relu_at(arch)
    for i in range(len(arch.layers) - 1, -1, -1):
        kind, cache = arch.layers[i][0], caches[i]
        if relu_at[i]:
            cache, mask = cache
            da = da * mask
        if kind == "conv":
            # the first layer's input is the image batch: no gradient
            da, dw, db = _conv_backward(da, params[i]["W"], cache,
                                        input_grad=i > 0)
            grads[i] = {"W": dw, "b": db}
        elif kind == "maxpool":
            da = _maxpool_backward(da, cache)
        elif kind == "flatten":
            da = da.reshape(cache)
        else:  # dense_relu, dense
            grads[i] = {"W": cache.T @ da, "b": da.sum(axis=0)}
            da = da @ params[i]["W"].T
    return loss, grads


def block_shapes(params) -> list:
    """Shape of every array by layer and name (None for a layer without
    parameters); parameter lists combine elementwise iff these match."""
    return [None if p is None else {name: a.shape for name, a in p.items()}
            for p in params]


def sgd_step(params, grads, lr):
    """params - lr * grads, elementwise; returns new parameter blocks."""
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    got, want = block_shapes(grads), block_shapes(params)
    if got != want:
        raise ShapeMismatchError(
            f"gradient shapes {got} != param shapes {want}")
    return [None if p is None else
            {name: (arr - lr * g[name]).astype(arr.dtype)
             for name, arr in p.items()}
            for p, g in zip(params, grads)]


# ---------------------------------------------------------------------------
# BLAS threads


@functools.cache
def _blas_thread_api():
    """(get, set) for the thread count of numpy's bundled scipy-openblas,
    or None on any other BLAS build.

    Looked up once, as threadpoolctl does: the numpy wheel ships the
    library under numpy.libs, and RTLD_NOLOAD only accepts the copy numpy
    has already loaded.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs,
                                              "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (AttributeError, OSError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with one BLAS thread, then restore the caller's count.

    For fan-outs whose workers each run their own GEMMs: BLAS threads
    on top of them oversubscribe the cores.  Workers forked inside the
    block keep its one thread.  The GEMM results do not depend on the
    thread count.  The count is process-wide, so blocks entered from
    different threads must nest, not interleave.
    Does nothing where _blas_thread_api finds no scipy-openblas.
    """
    api = _blas_thread_api()
    if api is None:
        yield
        return
    get, set_ = api
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def fan_out_width():
    """Workers for a fan-out: the usable cores, or 1 where
    _blas_thread_api finds no scipy-openblas, since workers there would
    oversubscribe the cores with that BLAS's own threads."""
    return 1 if _blas_thread_api() is None else len(os.sched_getaffinity(0))


class WorkerDiedError(RuntimeError):
    """A fan-out worker process ended before it answered."""


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@contextlib.contextmanager
def fan_out(workers, fn):
    """Yields map(items, first=None), which returns [fn(item) for item
    in items] computed by `workers` workers, one of them the calling
    thread, which runs first() before it takes items.

    With 1 worker all of it runs inline with the caller's BLAS threads.
    Otherwise the block runs on one BLAS thread, and each call forks
    worker processes until it has one per item beyond the caller's, up
    to workers - 1; they then serve every later call of the block and
    end with it.  Each has its own interpreter, so the workers do not
    queue on one GIL.  While the caller runs first(), the workers start
    on the items, then the caller takes items from the same queue, so
    the results are the same for any worker count.  fn reaches a worker
    at fork and is never pickled: what it closes over (a training's
    shards) is shared copy-on-write.  Items and results are pickled;
    an item's exception comes back with its type and message.  The
    first error, or a worker that dies (WorkerDiedError), stops the
    queue, and no worker outlives the block.

    The start method is fork: spawn pays an import of fedaudit and
    starts each worker on the default BLAS threads.  Forking is safe
    here because workers fork before the call starts its helper threads
    and fedaudit starts no others, so the only other threads are
    OpenBLAS's, and OpenBLAS and glibc's malloc both register fork
    handlers that leave their locks usable in the child.
    """
    if workers <= 1:
        yield functools.partial(_map_queue, fn, [], 1)
        return
    procs = []
    with single_blas_thread():
        try:
            yield functools.partial(_map_queue, fn, procs, workers)
        finally:
            for proc, conn in procs:
                conn.close()
                proc.kill()
            for proc, _ in procs:
                proc.join()


def _map_queue(fn, procs, workers, items, first=None):
    todo = list(enumerate(items))[::-1]
    results = [None] * len(todo)
    helpers = min(workers, len(todo)) - 1
    while len(procs) < helpers:
        procs.append(_start_worker(fn, [conn for _, conn in procs]))
    lock = threading.Lock()
    errors = []

    def work(run, before=None):
        try:
            if before is not None:
                before()
            while True:
                with lock:
                    if not todo:
                        return
                    i, item = todo.pop()
                results[i] = run(item)
        except BaseException as exc:
            with lock:
                todo.clear()
                errors.append(exc)

    # one thread per worker hands it items; it waits on the pipe
    # without the GIL
    threads = [threading.Thread(target=work,
                                args=(functools.partial(_ask, *worker),))
               for worker in procs[:helpers]]
    for thread in threads:
        thread.start()
    try:
        work(fn, first)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results


def _start_worker(fn, inherited):
    """Fork one worker serving fn; returns (process, connection)."""
    # imported here: a process that never fans out (1 worker, or an
    # audit) would hold about 0.7 MB more for it
    import multiprocessing
    fork = multiprocessing.get_context("fork")
    conn, child_conn = fork.Pipe()
    proc = fork.Process(target=_serve,
                        args=(child_conn, fn, [*inherited, conn]))
    proc.start()
    child_conn.close()
    return proc, conn


def _ask(proc, conn, item):
    try:
        conn.send(item)
        ok, value = conn.recv()
    except (EOFError, OSError) as exc:
        proc.join()
        raise WorkerDiedError(f"fan-out worker {proc.pid} ended with exit "
                              f"code {proc.exitcode} before it answered"
                              ) from exc
    if not ok:
        raise value
    return value


def _serve(conn, fn, inherited):
    """A worker's loop: answer each item with (True, fn(item)) or
    (False, its exception) until the parent closes its end."""
    # the parent handles an interrupt, and ends its workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # other workers' ends and the parent's own: the parent must be the
    # only holder, so that each side sees the other's end close
    for other in inherited:
        other.close()
    _keep_heap()
    while True:
        try:
            item = conn.recv()
        except EOFError:
            return
        try:
            reply = True, fn(item)
        except Exception as exc:
            reply = False, _portable(exc)
        conn.send(reply)


def _portable(exc):
    """exc if it survives pickling, else a RuntimeError naming its type
    and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _keep_heap():
    """Fix glibc's trim and mmap thresholds high in a forked worker.

    glibc raises its mmap threshold to the largest mmapped block freed
    so far, and trims a free heap top above twice that.  The caller's
    accuracy passes, in 64-image chunks, free blocks large enough that
    its training steps keep their buffers.  A worker runs only 32-image
    steps, so each step's freed buffers went back to the kernel and the
    next step faulted them in again: about 780 000 minor faults in the
    worker of a default training against 4 400 with this; one 64-image
    forward in the worker cured it too.  Setting either threshold turns the dynamic
    ones off, so both are set.  Does nothing where the C library has no
    mallopt.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], \
        ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


# ---------------------------------------------------------------------------
# black-box facade


@dataclass
class Model:
    """Trained classifier exposed to attacks as image -> probabilities.

    query() answers one image and query_batch() a stack; each adds the
    number of images it answers to the counter under a lock, so the
    query budget of an attack can be asserted exactly even with
    parallel callers.  Row i of query_batch(images) has the bits of
    query(images[i]).
    trained_on is the caller's record of what the model was trained on;
    checkpoints carry it and nothing here reads it.
    """

    arch: ArchitectureDescriptor
    params: list
    trained_on: dict = field(default_factory=dict)
    # set only by the query methods, so an attack's budget is exact
    _query_count: int = field(default=0, init=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False, compare=False)

    def query(self, img: np.ndarray) -> np.ndarray:
        with self._lock:
            self._query_count += 1
        return forward(self.params, self.arch, img)

    def query_batch(self, images: np.ndarray) -> np.ndarray:
        """(N, classes) probabilities for an (N, C, H, W) stack; counts
        N queries."""
        with self._lock:
            self._query_count += len(images)
        return _softmax(forward_batch(self.params, self.arch, images))

    @property
    def query_count(self) -> int:
        return self._query_count


# ---------------------------------------------------------------------------
# checkpoint container: magic line, JSON header line {arch, trained_on},
# then every array as little-endian float32 in _param_shapes(arch) order.
# Deterministic byte-for-byte.

_DTYPE = np.dtype("<f4")


def save_checkpoint(path, model: Model):
    header = {"arch": asdict(model.arch),
              "trained_on": model.trained_on}
    arrays = [p[name] for p in model.params if p is not None
              for name in ("W", "b")]
    for arr in arrays:
        if arr.dtype != _DTYPE:
            raise CheckpointError(
                f"checkpoints hold float32 arrays, got {arr.dtype}")
    blob = b"".join([CHECKPOINT_MAGIC,
                     json.dumps(header, sort_keys=True).encode() + b"\n",
                     *(arr.tobytes() for arr in arrays)])
    with files.replacing(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path) -> Model:
    """Read a checkpoint; CheckpointError unless the file holds exactly
    the arrays its architecture needs, all finite, and nothing after
    them."""
    with open(path, "rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a "
                                  f"{CHECKPOINT_MAGIC.decode().strip()} file")
        line, payload = fh.readline(), fh.read()
    try:
        header = json.loads(line)
        arch = ArchitectureDescriptor(
            input_shape=tuple(header["arch"]["input_shape"]),
            layers=tuple(tuple(layer) for layer in header["arch"]["layers"]),
            num_classes=header["arch"]["num_classes"])
        trained_on = header["trained_on"]
        if not isinstance(trained_on, dict):
            raise TypeError(f"trained_on is {trained_on!r}, not an object")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckpointError(f"{path}: bad header: {exc!r}") from exc
    params, offset = [], 0
    for layer, shapes in enumerate(_param_shapes(arch)):
        params.append(None if shapes is None else {})
        for name, shape in zip(("W", "b"), shapes or ()):
            count = math.prod(shape)
            size = count * _DTYPE.itemsize
            if len(payload) - offset < size:
                raise CheckpointError(
                    f"{path}: truncated in layer {layer} {name}: "
                    f"{len(payload) - offset} of {size} bytes")
            arr = np.frombuffer(payload, _DTYPE, count, offset)
            bad = count - int(np.isfinite(arr).sum())
            if bad:
                raise CheckpointError(f"{path}: layer {layer} {name} holds "
                                      f"{bad} non-finite values")
            params[-1][name] = arr.reshape(shape).copy()
            offset += size
    if offset != len(payload):
        raise CheckpointError(f"{path}: trailing bytes after the last array")
    return Model(arch=arch, params=params, trained_on=trained_on)
