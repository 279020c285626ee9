"""Client fan-out: a map over items by the calling thread and forked
worker processes, each on one BLAS thread.  Nothing here knows about
layers or training: federated hands fan_out the function that trains
one client."""

import contextlib
import ctypes
import functools
import glob
import os
import pickle
import signal
import threading

import numpy as np


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
    procs = []
    with single_blas_thread() if workers > 1 else contextlib.nullcontext():
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
    forward in the worker cured it too.  Setting either threshold turns
    the dynamic ones off, so both are set.  Does nothing where the C
    library has no mallopt.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], \
        ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
