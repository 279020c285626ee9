import contextlib
import multiprocessing
import os
import signal
import threading
import time

import pytest

from fedaudit import fanout


@pytest.fixture
def blas_threads():
    """Reads the BLAS thread count, which is 2 for the test."""
    api = fanout._blas_thread_api()
    if api is None:
        pytest.skip("no scipy-openblas thread-count symbols in this numpy")
    get, set_ = api
    before = get()
    set_(2)
    yield get
    set_(before)


class Reports:
    """Lines that the test process and its fan-out workers append to one
    file: a worker's memory dies with it, so its spies report here."""

    def __init__(self, path):
        self.path = path
        path.touch()

    def add(self, *fields):
        with open(self.path, "a") as fh:
            fh.write(" ".join(map(str, fields)) + "\n")

    def read(self):
        return [line.split() for line in self.path.read_text().splitlines()]

    def from_workers(self):
        """The lines written by any process but this one."""
        me = str(os.getpid())
        return [line for line in self.read() if line[0] != me]

    def wait_for_worker(self, timeout=10):
        deadline = time.monotonic() + timeout
        while not self.from_workers():
            assert time.monotonic() < deadline, "no worker took an item"
            time.sleep(0.001)


@pytest.fixture
def reports(tmp_path):
    return Reports(tmp_path / "reports.txt")


class TestSingleBlasThread:
    def test_restores_count_after_block(self, blas_threads):
        with fanout.single_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_restores_count_after_exception(self, blas_threads):
        with pytest.raises(RuntimeError, match="inside the block"):
            with fanout.single_blas_thread():
                raise RuntimeError("inside the block")
        assert blas_threads() == 2

    def test_nested_use_restores_outer_count(self, blas_threads):
        with fanout.single_blas_thread():
            with fanout.single_blas_thread():
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_every_worker_computes_on_one_blas_thread(self, blas_threads,
                                                      reports):
        def fn(x):
            reports.add(os.getpid(), blas_threads())
            return x

        with fanout.fan_out(3, fn) as run:
            run(range(20), first=reports.wait_for_worker)
        assert {count for _, count in reports.from_workers()} == {"1"}
        assert blas_threads() == 2


def fan_out_once(fn, items, workers, first=None):
    """One map call in a fan-out of its own."""
    with fanout.fan_out(workers, fn) as run:
        return run(items, first)


def worker_pids():
    return {proc.pid for proc in multiprocessing.active_children()}


def assert_gone(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.fixture
def deadline():
    """Fail, rather than hang, a test still running after 60 s."""
    def expire(signum, frame):
        raise TimeoutError("the fan-out hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestMapWorkers:
    @pytest.mark.parametrize("workers", [1, 2, 3, 9])
    def test_results_in_item_order(self, workers):
        # 9 workers on fewer cores: 8 helper threads share the queue
        assert fan_out_once(lambda x: x * x, range(40), workers) == [
            x * x for x in range(40)]

    def test_one_worker_runs_first_then_items_inline(self):
        calls = []
        me = os.getpid(), threading.get_ident()
        fan_out_once(lambda x: calls.append((x, os.getpid(),
                                             threading.get_ident())),
                     range(3), 1,
                     first=lambda: calls.append(("first", *me)))
        assert calls == [("first", *me), (0, *me), (1, *me), (2, *me)]
        assert worker_pids() == set()

    def test_first_runs_on_the_caller_while_a_worker_takes_items(
            self, reports):
        def fn(x):
            reports.add(os.getpid(), x)
            return x

        def first():
            # returns once a worker has run an item
            reports.wait_for_worker()
            reports.add(os.getpid(), "first", threading.get_ident())

        assert fan_out_once(fn, range(4), 2, first=first) == [0, 1, 2, 3]
        me = str(os.getpid())
        lines = reports.read()
        assert [me, "first", str(threading.get_ident())] in lines
        assert lines[0][0] != me

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("failing", ["item", "first"])
    def test_first_error_stops_the_queue(self, reports, workers, failing):
        def fn(x):
            reports.add(os.getpid(), x)
            if failing == "item" and x == 0:
                raise RuntimeError("boom")
            time.sleep(0.01)
            return x

        def first():
            if failing == "first":
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="^boom$"):
            fan_out_once(fn, range(100), workers, first=first)
        assert len(reports.read()) < 10

    def test_no_more_workers_than_items(self):
        with fanout.fan_out(64, lambda x: x) as run:
            assert run(range(3)) == [0, 1, 2]
            # the caller takes the third item
            assert len(worker_pids()) == 2
            assert run([]) == []
            assert len(worker_pids()) == 2
        assert worker_pids() == set()

    def test_the_same_workers_serve_every_call(self, reports):
        def workers_of_one_call(run):
            reports.path.write_text("")
            run(range(4), first=reports.wait_for_worker)
            return {pid for pid, _ in reports.from_workers()}

        with fanout.fan_out(2, lambda x: reports.add(os.getpid(), x)) as run:
            first = workers_of_one_call(run)
            assert len(first) == 1
            assert workers_of_one_call(run) == first
            assert {str(pid) for pid in worker_pids()} == first

    @pytest.mark.parametrize("failing", [None, "item", "first",
                                         "interrupt"])
    def test_no_worker_outlives_the_block(self, deadline, failing):
        pids = []

        def fn(x):
            if failing == "item":
                raise RuntimeError("boom")
            return x

        def first():
            pids.extend(worker_pids())
            if failing == "first":
                raise RuntimeError("boom")
            if failing == "interrupt":
                raise KeyboardInterrupt

        with contextlib.suppress(RuntimeError, KeyboardInterrupt):
            fan_out_once(fn, range(6), 3, first=first)
        assert len(pids) == 2
        assert worker_pids() == set()
        assert_gone(pids)

    def test_a_dying_worker_raises_a_named_error(self, deadline, reports):
        caller = os.getpid()
        pids = []

        def fn(x):
            reports.add(os.getpid(), x)
            if os.getpid() != caller:
                os._exit(1)
            return x

        def first():
            pids.extend(worker_pids())
            reports.wait_for_worker()

        with pytest.raises(fanout.WorkerDiedError, match="exit code 1 "):
            fan_out_once(fn, range(4), 2, first=first)
        assert len(pids) == 1
        assert worker_pids() == set()
        assert_gone(pids)

    def test_unpicklable_error_keeps_type_and_message(self, reports):
        class Local(ValueError):
            def __init__(self, a, b):
                super().__init__(f"{a} and {b}")

        caller = os.getpid()

        def fn(x):
            reports.add(os.getpid(), x)
            if os.getpid() != caller:
                raise Local("this", "that")
            return x

        with pytest.raises(RuntimeError, match="^Local: this and that$"):
            fan_out_once(fn, range(4), 2, first=reports.wait_for_worker)


class TestFanOutWidth:
    def test_usable_cores_with_scipy_openblas(self, monkeypatch):
        monkeypatch.setattr(fanout, "_blas_thread_api", lambda: (None, None))
        monkeypatch.setattr(fanout.os, "sched_getaffinity",
                            lambda pid: {0, 3, 5})
        assert fanout.fan_out_width() == 3

    def test_one_without_scipy_openblas(self, monkeypatch):
        monkeypatch.setattr(fanout, "_blas_thread_api", lambda: None)
        monkeypatch.setattr(fanout.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2})
        assert fanout.fan_out_width() == 1
