"""The fork-join helper: results equal a serial map, the lowest-index failure
is raised as a serial loop would raise it, dead children and failed forks
are reported or absorbed, and each serial fallback (one CPU, no fork, a
nested task, another thread, a multiprocessing worker) holds."""

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from targeted_psm import _parallel
from targeted_psm._parallel import fan_out

CPUS = set(range(4))


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test that would hang instead of waiting forever."""

    def expire(signum, frame):
        raise TimeoutError("fan_out did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _two_processes(tmp_path, in_child, in_caller):
    """A task function for two tasks on two processes: each process's task
    waits until the other process has taken the other task, so each runs
    exactly one."""
    caller = os.getpid()

    def fn(i):
        where, other = ("caller", "child") if os.getpid() == caller else ("child", "caller")
        (tmp_path / where).touch()
        while not (tmp_path / other).exists():
            time.sleep(0.002)
        return (in_caller if where == "caller" else in_child)(i)

    return fn


def _square(i):
    return i * i


@pytest.mark.parametrize("n_tasks", [0, 1, 2, 7, 2500])
def test_results_equal_map(cpus, n_tasks):
    tasks = list(range(n_tasks))
    assert fan_out(_square, tasks) == list(map(_square, tasks))
    assert cpus.forks == min(max(n_tasks - 1, 0), 3)  # four CPUs


def test_results_come_back_from_the_child(cpus, tmp_path):
    fn = _two_processes(tmp_path, lambda i: ("child", i), lambda i: ("caller", i))
    out = fan_out(fn, [0, 1])
    assert sorted(who for who, _ in out) == ["caller", "child"]
    assert [i for _, i in out] == [0, 1]


class ChildError(ValueError):
    pass


class CallerError(LookupError):
    pass


def _raise(cls, where):
    def fail(i):
        raise cls(f"{where} task {i}")

    return fail


@pytest.mark.parametrize("failing", ["child", "caller", "both"])
def test_lowest_index_failure_is_raised(cpus, tmp_path, failing):
    cpus(2)
    in_child = _raise(ChildError, "child") if failing in ("child", "both") else (lambda i: i)
    in_caller = _raise(CallerError, "caller") if failing in ("caller", "both") else (lambda i: i)
    with pytest.raises((ChildError, CallerError)) as info:
        fan_out(_two_processes(tmp_path, in_child, in_caller), [0, 1])
    message = str(info.value)
    where = message.split()[0]
    assert type(info.value) is {"child": ChildError, "caller": CallerError}[where]
    if failing == "both":
        assert message.endswith("task 0")
    else:
        assert where == failing


def test_lowest_index_failure_among_many(cpus):
    def fn(i):
        if i in (5, 11, 17):
            raise ValueError(f"task {i}")
        time.sleep(0.001)
        return i

    with pytest.raises(ValueError, match="^task 5$"):
        fan_out(fn, range(40))


def test_child_exception_carries_its_traceback(cpus, tmp_path):
    cpus(2)
    with pytest.raises(ChildError) as info:
        fan_out(_two_processes(tmp_path, _raise(ChildError, "child"), lambda i: i), [0, 1])
    assert "ChildError: child task" in str(info.value.__cause__)
    assert "in fail" in str(info.value.__cause__)


class Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.callback = lambda: None


class NeedsTwoArguments(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


@pytest.mark.parametrize(
    "make", [lambda i: Unpicklable(f"odd {i}"), lambda i: NeedsTwoArguments(f"odd {i}", 3)],
    ids=["not-picklable", "not-readable"],
)
def test_exception_that_cannot_cross_arrives_as_runtime_error(cpus, tmp_path, make):
    cpus(2)

    def in_child(i):
        raise make(i)

    with pytest.raises(RuntimeError) as info:
        fan_out(_two_processes(tmp_path, in_child, lambda i: i), [0, 1])
    text = str(info.value)
    assert "cannot be sent back" in text
    assert f"{type(make(0)).__name__}: odd" in text
    assert "Traceback" in text and "in in_child" in text


def test_child_killed_by_a_signal(cpus, tmp_path):
    cpus(2)

    def in_child(i):
        os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(RuntimeError, match="killed by signal SIGKILL"):
        fan_out(_two_processes(tmp_path, in_child, lambda i: i), [0, 1])


def test_a_child_left_unread_when_another_dies_is_killed_and_reaped(cpus, tmp_path, monkeypatch):
    # Three processes, one task each: the first-forked child kills itself
    # while the second sleeps in its task.  Reading the first child's pipe
    # raises, and fan_out kills and reaps the second instead of waiting for
    # its report.
    monkeypatch.setattr(_parallel, "_n_processes", lambda n_tasks: 3)
    caller = os.getpid()
    names = ("caller", "child 1", "child 2")

    def fn(i):
        # a forked child sees the fork count of its own fork
        where = "caller" if os.getpid() == caller else f"child {cpus.forks}"
        (tmp_path / where).touch()
        while not all((tmp_path / name).exists() for name in names):
            time.sleep(0.002)
        if where == "child 1":
            os.kill(os.getpid(), signal.SIGKILL)
        if where == "child 2":
            time.sleep(30)
        return i

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="killed by signal SIGKILL"):
        fan_out(fn, [0, 1, 2])
    assert time.monotonic() - start < 10
    assert cpus.forks == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_child_that_exits_is_reported(cpus, tmp_path):
    cpus(2)
    with pytest.raises(RuntimeError, match="exited with status 3"):
        fan_out(_two_processes(tmp_path, lambda i: os._exit(3), lambda i: i), [0, 1])


# Several MB, far above a pipe's buffer: the child blocks in its write until
# the caller reads, so the report crosses the pipe in many reads.
LARGE = bytes(range(256)) * (16 << 10)


def test_a_result_larger_than_a_pipe_buffer_comes_back_equal(cpus, tmp_path):
    cpus(2)

    def large(i):
        return i, LARGE

    assert fan_out(_two_processes(tmp_path, large, large), [0, 1]) == [(0, LARGE), (1, LARGE)]


def _report_cut_short(monkeypatch, end):
    """Make a child write the first half of its report to the pipe and then
    call `end` (a death, or nothing for an exit with status 0)."""
    real_fdopen = os.fdopen

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            end()

    def fdopen(fd, mode="r", *args, **kwargs):
        fh = real_fdopen(fd, mode, *args, **kwargs)
        return HalfWriter(fh) if mode == "wb" else fh

    monkeypatch.setattr(os, "fdopen", fdopen)


@pytest.mark.parametrize("end, message", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal SIGKILL"),
    (lambda: os._exit(3), "exited with status 3"),
], ids=["killed", "exit-3"])
def test_a_child_that_dies_in_the_middle_of_its_report_is_reported(
        cpus, tmp_path, monkeypatch, end, message):
    cpus(2)
    _report_cut_short(monkeypatch, end)
    with pytest.raises(RuntimeError, match=f"^fan_out worker process \\d+ {message}$"):
        fan_out(_two_processes(tmp_path, lambda i: LARGE, lambda i: i), [0, 1])


@pytest.mark.parametrize("size", [LARGE, b"x"], ids=["large", "small"])
def test_a_report_cut_short_with_exit_status_0_is_a_runtime_error(
        cpus, tmp_path, monkeypatch, size):
    cpus(2)
    _report_cut_short(monkeypatch, lambda: None)
    with pytest.raises(RuntimeError, match="exited with status 0 but its report cannot be read"):
        fan_out(_two_processes(tmp_path, lambda i: size, lambda i: i), [0, 1])


def test_failed_fork_leaves_the_work_to_the_caller(cpus, monkeypatch):
    def fork():
        raise BlockingIOError("no process left")

    monkeypatch.setattr(os, "fork", fork)
    assert fan_out(_square, range(6)) == [i * i for i in range(6)]


def test_serial_on_one_cpu(cpus):
    cpus(1)
    assert fan_out(_square, range(6)) == [i * i for i in range(6)]
    assert cpus.forks == 0


def test_serial_without_fork(cpus, monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert fan_out(_square, range(6)) == [i * i for i in range(6)]


def test_serial_while_another_thread_runs(cpus):
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert fan_out(_square, range(6)) == [i * i for i in range(6)]
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert cpus.forks == 0


def test_serial_when_nested_in_a_task(cpus):
    def outer(i):
        before = cpus.forks
        inner = fan_out(_square, range(i, i + 4))
        return inner, cpus.forks - before

    out = fan_out(outer, range(6))
    assert [inner for inner, _ in out] == [[j * j for j in range(i, i + 4)] for i in range(6)]
    assert [nested_forks for _, nested_forks in out] == [0] * 6
    assert cpus.forks == 3


def _forks_of_a_call_in_this_process():
    """fan_out on four pretend CPUs in this process; (results, forks made)."""
    made = []
    real_fork, real_affinity = os.fork, os.sched_getaffinity

    def fork():
        made.append(1)
        return real_fork()

    os.fork, os.sched_getaffinity = fork, (lambda pid: CPUS)
    try:
        return fan_out(_square, range(6)), len(made)
    finally:
        os.fork, os.sched_getaffinity = real_fork, real_affinity


def test_serial_inside_a_multiprocessing_worker():
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        results, made = pool.submit(_forks_of_a_call_in_this_process).result(timeout=30)
    assert results == [i * i for i in range(6)]
    assert made == 0
