"""Fork-join over independent tasks, on the CPUs this process may use.

`fan_out(fn, tasks)` returns `list(map(fn, tasks))`.  The calls run on
min(len(tasks), CPUs in the process's affinity mask) processes: the calling
process works tasks itself, and the others are forked from it.  Forking
copies the caller's memory, so neither `fn` nor the tasks are pickled, and a
function patched in the caller is what the children run.  Only results and
exceptions travel back, pickled over one pipe per child.  A child pickles
its report onto the pipe as it writes it, and the caller unpickles it as it
reads it off the pipe, so neither holds a report as raw bytes next to the
results it holds.

Every process takes the next task not yet started from a shared dispatch
pipe, so a few slow tasks do not leave the other processes idle.  A task
that raises ends its process's share; the exception of the lowest-index
failing task is raised in the caller, as a serial loop would raise it.  An
exception that cannot cross the pipe arrives as a RuntimeError carrying its
traceback text.  A child that dies without reporting (a signal, an exit
status), whether before or in the middle of writing its report, is a
RuntimeError naming the cause; a child that exits 0 with a report that
cannot be read to its end is a RuntimeError too, chained to the unpickling
error.  Every child is reaped before `fan_out` returns or raises.  A fork
that fails (no process or memory left) leaves its share to the processes
already running.

The loop runs serially in the caller when only one process would run, when
the platform has no `os.fork`, inside a multiprocessing worker (a library
caller that runs the package in its own pool already uses the CPUs), inside
a task of another `fan_out` (in the caller or in a child), and while other
Python threads are alive (forking a threaded process can copy a lock some
other thread holds).

This is the only module of the package that starts processes.  Callers:
`lca.fit_lca` (one EM restart per task), `core.write_manifest` (one study
file per task, or the whole collection as one task when it holds fewer than
`core._BLOCK_VALUES` values), `core._write_rows` (a block of
`core._BLOCK_VALUES` values of a CSV file per task, for study files and the
scores file) and `core._read_studies` (one byte range of a study file per
task, every range of every file of a dataset in one call).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import struct
import sys
import threading
import traceback

_RECORD = struct.Struct("<I")
# The dispatch pipe holds every record before any process reads, in one write
# that fits the smallest buffer a Linux pipe has (one 4 KiB page).  Longer
# task lists are handed out in runs of consecutive tasks.
_MAX_RECORDS = 4096 // _RECORD.size

# True while a fan_out runs in this process; a forked child inherits it.
_active = False


class _ChildTraceback(Exception):
    """The traceback text of an exception raised in a child."""

    def __str__(self):
        return self.args[0]


def _n_processes(n_tasks: int) -> int:
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if _active or multiprocessing.parent_process() is not None:
        return 1
    if threading.active_count() > 1:
        return 1
    return min(n_tasks, len(os.sched_getaffinity(0)))


def _run_share(fn, tasks, dispatch: int, run: int) -> dict:
    """Work runs of tasks off the dispatch pipe until it is empty or a task
    raises; {task index: (ok, result or exception)}."""
    done = {}
    while True:
        record = os.read(dispatch, _RECORD.size)
        if not record:
            return done
        (start,) = _RECORD.unpack(record)
        for i in range(start, min(start + run, len(tasks))):
            try:
                done[i] = (True, fn(tasks[i]))
            except Exception as exc:
                done[i] = (False, exc)
                return done


def _wire_entry(ok: bool, value):
    """(ok, value, traceback text) as a child sends it: a failure carries its
    traceback text, and a value that cannot be pickled and read back becomes
    a RuntimeError with the traceback text of the failed attempt."""
    tb = "" if ok else "".join(traceback.format_exception(type(value), value, value.__traceback__))
    try:
        blob = pickle.dumps(value)
        if not ok:
            pickle.loads(blob)
        return ok, value, tb
    except Exception:
        what = "raised an exception" if not ok else "returned a result"
        return False, RuntimeError(
            f"a fan_out task {what} that cannot be sent back from its process:\n"
            f"{tb}{traceback.format_exc()}"
        ), ""


def _child(fn, tasks, dispatch: int, run: int, out: int, inherited):
    """A forked child's whole life: close the result pipes it inherited,
    work its share, send it, exit.  It never returns into the caller's
    code."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        done = _run_share(fn, tasks, dispatch, run)
        report = {i: _wire_entry(ok, v) for i, (ok, v) in done.items()}
        # Every entry pickles (_wire_entry saw to it), so the report is
        # streamed to the pipe, never held whole as bytes.
        with os.fdopen(out, "wb") as fh:
            pickle.dump(report, fh)
        code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def _death(pid: int, status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"fan_out worker process {pid} was killed by signal {signal.Signals(-code).name}"
    return f"fan_out worker process {pid} exited with status {code}"


def fan_out(fn, tasks) -> list:
    """`list(map(fn, tasks))`, with the calls spread over the CPUs of the
    process's affinity mask (see the module docstring)."""
    global _active
    tasks = list(tasks)
    n_procs = _n_processes(len(tasks))
    if n_procs < 2:
        return list(map(fn, tasks))

    run = -(-len(tasks) // _MAX_RECORDS)
    dispatch, feed = os.pipe()
    os.write(feed, b"".join(_RECORD.pack(s) for s in range(0, len(tasks), run)))
    os.close(feed)
    # Unwritten output would otherwise be written again by every child.
    sys.stdout.flush()
    sys.stderr.flush()
    children = {}  # pid -> read end of its result pipe, None once read
    _active = True
    try:
        for _ in range(n_procs - 1):
            inbox, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes or memory: fewer children
                os.close(inbox)
                os.close(out)
                break
            if pid == 0:
                _child(fn, tasks, dispatch, run, out, (inbox, *children.values()))
            os.close(out)
            children[pid] = inbox

        done = {i: (ok, v, "") for i, (ok, v) in _run_share(fn, tasks, dispatch, run).items()}
        for pid in list(children):
            inbox, children[pid] = children[pid], None
            with os.fdopen(inbox, "rb") as fh:
                try:
                    report = pickle.load(fh)
                except Exception as exc:  # cut short: the child's status tells why
                    report = exc
                    # Read the rest unkept, so the child, still writing,
                    # exits with its own status rather than a broken pipe.
                    while fh.read(1 << 16):
                        pass
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if status != 0:
                raise RuntimeError(_death(pid, status))
            if isinstance(report, Exception):
                raise RuntimeError(
                    f"fan_out worker process {pid} exited with status 0 but its report "
                    "cannot be read"
                ) from report
            done.update(report)
    finally:
        _active = False
        os.close(dispatch)
        for pid, inbox in children.items():
            if inbox is not None:
                os.close(inbox)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)

    failed = [i for i in sorted(done) if not done[i][0]]
    if failed:
        _, exc, tb = done[failed[0]]
        if tb:
            raise exc from _ChildTraceback(tb)
        raise exc
    return [done[i][1] for i in range(len(tasks))]
