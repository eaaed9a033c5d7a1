"""Study files on every CPU: the ranged reader gives the bits of one
np.loadtxt over the file, reads a whole dataset in one fork-join (none below
one range of data bytes), checks every header before any data line, and
names the earliest bad line by its file line wherever it was parsed; the
block writer writes the bytes of one np.savetxt, and write_manifest writes
the bytes of a serial loop, forking only for a collection above the work
floor."""

import io
import json
import math
import os
import re
import time

import numpy as np
import pytest

from targeted_psm import core
from targeted_psm.core import (
    Study,
    StudyCollection,
    load_collection,
    read_study_csv,
    write_manifest,
    write_study_csv,
)

HEADER = "y,x1,x2,z1"


def _rows(n, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    x = rng.standard_normal((n, 2))
    z = (rng.random(n) < 0.5).astype(float)
    return [f"{a:.17g},{b:.17g},{c:.17g},{d:.17g}" for a, b, c, d in zip(y, *x.T, z)]


def _file(tmp_path, lines, end="\n", last_end=True, name="study.csv"):
    path = tmp_path / name
    text = end.join([HEADER] + lines) + (end if last_end else "")
    path.write_bytes(text.encode())
    return path


def _matrix(study):
    return np.column_stack([study.outcomes, study.predictors, study.structure_vars])


def _bits(study):
    return _matrix(study).tobytes()


def _loadtxt_bits(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).tobytes()


LAYOUTS = {
    "plain": dict(lines=_rows(7)),
    "no trailing newline": dict(lines=_rows(7), last_end=False),
    "crlf": dict(lines=_rows(7), end="\r\n"),
    "crlf, no trailing newline": dict(lines=_rows(7), end="\r\n", last_end=False),
    "blank lines": dict(lines=["", *_rows(3), "", "", *_rows(4, seed=1), "", ""]),
    "trailing comment": dict(lines=[*_rows(7), "# written by hand"]),
    "single row": dict(lines=_rows(1)),
    # np.loadtxt reads a file by name with universal newlines
    "a lone \\r between rows": dict(lines=[*_rows(3), "\r".join(_rows(3, seed=1)), *_rows(2)]),
}


@pytest.mark.parametrize("layout", LAYOUTS, ids=str)
def test_every_range_size_gives_the_bits_of_one_loadtxt(tmp_path, monkeypatch, cpus, layout):
    cpus(1)
    # One byte to beyond the whole body: every range boundary falls once
    # mid-line, on a line's "\r" or "\n", and at a line start; at one byte
    # there are more ranges than rows.
    path = _file(tmp_path, **LAYOUTS[layout])
    expected = _loadtxt_bits(path)
    for size in range(1, path.stat().st_size + 2):
        monkeypatch.setattr(core, "_RANGE_BYTES", size)
        assert _bits(read_study_csv(path, study_id=0)) == expected, size


@pytest.mark.parametrize("size", [1, 23, 64, 97, 4096])
@pytest.mark.parametrize("layout", ["plain", "crlf", "blank lines", "trailing comment"])
def test_ranges_parsed_in_children_give_the_bits_of_one_loadtxt(
    tmp_path, monkeypatch, cpus, layout, size
):
    path = _file(tmp_path, **LAYOUTS[layout])
    monkeypatch.setattr(core, "_RANGE_BYTES", size)
    assert _bits(read_study_csv(path, study_id=0)) == _loadtxt_bits(path)
    n_ranges = -(-(path.stat().st_size - len(HEADER) - 1) // size)
    assert cpus.forks == min(n_ranges, 4) - 1


def test_a_small_file_is_read_without_forking(tmp_path, cpus, rng):
    path = tmp_path / "study.csv"
    write_study_csv(Study(rng.random(200), rng.random((200, 30)), np.ones((200, 5)), 0), path)
    assert path.stat().st_size < core._RANGE_BYTES
    read_study_csv(path, study_id=0)
    assert cpus.forks == 0


BAD_LINES = [
    ("0,abc,1,0", r"could not convert string 'abc' to float64 in column 2"),
    ("0,1,0", r"3 values, expected 4"),
    ("0,1,0,1,1", r"5 values, expected 4"),
]


@pytest.mark.parametrize("bad, reason", BAD_LINES)
@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_a_bad_line_in_the_last_range_names_its_file_line(tmp_path, monkeypatch, cpus, bad, reason, end):
    lines = [*_rows(3), "", "# note", *_rows(5, seed=1), bad]
    path = _file(tmp_path, lines, end=end)
    message = rf"^{re.escape(str(path))}: line {len(lines) + 1}: {reason}"
    monkeypatch.setattr(core, "_RANGE_BYTES", 40)
    with pytest.raises(ValueError, match=message) as fanned:
        read_study_csv(path, study_id=0)
    assert cpus.forks == 3
    cpus(1)
    with pytest.raises(ValueError, match=message):
        read_study_csv(path, study_id=0)
    monkeypatch.setattr(core, "_RANGE_BYTES", 1 << 20)
    with pytest.raises(ValueError, match=message):
        read_study_csv(path, study_id=0)
    reason = str(fanned.value).split(": ", 1)[1]
    assert "usecols" not in reason and "row" not in reason


def _fail_in_the_child(tmp_path, monkeypatch, cpus):
    """Two processes: the caller holds its first range until the child has
    failed to parse one of the others, so every failing range is the
    child's."""
    cpus(2)
    caller, started, failed = os.getpid(), tmp_path / "started", tmp_path / "failed"
    real = core._read_range

    def wait_for(marker):
        deadline = time.monotonic() + 30
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.005)

    def read_range(job):
        if os.getpid() == caller:
            if not started.exists():
                started.touch()
                wait_for(failed)
            return real(job)
        wait_for(started)
        try:
            return real(job)
        except ValueError:
            failed.touch()
            raise

    monkeypatch.setattr(core, "_read_range", read_range)


def test_a_bad_line_parsed_in_a_child_names_its_file_line(tmp_path, monkeypatch, cpus):
    lines = _rows(6) + ["0,1,zz,0"]
    path = _file(tmp_path, lines)
    monkeypatch.setattr(core, "_RANGE_BYTES", -(-(path.stat().st_size - len(HEADER) - 1) // 3))
    _fail_in_the_child(tmp_path, monkeypatch, cpus)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 8: could not convert string 'zz'") as exc:
        read_study_csv(path, study_id=0)
    assert type(exc.value.__cause__).__name__ == "_ChildTraceback"


@pytest.mark.parametrize("first, second", [BAD_LINES[:2], BAD_LINES[1:]], ids=["convert-width", "width-wide"])
def test_of_bad_lines_in_two_ranges_the_earlier_is_named(tmp_path, monkeypatch, cpus, first, second):
    lines = [*_rows(3), first[0], *_rows(5, seed=1), second[0], *_rows(2, seed=2)]
    path = _file(tmp_path, lines)
    message = rf"^{re.escape(str(path))}: line 5: {first[1]}"
    monkeypatch.setattr(core, "_RANGE_BYTES", 40)  # less than a line: one range per line
    with pytest.raises(ValueError, match=message):
        read_study_csv(path, study_id=0)
    assert cpus.forks == 3
    cpus(1)
    with pytest.raises(ValueError, match=message):
        read_study_csv(path, study_id=0)
    assert cpus.forks == 3


@pytest.mark.parametrize("lines", [[], [""], ["", "# nothing", ""]])
def test_a_file_without_data_rows_says_so(tmp_path, lines):
    path = _file(tmp_path, lines, last_end=bool(lines))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: no data rows$"):
        read_study_csv(path, study_id=0)


def _first_bad_line_scanned(lines, width):
    """The first bad line found by parsing every line alone, in order."""
    for i, line in enumerate(lines.splitlines()):
        try:
            row = core._parse_rows(line)
        except ValueError as exc:
            return i, re.sub(r" at row \d+,", " in", str(exc))
        if row.size and row.shape[1] != width:
            return i, f"{row.shape[1]} values, expected {width}"
    return None


def test_the_bisection_names_the_line_a_line_by_line_scan_names(rng):
    good = [row.encode() for row in _rows(4)] + [b"", b"# note", b"  "]
    bad = [row.encode() for row, _ in BAD_LINES] + [b"0,1,\xff,0", "0,1,\xe9,0".encode(), b"1,2,3,4,"]
    for _ in range(300):
        lines = [good[i] for i in rng.integers(len(good), size=rng.integers(0, 12))]
        for _ in range(rng.integers(0, 3)):
            lines.insert(rng.integers(len(lines) + 1), bad[rng.integers(len(bad))])
        end = [b"\n", b"\r\n", b"\r"][rng.integers(3)]
        body = end.join(lines) + end * int(rng.integers(2))
        assert core._bad_line(body, 4) == _first_bad_line_scanned(body, 4), body


@pytest.mark.parametrize("bad, reason", BAD_LINES)
def test_a_bad_last_line_is_found_in_logarithmic_parses(tmp_path, monkeypatch, cpus, bad, reason):
    n = 5001
    path = _file(tmp_path, [*_rows(n - 1), bad])
    monkeypatch.setattr(core, "_RANGE_BYTES", path.stat().st_size)  # one range
    cpus(1)
    calls = []
    real = core._parse_rows
    monkeypatch.setattr(core, "_parse_rows", lambda lines: calls.append(len(lines)) or real(lines))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line {n + 1}: {reason}"):
        read_study_csv(path, study_id=0)
    # the range's own parse, then the bisection's
    assert 1 < len(calls) <= 1 + 2 * math.ceil(math.log2(n)) + 2


@pytest.mark.parametrize("bad", [bad for bad, _ in BAD_LINES])
def test_a_failed_parse_without_a_bad_line_raises_the_parsers_error(tmp_path, monkeypatch, cpus,
                                                                     bad):
    # Should the bisection find no bad line in a range that fails to parse,
    # the range's own parse error is raised as the parser raised it, with no
    # line number made up for it.
    path = _file(tmp_path, [*_rows(5), bad])
    cpus(1)
    raised = []
    real = core._parse_rows

    def parse_rows(lines):
        try:
            return real(lines)
        except ValueError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(core, "_parse_rows", parse_rows)
    monkeypatch.setattr(core, "_bad_line", lambda lines, width: None)
    with pytest.raises(ValueError) as info:
        read_study_csv(path, study_id=0)
    assert len(raised) == 1 and info.value is raised[0]
    assert not re.search(r"line \d+", str(info.value))


def test_a_crlf_split_between_two_counting_reads_counts_once(tmp_path, monkeypatch, cpus):
    path = _file(tmp_path, [*_rows(6), "0,1,zz,0"], end="\r\n")
    raw = path.read_bytes()
    message = rf"^{re.escape(str(path))}: line 8: could not convert string 'zz'"
    cpus(1)
    # The lines before a bad line are counted in reads of _RANGE_BYTES from
    # the file's start; the first size splits the header's "\r\n".
    assert raw[len(HEADER) : len(HEADER) + 2] == b"\r\n"
    for size in range(len(HEADER) + 1, len(raw) + 1):
        monkeypatch.setattr(core, "_RANGE_BYTES", size)
        with pytest.raises(ValueError, match=message):
            read_study_csv(path, study_id=0)


@pytest.mark.parametrize("text", [
    b"", b"\n", b"\r", b"\r\n", b"0,1\n", b"0,1\r\n", b"0,1\r", b"\r\r\n", b"\n\r",
    b"\r\n\r\n", b"0\r1\r\n2\n",
], ids=["empty", "lf", "cr", "crlf", "line-lf", "line-crlf", "line-cr", "cr-crlf", "lf-cr",
        "blank-crlf-lines", "mixed"])
def test_line_ends_are_counted_as_splitlines_splits_at_every_read_size(monkeypatch, text):
    # Each prefix that ends a line is counted, with reads of every size:
    # a "\r\n" split between two reads is one line end, a lone "\r" is one.
    starts = [0, *(m.end() for m in re.finditer(rb"\r\n|\r|\n", text))]
    for size in range(1, len(text) + 2):
        monkeypatch.setattr(core, "_RANGE_BYTES", size)
        for stop in starts:
            fh = io.BytesIO(text + b"9,9\n")
            assert core._line_ends(fh, stop) == len(text[:stop].splitlines()), (size, stop)
            assert fh.tell() == stop


def test_the_lines_before_a_bad_line_are_counted_in_bounded_reads(tmp_path, monkeypatch, cpus):
    path = _file(tmp_path, [*_rows(40), "0,1,zz,0"])
    monkeypatch.setattr(core, "_RANGE_BYTES", 64)
    assert path.stat().st_size > 10 * core._RANGE_BYTES
    cpus(1)  # every range is read in this process, through the wrapped `open`
    reads = []
    real_open = open

    class Recorded:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def read(self, size=-1):
            reads.append(size)
            return self.fh.read(size)

    monkeypatch.setattr(core, "open", lambda *a, **kw: Recorded(real_open(*a, **kw)), raising=False)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 42: could not convert"):
        read_study_csv(path, study_id=0)
    assert reads and all(0 <= size <= core._RANGE_BYTES for size in reads), reads


@pytest.mark.parametrize("line", [1, 3])
def test_undecodable_bytes_name_their_file_line(tmp_path, line):
    lines = _rows(3)
    path = _file(tmp_path, lines)
    raw = path.read_bytes().split(b"\n")
    raw[line - 1] = raw[line - 1][:4] + b"\xff" + raw[line - 1][4:]
    path.write_bytes(b"\n".join(raw))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line {line}: "):
        read_study_csv(path, study_id=0)


def test_lines_ending_in_a_lone_carriage_return_are_refused(tmp_path):
    path = _file(tmp_path, _rows(2), end="\r")
    with pytest.raises(ValueError, match=r"lines must end in \\n or \\r\\n"):
        read_study_csv(path, study_id=0)


# ---------------------------------------------------------------------------
# The block writer
# ---------------------------------------------------------------------------

# Values np.savetxt formats in their own ways: signed zeros, subnormals, the
# ends of the float range, integer-valued floats and non-finite values.
BATTERY = [
    -0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300,
    1.7976931348623157e308, 3.0, -7.0, 2.0 ** 53, 1e16, 123456789012345678.0,
    0.1, 1 / 3, -2.5e-8, np.inf, -np.inf, np.nan,
]


def _savetxt(path, header, rows):
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def _battery_rows(n, width, seed=0):
    rng = np.random.default_rng(seed)
    values = np.resize(np.array(BATTERY), n * width)
    drawn = rng.random(n * width) < 0.3
    values[drawn] = rng.standard_normal(drawn.sum()) * 10.0 ** rng.integers(-8, 8, drawn.sum())
    return rng.permutation(values).reshape(n, width)


# Blocks of 12 values hold three rows of four: every row count k*3 - 1,
# k*3 and k*3 + 1.  A block of 3 values still holds one whole row.
ROW_COUNTS = [1, 2, 3, 4, 5, 6, 7, 14, 15, 16]


@pytest.mark.parametrize("block", [3, 12, 1 << 16])
@pytest.mark.parametrize("where", ["serial", "four"])
def test_the_block_writer_writes_the_bytes_of_one_savetxt(tmp_path, monkeypatch, cpus, where, block):
    if where == "serial":
        cpus(1)
    monkeypatch.setattr(core, "_BLOCK_VALUES", block)
    for n in ROW_COUNTS:
        rows = _battery_rows(n, 4, seed=n)
        expected, written = tmp_path / f"savetxt_{n}.csv", tmp_path / f"blocks_{n}.csv"
        _savetxt(expected, HEADER, rows)
        before = cpus.forks
        core._write_rows(written, HEADER, rows)
        assert written.read_bytes() == expected.read_bytes(), n
        n_blocks = -(-n // max(block // 4, 1))
        assert cpus.forks - before == (0 if where == "serial" else min(n_blocks, 4) - 1), n


def test_scores_are_written_as_savetxt_writes_a_column(tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(core, "_BLOCK_VALUES", 5)
    scores = _battery_rows(23, 1, seed=1)[:, 0]
    expected, written = tmp_path / "savetxt.csv", tmp_path / "scores.csv"
    _savetxt(expected, "score", scores)
    core.write_scores_csv(scores, written)
    assert written.read_bytes() == expected.read_bytes()
    assert cpus.forks == 3


@pytest.mark.parametrize("where", ["serial", "four"])
def test_a_failed_block_write_raises_what_savetxt_raises(tmp_path, monkeypatch, cpus, where):
    if where == "serial":
        cpus(1)
    monkeypatch.setattr(core, "_BLOCK_VALUES", 12)
    rows = _battery_rows(9, 4)
    raised = []
    for write in (_savetxt, core._write_rows):
        with pytest.raises(OSError) as exc:
            write(tmp_path, HEADER, rows)
        raised.append(type(exc.value))
    assert raised[0] is raised[1] is IsADirectoryError


# ---------------------------------------------------------------------------
# write_manifest and load_collection
# ---------------------------------------------------------------------------


def _collection(rng, K=4):
    def study(k, n):
        return Study(
            outcomes=rng.standard_normal(n),
            predictors=rng.standard_normal((n, 6)) * 1e3,
            structure_vars=(rng.random((n, 3)) < 0.5).astype(float),
            study_id=k,
        )

    return StudyCollection(target=study(0, 40), sources=tuple(study(k, 20 + k) for k in range(1, K + 1)))


def _check_manifest_bytes(tmp_path, coll, cpus):
    """The forks write_manifest made, after checking the bytes it wrote."""
    manifest = write_manifest(coll, tmp_path / "ds")
    made = cpus.forks
    for s in coll.studies:
        expected = tmp_path / f"serial_{s.study_id}.csv"
        write_study_csv(s, expected)
        assert (tmp_path / "ds" / f"study_{s.study_id}.csv").read_bytes() == expected.read_bytes()
    back = load_collection(manifest)
    assert [_bits(s) for s in back.studies] == [_bits(s) for s in coll.studies]
    return made


def _check_failed_write(tmp_path, cpus, coll):
    """A failed write raises the same on four pretend CPUs and on one."""
    raised = []
    for fan_out in (True, False):
        directory = tmp_path / f"ds{fan_out}"
        (directory / "study_3.csv").mkdir(parents=True)
        if not fan_out:
            cpus(1)
        with pytest.raises(OSError) as exc:
            write_manifest(coll, directory, force=True)
        raised.append(type(exc.value))
    assert raised[0] is raised[1] is IsADirectoryError


def test_write_manifest_writes_the_bytes_of_a_serial_loop(tmp_path, cpus, rng):
    # 1 300 values, below the floor: one task, written in the caller
    assert _check_manifest_bytes(tmp_path, _collection(rng), cpus) == 0


def test_a_failed_study_write_raises_what_the_serial_loop_raises(tmp_path, cpus, rng):
    _check_failed_write(tmp_path, cpus, _collection(rng))
    assert cpus.forks == 0


# The studies of _collection(rng) hold 400, 210, 220, 230 and 240 values.
# Above a floor of 500 or 100 each file is its own task: five tasks on four
# CPUs; each file's own blocks are formatted in its process.
@pytest.mark.parametrize("block", [500, 100])
def test_a_collection_above_the_floor_is_written_a_file_per_task_on_children(
    tmp_path, monkeypatch, cpus, rng, block
):
    monkeypatch.setattr(core, "_BLOCK_VALUES", block)
    assert _check_manifest_bytes(tmp_path, _collection(rng), cpus) == 3


@pytest.mark.parametrize("block", [500, 100])
def test_a_failed_write_on_children_raises_what_the_serial_loop_raises(
    tmp_path, monkeypatch, cpus, rng, block
):
    monkeypatch.setattr(core, "_BLOCK_VALUES", block)
    _check_failed_write(tmp_path, cpus, _collection(rng))
    assert cpus.forks == 3


@pytest.mark.parametrize("spare, tasks, n_forks", [(1, [5], 0), (0, [1] * 5, 3)],
                         ids=["one value short", "exactly one block"])
def test_a_collection_is_one_task_below_one_block_and_a_file_per_task_from_it(
    tmp_path, monkeypatch, cpus, rng, spare, tasks, n_forks
):
    coll = _collection(rng)
    values = sum(s.n * (1 + s.p + s.q) for s in coll.studies)
    monkeypatch.setattr(core, "_BLOCK_VALUES", values + spare)
    seen, real = [], core.fan_out

    def fan_out(fn, jobs):
        if fn is core._write_studies:
            seen.append([len(job) for job in jobs])
        return real(fn, jobs)

    monkeypatch.setattr(core, "fan_out", fan_out)
    assert _check_manifest_bytes(tmp_path, coll, cpus) == n_forks
    assert seen == [tasks]


def test_a_run_of_one_large_study_is_formatted_in_blocks_in_children(tmp_path, monkeypatch,
                                                                     cpus, rng):
    monkeypatch.setattr(core, "_BLOCK_VALUES", 100)
    coll = StudyCollection(target=_collection(rng, K=0).target)
    write_manifest(coll, tmp_path / "ds")
    assert cpus.forks == 3  # one task, its 400 values in four blocks
    expected = tmp_path / "serial.csv"
    _savetxt(expected, "y,x1,x2,x3,x4,x5,x6,z1,z2,z3", _matrix(coll.target))
    assert (tmp_path / "ds" / "study_0.csv").read_bytes() == expected.read_bytes()


# A dataset of K = 3 sources whose study files have these LAYOUTS, target first.
DATASET = ["plain", "crlf", "blank lines", "trailing comment"]


def _dataset(tmp_path, bad=None, header=None):
    """The manifest of DATASET written to tmp_path, with `bad` = {study:
    line} replacing each named study's last line and `header` = {study:
    header} its header."""
    bad, header = bad or {}, header or {}
    for k, layout in enumerate(DATASET):
        spec = dict(LAYOUTS[layout], name=f"study_{k}.csv")
        if k in bad:
            spec["lines"] = [*spec["lines"][:-1], bad[k]]
        path = _file(tmp_path, **spec)
        if k in header:
            path.write_bytes(path.read_bytes().replace(HEADER.encode(), header[k].encode(), 1))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"target": "study_0.csv",
                                    "sources": [f"study_{k}.csv" for k in range(1, len(DATASET))]}))
    return manifest


def _data_bytes(tmp_path):
    return sum(len(path.read_bytes().split(b"\n", 1)[1]) for path in tmp_path.glob("study_*.csv"))


def test_a_dataset_is_read_in_one_fork_join_with_the_bits_of_loadtxt(tmp_path, monkeypatch, cpus):
    manifest = _dataset(tmp_path)
    monkeypatch.setattr(core, "_RANGE_BYTES", 64)
    back = load_collection(manifest)
    assert [_bits(s) for s in back.studies] == [
        _loadtxt_bits(tmp_path / f"study_{k}.csv") for k in range(len(DATASET))]
    assert cpus.forks == 3


@pytest.mark.parametrize("spare, n_forks", [(0, 0), (-1, 3)], ids=["one range", "one byte more"])
def test_a_dataset_of_one_range_of_data_bytes_is_read_without_forking(tmp_path, monkeypatch, cpus,
                                                                      spare, n_forks):
    manifest = _dataset(tmp_path)
    monkeypatch.setattr(core, "_RANGE_BYTES", _data_bytes(tmp_path) + spare)
    load_collection(manifest)
    assert cpus.forks == n_forks


def test_a_bad_line_of_a_source_parsed_in_a_child_names_its_file_line(tmp_path, monkeypatch, cpus):
    manifest = _dataset(tmp_path, bad={2: "0,1,zz,0"})
    monkeypatch.setattr(core, "_RANGE_BYTES", 64)
    _fail_in_the_child(tmp_path, monkeypatch, cpus)
    line = 1 + len(LAYOUTS["blank lines"]["lines"])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(tmp_path / 'study_2.csv'))}: line {line}: "
                                         "could not convert string 'zz'") as exc:
        load_collection(manifest)
    assert type(exc.value.__cause__).__name__ == "_ChildTraceback"


@pytest.mark.parametrize("n_cpus", [4, 1])
def test_of_bad_lines_in_two_files_the_earlier_file_is_named(tmp_path, monkeypatch, cpus, n_cpus):
    cpus(n_cpus)
    manifest = _dataset(tmp_path, bad={1: BAD_LINES[1][0], 3: BAD_LINES[0][0]})
    monkeypatch.setattr(core, "_RANGE_BYTES", 64)
    line = 1 + len(LAYOUTS["crlf"]["lines"])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(tmp_path / 'study_1.csv'))}: line {line}: "
                                         f"{BAD_LINES[1][1]}"):
        load_collection(manifest)


@pytest.mark.parametrize("header, message", [
    ("y,x2,x1,z1", "header must be y,x1..xp,z1..zq in order"),
    ("y,x1,z1", "expected 2 predictor columns, found 1"),
    ("y,x1,x2,z1,z2", "expected 1 structure columns, found 2"),
])
def test_a_bad_header_in_the_last_source_is_refused_before_any_line_is_parsed(
    tmp_path, monkeypatch, cpus, header, message
):
    # the target's last line is bad too: no data line is parsed first
    manifest = _dataset(tmp_path, bad={0: BAD_LINES[0][0]}, header={len(DATASET) - 1: header})
    parsed = []
    monkeypatch.setattr(core, "_read_range", parsed.append)
    last = tmp_path / f"study_{len(DATASET) - 1}.csv"
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{last}: {message}')}"):
        load_collection(manifest)
    assert parsed == []


# Study 2 ("blank lines") holds seven rows before its last line.
@pytest.mark.parametrize("column, text, message", [
    (3, "2", "structure_vars[7, 0] must be a real number in {0, 1}, got 2.0"),
    (1, "nan", "predictors[7, 0] must be a real number in (-inf, inf), got nan"),
    (0, "inf", "outcomes[7] must be a real number in (-inf, inf), got inf"),
], ids=["z of 2", "nan predictor", "inf outcome"])
def test_a_value_that_breaks_a_study_rule_is_refused_naming_its_file(tmp_path, monkeypatch, cpus,
                                                                     column, text, message):
    cells = _rows(1, seed=3)[0].split(",")
    cells[column] = text
    manifest = _dataset(tmp_path, bad={2: ",".join(cells)})
    path = tmp_path / "study_2.csv"
    for n_cpus in (4, 1):
        cpus(n_cpus)
        monkeypatch.setattr(core, "_RANGE_BYTES", 64)
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}: {message}')}$"):
            load_collection(manifest)


@pytest.mark.parametrize(
    "manifest, key",
    [
        ("{not json", "Expecting property name"),
        ("[]", "the manifest must be a JSON object"),
        ("{}", "'target'"),
        ('{"target": 5}', "'target'"),
        ('{"target": "study_0.csv", "sources": "study_1.csv"}', "'sources'"),
        ('{"target": "study_0.csv", "sources": [1]}', "'sources'"),
    ],
)
def test_load_collection_checks_the_manifest_shape(tmp_path, rng, manifest, key):
    write_manifest(_collection(rng, K=1), tmp_path)
    path = tmp_path / "manifest.json"
    path.write_text(manifest)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*{key}"):
        load_collection(path)
