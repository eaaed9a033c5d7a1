"""Shared building blocks: canonical-link GLM families, study containers,
coefficient/membership matrices, and the on-disk dataset format.

Conventions used throughout the package:

* study 0 is always the target study; sources carry ids 1..K,
* linear predictors are clamped to [-700, 700] before exponentiation,
* every probability that feeds a weighted fit is kept inside
  [EPS_CLIP, 1 - EPS_CLIP] so that no observation weight collapses to zero,
* every model choice (CV penalty, latent class restart, BIC class count,
  class alignment) is `first_best`, the first lowest score, and every EM
  stop test `em_converged`, relative to a positive scale, absolute at 0,
* every input rule is `check_count` (an integer in a range) or
  `check_real` (real numbers in an interval, or in the set {0, 1}),
  called before the input is converted.

Every numeric CSV is written by `_write_rows` (through `write_study_csv`,
`write_scores_csv` and `write_manifest`) and every study file read by
`_read_studies` (a dataset through `load_collection`, one file through
`read_study_csv`); their docstrings say how each spreads over the CPUs.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._parallel import fan_out

# Clamp for linear predictors: exp(700) is still finite in float64.
ETA_CLAMP = 700.0

# Global floor/ceiling for membership and prevalence probabilities.
EPS_CLIP = 1e-6

# Bytes per parse task of _read_studies (a byte range of one study file), and
# its floor: a dataset of at most this many data bytes is parsed unforked.
_RANGE_BYTES = 1 << 19

# Values per format task of _write_rows, and write_manifest's floor for one
# task per study file.
_BLOCK_VALUES = 1 << 16


def clamp_eta(eta):
    """Clamp linear predictors to the numerically safe range."""
    return np.clip(eta, -ETA_CLAMP, ETA_CLAMP)


def _sigmoid(eta):
    # Overflow-free logistic mean: with e = exp(-|eta|), 1/(1+e) where
    # eta >= 0 and e/(1+e) elsewhere, the two-branch form's bits, no masks.
    eta = np.asarray(eta, dtype=float)
    e = np.exp(-np.abs(eta))
    d = 1.0 + e
    return np.where(eta >= 0, 1.0 / d, e / d)


# ---------------------------------------------------------------------------
# GLM families
# ---------------------------------------------------------------------------

_FAMILY_KINDS = ("logistic", "gaussian")


@dataclass(frozen=True)
class GlmFamily:
    """Canonical-link exponential family, identified by its log-partition
    function g.  Only g, g', g'' and the dispersion enter the algorithms.

    kind        "logistic" (g = softplus) or "gaussian" (g(x) = x^2/2)
    dispersion  a(phi); fixed at 1 for logistic, configurable for gaussian
    """

    kind: str
    dispersion: float = 1.0

    def __post_init__(self):
        if self.kind not in _FAMILY_KINDS:
            raise ValueError(f"unknown GLM family kind: {self.kind!r}")
        check_real("dispersion", self.dispersion, "(0, inf)")
        if self.kind == "logistic" and self.dispersion != 1.0:
            raise ValueError("logistic family has fixed dispersion 1")

    @classmethod
    def logistic(cls) -> "GlmFamily":
        return cls("logistic", 1.0)

    @classmethod
    def gaussian(cls, dispersion: float = 1.0) -> "GlmFamily":
        return cls("gaussian", dispersion)

    # -- log-partition and derivatives ------------------------------------

    def log_partition(self, eta):
        """g(eta); logistic uses the overflow-safe softplus."""
        if self.kind == "logistic":
            return np.logaddexp(0.0, clamp_eta(eta))
        return 0.5 * np.square(np.asarray(eta, dtype=float))

    def mean(self, eta):
        """g'(eta): the mean function (logistic sigmoid / identity)."""
        if self.kind == "logistic":
            return _sigmoid(clamp_eta(eta))
        return np.asarray(eta, dtype=float)

    def variance(self, mu):
        """V(mu), the GLM variance function of the mean: mu(1 - mu) for
        logistic, 1 for gaussian.  variance(mean(eta)) is g''(eta), the
        IRLS curvature."""
        mu = np.asarray(mu, dtype=float)
        if self.kind == "logistic":
            return mu * (1.0 - mu)
        return np.ones_like(mu)

    def log_density(self, y, eta):
        """log f(y | eta) up to the additive c(y, phi) term.

        Exact for logistic outcomes in {0, 1}; for gaussian the dropped
        term does not depend on eta, so density *ratios* across classes
        are exact, which is all the membership updates need.  It is
        -neg_log_lik_glm at the clamped eta over the dispersion, so a NaN
        eta is a ValueError.
        """
        return -neg_log_lik_glm(self, y, clamp_eta(eta)) / self.dispersion

    def validate_outcomes(self, y, name: str = "outcomes") -> None:
        """ValueError unless y suits the family: 0/1 for logistic, finite
        for gaussian; the message calls y `name`."""
        check_real(name, y, "{0, 1}" if self.kind == "logistic" else "(-inf, inf)")


def neg_log_lik_glm(family: GlmFamily, y, eta):
    """Per-observation negative log-likelihood  -y*eta + g(eta).

    The dispersion divisor is omitted (it rescales every candidate by the
    same constant); etas must be finite.
    """
    check_real("eta", eta, "(-inf, inf)")
    eta = np.asarray(eta, dtype=float)
    return -np.asarray(y, dtype=float) * eta + family.log_partition(eta)


# ---------------------------------------------------------------------------
# Row-stochastic helpers
# ---------------------------------------------------------------------------


def sorted_row_sums(a: np.ndarray) -> np.ndarray:
    """Row sums with a canonical (ascending) summation order so that
    permuting columns never changes the result, not even in the last ulp."""
    return np.sort(a, axis=1).sum(axis=1)


def log_sum_exp_rows(a: np.ndarray) -> np.ndarray:
    """Stable log(sum(exp(rows))), permutation-exact via sorted summation."""
    m = np.max(a, axis=1)
    return m + np.log(sorted_row_sums(np.exp(a - m[:, None])))


def sorted_square_norm(a: np.ndarray) -> float:
    """Frobenius norm with a canonical (ascending) summation order: any
    rearrangement of the entries gives the bit-identical result."""
    sq = np.sort(np.square(np.asarray(a, dtype=float)).ravel())
    return float(np.sqrt(sq.sum()))


def clip_rows(probs: np.ndarray) -> np.ndarray:
    """Force each row into the simplex with entries in [EPS_CLIP, 1 - EPS_CLIP].

    Normalize, then waterfill: entries below EPS_CLIP are pinned to exactly it
    and the remaining entries are rescaled to absorb the deficit, repeating
    until no entry violates the floor (at most C passes).  Row sums land
    within a few ulp of 1 and, because every reduction uses the sorted
    (canonical) summation order, the result is exactly equivariant under
    column permutations.  Single-column inputs degenerate to exact ones.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 2:
        raise ValueError("expected a 2-d array of row probabilities")
    n, C = probs.shape
    if C == 1:
        return np.ones_like(probs)
    if C * EPS_CLIP >= 1.0:
        raise ValueError("too many columns for the EPS_CLIP floor")
    v = np.maximum(probs, 0.0)
    sums = sorted_row_sums(v)
    dead = sums <= 0.0
    if np.any(dead):
        v[dead] = 1.0
        sums[dead] = float(C)
    v = v / sums[:, None]
    if not (v < EPS_CLIP).any():
        return v
    pinned = np.zeros_like(v, dtype=bool)
    for _ in range(C):
        low = ~pinned & (v < EPS_CLIP)
        if not np.any(low):
            break
        pinned |= low
        free_target = 1.0 - pinned.sum(axis=1) * EPS_CLIP
        free_sum = sorted_row_sums(np.where(pinned, 0.0, v))
        scale = np.where(
            free_sum > 0.0, free_target / np.maximum(free_sum, 1e-300), 1.0
        )
        v = np.where(pinned, EPS_CLIP, v * scale[:, None])
    return v


# ---------------------------------------------------------------------------
# Discrete choices, EM stop tests and count settings
# ---------------------------------------------------------------------------


def first_best(scores):
    """Index of the first lowest score (lower is better), row by row for a
    2-d array.

    Every model choice of the package is this rule: each caller orders its
    candidates so that the first is the one it prefers on a tie.  A NaN
    score is a ValueError.
    """
    check_real("scores", scores, "[-inf, inf]")
    scores = np.asarray(scores, dtype=float)
    index = np.argmin(scores, axis=-1)
    return int(index) if scores.ndim == 1 else index


def em_converged(change: float, scale: float, tol: float) -> bool:
    """The stop test of every EM loop: relative (change <= tol * scale)
    while the scale of the previous state is positive, absolute
    (change <= tol) at 0."""
    return change <= tol * scale if scale > 0.0 else change <= tol


def check_count(name: str, value, minimum: int, maximum: int = None) -> None:
    """The package's one integer rule (counts, class counts and labels, seeds,
    study ids and rows): ValueError unless `value` is an integer (a bool is
    not) >= minimum and, when `maximum` is given, <= maximum."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum
            or (maximum is not None and value > maximum)):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def check_real(name: str, value, interval: str) -> None:
    """The package's one real-number rule: ValueError unless `value` (a
    scalar, a list or tuple, flat or nested, or a numpy array of any shape)
    holds only Python or numpy ints and floats (no bool) in `interval`,
    written as it reads: an interval ("[0, inf]", "(0, 1)") or a set of two
    values ("{0, 1}").  NaN fails every bound and every set.  Nothing is
    converted.

    The message has one form: the name, the index of the first bad entry in
    row-major order when `value` is not a scalar, and the entry
    (`values[2, 0] must be a real number in (-inf, inf), got '0.5'`).  An
    int or float array passes in one vectorized test: every entry against a
    set, np.isfinite for (-inf, inf), else its min and max, which lie in the
    interval exactly when every entry does (a NaN entry makes both NaN).  A
    flat list or tuple whose items are all of type `float` exactly (a
    fit's trace) takes the same test as an array.  Only a value that fails
    it is searched item by item for its first bad entry.
    """
    low, high = (float(b) for b in interval[1:-1].split(","))

    def inside(v):
        if interval[0] == "{":
            return (v == low) | (v == high)
        return ((low <= v) if interval[0] == "[" else (low < v)) & (
            (v <= high) if interval[-1] == "]" else (v < high))

    def first_bad(v):
        # (index, entry) of the first bad entry of v in row-major order, or None
        if isinstance(v, np.ndarray) and v.dtype.kind in "iuf":
            if v.size == 0 or (inside(v).all() if interval[0] == "{"
                               else np.isfinite(v).all() if interval == "(-inf, inf)"
                               else inside(v.min()) and inside(v.max())):
                return None
            index = tuple(int(i) for i in np.argwhere(~inside(v))[0])
            return index, v[index]
        if isinstance(v, np.ndarray) and v.dtype.kind != "O":
            # bool, string, complex, ...: no entry is a real number
            return None if v.size == 0 else ((0,) * v.ndim, v.flat[0])
        if isinstance(v, (list, tuple)) and v and set(map(type, v)) == {float}:
            if first_bad(np.array(v)) is None:
                return None
        if isinstance(v, (list, tuple, np.ndarray)):
            items = np.ndenumerate(v) if isinstance(v, np.ndarray) else (
                ((i,), item) for i, item in enumerate(v))
            for index, item in items:
                bad = first_bad(item)
                if bad is not None:
                    return index + bad[0], bad[1]
            return None
        if (isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating))
                or not inside(v)):
            return (), v
        return None

    bad = first_bad(value)
    if bad is not None:
        index, entry = bad
        at = f"[{', '.join(map(str, index))}]" if index else ""
        entry = entry.item() if isinstance(entry, np.generic) else entry
        raise ValueError(f"{name}{at} must be a real number in {interval}, got {entry!r}")


# ---------------------------------------------------------------------------
# Study containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Study:
    """One study's data: outcomes y (n,), predictors X (n, p) and binary
    structure variables Z (n, q) used for subpopulation matching."""

    outcomes: np.ndarray
    predictors: np.ndarray
    structure_vars: np.ndarray
    study_id: int

    def __post_init__(self):
        check_real("outcomes", self.outcomes, "(-inf, inf)")
        check_real("predictors", self.predictors, "(-inf, inf)")
        check_real("structure_vars", self.structure_vars, "{0, 1}")
        y = np.ascontiguousarray(self.outcomes, dtype=float)
        x = np.ascontiguousarray(self.predictors, dtype=float)
        z = np.ascontiguousarray(self.structure_vars, dtype=float)
        if y.ndim != 1:
            raise ValueError("outcomes must be a 1-d array")
        if x.ndim != 2 or z.ndim != 2:
            raise ValueError("predictors and structure_vars must be 2-d")
        n = y.shape[0]
        if n < 1:
            raise ValueError("a study needs at least one subject")
        if x.shape[0] != n or z.shape[0] != n:
            raise ValueError("row counts of y, X, Z must agree")
        check_count("study_id", self.study_id, 0)
        object.__setattr__(self, "outcomes", y)
        object.__setattr__(self, "predictors", x)
        object.__setattr__(self, "structure_vars", z)

    @property
    def n(self) -> int:
        return self.outcomes.shape[0]

    @property
    def p(self) -> int:
        return self.predictors.shape[1]

    @property
    def q(self) -> int:
        return self.structure_vars.shape[1]


@dataclass(frozen=True)
class StudyCollection:
    """Target study (id 0) plus K source studies (ids 1..K).

    Sources are stored sorted by study_id, so the collection --- and every
    fit downstream --- is invariant to the order sources are supplied in.
    """

    target: Study
    sources: tuple = ()

    def __post_init__(self):
        sources = tuple(sorted(self.sources, key=lambda s: s.study_id))
        if self.target.study_id != 0:
            raise ValueError("target study must carry study_id 0")
        ids = [s.study_id for s in sources]
        if ids != list(range(1, len(sources) + 1)):
            raise ValueError("source study_ids must be exactly 1..K")
        for s in sources:
            if s.p != self.target.p or s.q != self.target.q:
                raise ValueError("all studies must share p and q")
        object.__setattr__(self, "sources", sources)

    @property
    def studies(self) -> tuple:
        return (self.target,) + self.sources

    @property
    def K(self) -> int:
        return len(self.sources)

    @property
    def p(self) -> int:
        return self.target.p

    @property
    def q(self) -> int:
        return self.target.q

    @property
    def n0(self) -> int:
        return self.target.n

    @property
    def n_total(self) -> int:
        return sum(s.n for s in self.studies)

    @property
    def sizes(self) -> tuple:
        return tuple(s.n for s in self.studies)

    def row_slices(self):
        """Per-study slices into the rows of all studies, target first."""
        out, start = [], 0
        for s in self.studies:
            out.append(slice(start, start + s.n))
            start += s.n
        return out


# ---------------------------------------------------------------------------
# Coefficient and membership matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientMatrix:
    """Class-specific GLM coefficients: values is (p, C) with one column per
    latent class; the unpenalized intercept (when fitted) lives separately.
    What a matrix stands for (pooled B, correction Delta, target B0, a
    study's true B_k) is told by the name that holds it, such as
    `TransferFit.b_pooled`."""

    values: np.ndarray
    intercept: np.ndarray = None

    def __post_init__(self):
        check_real("values", self.values, "(-inf, inf)")
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("coefficient values must be a (p, C) matrix")
        intercept = self.intercept
        if intercept is None:
            intercept = np.zeros(values.shape[1])
        check_real("intercept", intercept, "(-inf, inf)")
        intercept = np.ascontiguousarray(intercept, dtype=float)
        if intercept.shape != (values.shape[1],):
            raise ValueError("intercept must have one entry per class")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "intercept", intercept)

    @property
    def n_features(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]

    def linear_predictor(self, X: np.ndarray) -> np.ndarray:
        """Per-class linear predictors: (n, C) = X @ values + intercept."""
        X = np.asarray(X, dtype=float)
        return X @ self.values + self.intercept


@dataclass(frozen=True)
class MembershipMatrix:
    """Per-study membership probabilities: one (n_k, C) row-stochastic block
    per study, rows clipped into [EPS_CLIP, 1 - EPS_CLIP] (C >= 2)."""

    probs: tuple

    def __post_init__(self):
        check_real("probs", self.probs, "[0, 1]")
        blocks = tuple(np.ascontiguousarray(b, dtype=float) for b in self.probs)
        if not blocks:
            raise ValueError("membership matrix needs at least one study block")
        C = blocks[0].shape[1]
        for b in blocks:
            if b.ndim != 2 or b.shape[1] != C:
                raise ValueError("all study blocks must share the class count")
            if np.max(np.abs(b.sum(axis=1) - 1.0)) > 1e-12:
                raise ValueError("membership rows must sum to 1 (tol 1e-12)")
            if C >= 2 and (b.min() < EPS_CLIP - 1e-15 or b.max() > 1.0 - EPS_CLIP + 1e-15):
                raise ValueError("membership entries must lie in [eps, 1 - eps]")
        object.__setattr__(self, "probs", blocks)

    @property
    def n_classes(self) -> int:
        return self.probs[0].shape[1]

    @property
    def n_studies(self) -> int:
        return len(self.probs)

    def stacked(self) -> np.ndarray:
        return np.vstack(self.probs)


# ---------------------------------------------------------------------------
# Dataset format: one CSV per study + a JSON manifest
# ---------------------------------------------------------------------------


def _csv_header(p: int, q: int) -> str:
    cols = ["y"] + [f"x{j}" for j in range(1, p + 1)] + [f"z{j}" for j in range(1, q + 1)]
    return ",".join(cols)


def _format_rows(rows: np.ndarray) -> bytes:
    """The lines np.savetxt(fmt="%.17g", delimiter=",") writes for `rows`."""
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return ((line * rows.shape[0]) % tuple(rows.ravel().tolist())).encode()


def _write_rows(path, header: str, rows: np.ndarray) -> None:
    """Write `header` and the rows of a 2-d float array to `path`, byte for
    byte as np.savetxt(path, rows, fmt="%.17g", delimiter=",",
    header=header, comments="") writes them.  The rows are formatted in
    blocks of _BLOCK_VALUES values (whole rows, at least one), one fan_out
    task each, and written in order; a file of one block is formatted in
    the caller without forking."""
    step = max(_BLOCK_VALUES // rows.shape[1], 1)
    blocks = fan_out(_format_rows, [rows[i : i + step] for i in range(0, rows.shape[0], step)])
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.writelines(blocks)


def write_study_csv(study: Study, path) -> None:
    """Write a study as CSV with header y,x1..xp,z1..zq."""
    data = np.column_stack(
        [study.outcomes, study.predictors, study.structure_vars]
    )
    _write_rows(path, _csv_header(study.p, study.q), data)


def write_scores_csv(scores, path) -> None:
    """Write predicted scores as a one-column CSV with header score."""
    _write_rows(path, "score", np.reshape(np.asarray(scores, dtype=float), (-1, 1)))


def _parse_rows(lines: bytes) -> np.ndarray:
    """np.loadtxt over `lines` as text in the default encoding, where only
    "\\n" ends a line: a "\\r\\n" line parses as its "\\n" twin, a "\\r"
    inside a line is a ValueError, and a "\\r" that ends the last line
    parses as a line end."""
    with warnings.catch_warnings():
        # a range or a line of blank or comment lines holds no data
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(io.TextIOWrapper(io.BytesIO(lines), newline="\n"), delimiter=",", ndmin=2)


def _bad_line(lines: bytes, width: int):
    """(index, reason) of the first of `lines` that is not `width` numbers,
    or None if there is none.

    A run of lines parses to `width` numbers a line (or to nothing) exactly
    when each of its lines does alone.  So halving the run that holds the
    first bad line, parsing only its first half, finds that line in
    ceil(log2 n) + 1 `_parse_rows` calls over about len(lines) bytes in
    all; the reason is read from the line parsed alone.
    """
    ends = [0, *itertools.accumulate(map(len, io.BytesIO(lines).readlines()))]

    def reason(first: int, stop: int):
        try:
            rows = _parse_rows(lines[ends[first] : ends[stop]])
        except ValueError as exc:
            return re.sub(r" at row \d+,", " in", str(exc))
        if rows.size and rows.shape[1] != width:
            return f"{rows.shape[1]} values, expected {width}"
        return None

    # Lines before `lo` are good; the first bad line, if any, is in [lo, hi).
    lo, hi = 0, len(ends) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reason(lo, mid) is None:
            lo = mid
        else:
            hi = mid
    found = reason(lo, hi) if hi > lo else None
    return None if found is None else (lo, found)


def _line_ends(fh, stop: int) -> int:
    """The number of "\\n" line ends in the next `stop` bytes of the binary
    file `fh`, read at most _RANGE_BYTES at a time."""
    return sum(fh.read(min(_RANGE_BYTES, stop - offset)).count(b"\n")
               for offset in range(0, stop, _RANGE_BYTES))


def _read_range(job) -> np.ndarray:
    """The rows of the lines that start in bytes [start, stop) of a study
    file, parsed as _parse_rows parses the whole file.  A line that is not
    `width` numbers is a ValueError naming the file and the 1-based number
    of the range's first bad line, which `_bad_line` finds in the range:
    the lines before the range (the header among them, each "\\n" ending
    one) plus its place in the range."""
    path, width, start, stop = job
    with open(path, "rb") as fh:
        fh.seek(start - 1)
        fh.readline()  # a line that starts before `start` is an earlier range's
        begin = fh.tell()
        lines = fh.read(max(stop - begin, 0))
        if lines and not lines.endswith(b"\n"):
            lines += fh.readline()
    try:
        rows = _parse_rows(lines)
        if rows.size and rows.shape[1] != width:
            raise ValueError(f"{path}: {rows.shape[1]} values per line, expected {width}")
    except ValueError as exc:
        bad = _bad_line(lines, width)
        if bad is None:
            raise
        with open(path, "rb") as fh:
            before = _line_ends(fh, begin)
        raise ValueError(f"{path}: line {before + bad[0] + 1}: {bad[1]}") from exc
    return rows if rows.size else np.empty((0, width))


def _header_widths(path, first: bytes) -> tuple:
    """(p, q) of a study file whose first line is `first`: the header must be
    y,x1..xp,z1..zq exactly, as write_study_csv writes it."""
    try:
        header = first.decode().strip()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: line 1: {exc}") from exc
    if "\r" in header:
        raise ValueError(f"{path}: lines must end in \\n or \\r\\n")
    cols = header.split(",")
    n_x = sum(1 for c in cols if c.startswith("x"))
    n_z = sum(1 for c in cols if c.startswith("z"))
    if header != _csv_header(n_x, n_z):
        raise ValueError(
            f"{path}: header must be y,x1..xp,z1..zq in order, got {header!r}"
        )
    return n_x, n_z


def _study_from_ranges(path, study_id: int, p: int, parts) -> Study:
    """The Study of one file from the rows of its ranges, in order: y, X and
    Z are each one concatenation of that column block of the parts.  A
    broken Study rule is a ValueError naming the file."""
    if not any(len(rows) for rows in parts):
        raise ValueError(f"{path}: no data rows")
    try:
        return Study(
            outcomes=np.concatenate([rows[:, 0] for rows in parts]),
            predictors=np.concatenate([rows[:, 1 : 1 + p] for rows in parts]),
            structure_vars=np.concatenate([rows[:, 1 + p :] for rows in parts]),
            study_id=study_id,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_studies(files) -> list:
    """The Study of each (path, study_id) of `files`, in order, checked in
    load_collection's order (the first file's p and q bind the others).

    Every byte range of _RANGE_BYTES of every file (a line belongs to the
    range it starts in) is parsed by np.loadtxt in one fan_out, in file
    order, so each file's rows are bit for bit those of one np.loadtxt over
    it, and the lowest failing range holds the earliest bad line: every
    earlier range parsed clean, and it finds its first bad line by a
    bisection over its own lines.  A dataset of at most _RANGE_BYTES data
    bytes in all is parsed in the caller without forking.  Each study is
    then built from its own ranges, which are dropped once it is built.
    """
    heads = []  # (path, study_id, p, q, first data byte, size)
    for path, study_id in files:
        path = Path(path)
        with path.open("rb") as fh:
            first = fh.readline()
            size = os.fstat(fh.fileno()).st_size
        n_x, n_z = _header_widths(path, first)
        p, q = heads[0][2:4] if heads else (n_x, n_z)
        if n_x != p:
            raise ValueError(f"{path}: expected {p} predictor columns, found {n_x}")
        if n_z != q:
            raise ValueError(f"{path}: expected {q} structure columns, found {n_z}")
        heads.append((path, study_id, n_x, n_z, len(first), size))
    ranges = [
        (path, 1 + n_x + n_z, start, start + _RANGE_BYTES)
        for path, _, n_x, n_z, begin, size in heads
        for start in range(begin, size, _RANGE_BYTES)
    ]
    if sum(size - begin for *_, begin, size in heads) > _RANGE_BYTES:
        parsed = fan_out(_read_range, ranges)
    else:
        parsed = [_read_range(job) for job in ranges]
    studies = []
    for path, study_id, n_x, _, begin, size in heads:
        n_ranges = len(range(begin, size, _RANGE_BYTES))
        studies.append(_study_from_ranges(path, study_id, n_x, parsed[:n_ranges]))
        del parsed[:n_ranges]
    return studies


def read_study_csv(path, study_id: int) -> Study:
    """Read one study CSV, whose header must be y,x1..xp,z1..zq exactly, as
    write_study_csv writes it.  It is checked and parsed as load_collection
    reads each of its files: the header first, then the first bad data line
    is named (file and 1-based line); a file of at most _RANGE_BYTES data
    bytes is parsed without forking."""
    return _read_studies([(path, study_id)])[0]


def _write_studies(jobs) -> None:
    for study, pth in jobs:
        write_study_csv(study, pth)


def write_manifest(collection: StudyCollection, directory, force: bool = False) -> Path:
    """Write per-study CSVs plus manifest.json into `directory`.  Each study
    file is one fan_out task; a collection of fewer than _BLOCK_VALUES
    values is one task, written in the caller without forking."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / "manifest.json"
    paths = [directory / f"study_{s.study_id}.csv" for s in collection.studies]
    for pth in [manifest_path] + paths:
        if pth.exists() and not force:
            raise FileExistsError(f"{pth} exists; pass force=True to overwrite")
    jobs = list(zip(collection.studies, paths))
    small = sum(s.n * (1 + s.p + s.q) for s in collection.studies) < _BLOCK_VALUES
    fan_out(_write_studies, [jobs] if small else [[job] for job in jobs])
    manifest = {
        "target": paths[0].name,
        "sources": [pth.name for pth in paths[1:]],
    }
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def load_collection(manifest_path) -> StudyCollection:
    """Load a StudyCollection from a manifest.json written by write_manifest:
    an object whose "target" names the target CSV and whose optional
    "sources" lists the source CSVs, relative to the manifest.

    Every file's header is checked before any data line is parsed (a
    source's p and q must be the target's).  Then the earliest bad data
    line in file order is named, with its file and 1-based line; then a
    file without data rows, or whose values break a Study rule, is named in
    file order.  The data lines of all files are parsed in one fan_out over
    the CPUs; a dataset of at most _RANGE_BYTES data bytes in all is parsed
    without forking (see _read_studies)."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise ValueError(f"{manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: the manifest must be a JSON object")
    target_name, source_names = manifest.get("target"), manifest.get("sources", [])
    if not isinstance(target_name, str):
        raise ValueError(f"{manifest_path}: 'target' must name the target CSV")
    if not isinstance(source_names, list) or not all(isinstance(s, str) for s in source_names):
        raise ValueError(f"{manifest_path}: 'sources' must be a list of CSV names")
    base = manifest_path.parent
    target, *sources = _read_studies(
        (base / name, k) for k, name in enumerate([target_name, *source_names])
    )
    return StudyCollection(target=target, sources=tuple(sources))
