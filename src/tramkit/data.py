"""Synthetic mixture data, CSV ingestion, and train/validation splitting."""

from __future__ import annotations

import csv
import hashlib
import math
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from .core import _BLOCK_ROWS, Dataset, _as_points, _wrap
from .rng import derive_rng

__all__ = [
    "SyntheticSpec",
    "SyntheticResult",
    "gen_synthetic",
    "load_csv",
    "save_csv",
    "save_mixture_meta",
    "save_twin",
    "split_validation",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian-mixture generator: k_true spherical components with means
    uniform in `box`^d and mixture weights from an exchangeable
    Dirichlet(dirichlet_alpha) draw (heavy-tailed cluster sizes for small
    alpha)."""

    n: int
    d: int = 100
    k_true: int = 100
    box: tuple[float, float] = (0.0, 100.0)
    sigma2: float = 5.0
    dirichlet_alpha: float = 1.0 / 20.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.k_true < 1:
            raise ValueError("n, d, k_true must be positive")
        if not 0.0 <= self.sigma2 < math.inf:
            raise ValueError("sigma2 must be nonnegative and finite")
        # inf is the equal-weights limit; NaN fails the comparison
        if not self.dirichlet_alpha > 0:
            raise ValueError("dirichlet_alpha must be positive")
        if not 0.0 < self.box[1] - self.box[0] < math.inf:
            raise ValueError("box must be a (low, high) interval of finite width")


@dataclass(frozen=True)
class SyntheticResult:
    data: Dataset
    means: np.ndarray  # (k_true, d) ground-truth component means
    weights: np.ndarray  # (k_true,) mixture weights, sum 1


def _dirichlet(alpha: float, k: int, rng: np.random.Generator) -> np.ndarray:
    # normalized independent Gamma(alpha, 1) draws; robust at small alpha
    g = rng.gamma(alpha, 1.0, size=k)
    total = g.sum()
    if total <= 0 or not np.isfinite(total):
        return np.full(k, 1.0 / k)
    return g / total


def gen_synthetic(spec: SyntheticSpec) -> SyntheticResult:
    """Sample a mixture dataset; deterministic given spec.seed.

    Mixture weights are drawn once per spec; component memberships are
    multinomial draws against those weights (no exact quotas).

    The noise is drawn as the output array, and each point's mean is added
    into it `_BLOCK_ROWS` rows at a time, so generation holds one (n, d)
    array and a block of gathered means. Addition commutes in IEEE
    arithmetic, so each point is the bits of `means[comp] + noise`: of its
    mean under sigma2 = 0, whose noise is +0.0 (no mean is -0.0).
    """
    rng = derive_rng(spec.seed, "synthetic")
    lo, hi = spec.box
    weights = _dirichlet(spec.dirichlet_alpha, spec.k_true, rng)
    means = rng.uniform(lo, hi, size=(spec.k_true, spec.d))
    comp = rng.choice(spec.k_true, size=spec.n, p=weights)
    pts = rng.normal(0.0, math.sqrt(spec.sigma2), size=(spec.n, spec.d))
    for start in range(0, spec.n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        pts[rows] += np.take(means, comp[rows], axis=0)
    return SyntheticResult(data=_wrap(Dataset, pts), means=means, weights=weights)


def load_csv(path, has_header: bool | None = False) -> Dataset:
    """Parse a rectangular numeric CSV into a Dataset. Under `has_header=None`
    (the CLI's `--header auto`) the first row is a header when one of its
    non-blank fields, as `csv.reader` splits and unquotes them, is not a
    float. The default, False, reads `save_csv`'s header as a bad row 1.

    Rejects ragged rows, non-numeric fields, and non-finite values with an
    error naming the offending row (1-based, counting the header if any).

    Unless `has_header` is False, a regular file with a `save_twin` twin
    beside it whose digest is the file's SHA-256 now, and whose points pass
    the constructors' points rule, checked in place with no copy, loads as
    the twin's points: the file is hashed before anything is parsed, and
    the twin's points are read only on a match.

    Any other file is parsed. If it is seekable, a plain numeric file is
    read by `np.loadtxt`, whose fields parse to the same doubles as
    `float()`, and checked in place by that rule. Any file it rejects, reads
    as empty or finds non-finite (ragged rows, quoted fields, `1_0`,
    whitespace-only lines, `nan`, `1e309`), and any whose first line has a
    quote, is parsed again from the start, row by row with `csv.reader`,
    which accepts the same files and raises the same messages at the same
    rows as it always has. A stream that cannot seek (a pipe,
    `/dev/stdin`) goes to the row parser in one pass. `#` starts no
    comment: such a line is a non-numeric field.
    """
    if has_header is not False:
        twin = _load_twin(path)
        if twin is not None:
            return twin
    with open(path, newline="") as fh:
        if fh.seekable():
            arr = _load_plain(fh, has_header)
            if arr is not None:
                return _wrap(Dataset, arr)
            fh.seek(0)
        return _wrap(Dataset, _parse_rows(fh, path, has_header))


# Bytes that the twin's digest reads from the CSV at a time.
_HASH_CHUNK = 1 << 20


def _twin_path(path) -> str:
    return os.fspath(path) + ".npz"


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def save_twin(data: Dataset, csv_path) -> str:
    """Write `data` as `save_csv(data, csv_path)` does, then
    `<csv_path>.npz`, its binary twin, and return the twin's path.

    The twin is an uncompressed `np.savez` archive of two arrays: `points`,
    `data.points` as float64, and `sha256`, the hex SHA-256 of the CSV's
    bytes as they were written. `load_csv` returns the twin's points in
    place of parsing the CSV only while the CSV still has that digest, and
    never under `has_header=False`. The twin is trusted as the CSV beside
    it is: whoever may write the one may write the other, so a twin
    holding other points under a matching digest would load as those
    points.
    """
    save_csv(data, csv_path)
    twin = _twin_path(csv_path)
    with open(twin, "wb") as fh:
        np.savez(fh, points=data.points, sha256=np.array(_file_sha256(csv_path)))
    return twin


def _load_twin(path):
    # the Dataset of path's twin when it matches path's bytes, else None;
    # a pipe or device is never hashed, since that would consume it
    twin = _twin_path(path)
    if not (os.path.isfile(path) and os.path.isfile(twin)):
        return None
    try:
        with open(twin, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if str(npz["sha256"]) != _file_sha256(path):
                return None
            return _wrap(Dataset, _as_points(npz["points"], "points", copy=False))
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile):
        # an unreadable or malformed twin, or points that fail the points rule
        return None


def _is_header(row: list[str], has_header: bool | None) -> bool:
    # load_csv's rule for its first row
    if has_header is not None:
        return has_header
    try:
        [float(field) for field in row if field.strip()]
    except ValueError:
        return True
    return False


def _load_plain(fh, has_header: bool | None):
    # np.loadtxt's array when it reads the file as finite rows, else None;
    # a quote may open a first field that spans lines, which only
    # csv.reader follows, and a file without data rows would make
    # np.loadtxt warn, so both go to the row parser untried
    first = fh.readline()
    if '"' in first:
        return None
    header = _is_header(next(csv.reader([first]), []), has_header)
    first_data = "" if header else first
    if not first_data.strip() and not any(line.strip() for line in iter(fh.readline, "")):
        return None
    fh.seek(0)
    try:
        arr = np.loadtxt(
            fh,
            delimiter=",",
            skiprows=int(header),
            ndmin=2,
            dtype=np.float64,
            comments=None,
        )
        return _as_points(arr, "points", copy=False)
    except ValueError:
        return None


def _parse_rows(fh, path, has_header: bool | None) -> np.ndarray:
    # load_csv's row-by-row parser, the arbiter of what a valid file is
    rows: list[list[float]] = []
    d = None
    reader = csv.reader(fh)
    for lineno, row in enumerate(reader, start=1):
        if lineno == 1 and _is_header(row, has_header):
            continue
        if not row or (len(row) == 1 and row[0].strip() == ""):
            continue  # tolerate blank lines
        try:
            values = [float(f) for f in row]
        except ValueError as exc:
            raise ValueError(f"{path}: row {lineno}: non-numeric field ({exc})") from None
        if any(not math.isfinite(v) for v in values):
            raise ValueError(f"{path}: row {lineno}: non-finite value")
        if d is None:
            d = len(values)
        elif len(values) != d:
            raise ValueError(
                f"{path}: row {lineno}: expected {d} fields, got {len(values)}"
            )
        rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    # every row was checked finite and rectangular above
    return np.asarray(rows, dtype=np.float64)


def save_csv(data: Dataset, path) -> None:
    """Write an `x0,x1,...` header, then one point per row. `load_csv` reads
    it back bit for bit under `has_header=None` or True, not its default.

    The bytes are those of `csv.writer`: each float's repr, comma-separated,
    rows ending in CRLF. Rows go out in chunks of `_BLOCK_ROWS`, each
    turned into Python floats at once, so the conversion never holds more
    than one chunk.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"x{j}" for j in range(data.d)) + "\r\n")
        for lo in range(0, data.n, _BLOCK_ROWS):
            chunk = data.points[lo : lo + _BLOCK_ROWS].tolist()
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in chunk)


def _write_table(path, header, rows) -> None:
    """Write through `csv.writer`: floats as repr, None as "", CRLF rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_mixture_meta(result: SyntheticResult, path) -> None:
    """Ground-truth sidecar: one row per component (weight, mean coords)."""
    d = result.means.shape[1]
    _write_table(
        path,
        ["weight"] + [f"mu{j}" for j in range(d)],
        ([w] + mu for w, mu in zip(result.weights.tolist(), result.means.tolist())),
    )


def split_validation(data: Dataset, fraction: float, seed: int = 0):
    """Random disjoint (train, validation) partition.

    Validation receives floor(fraction * n) points; errors if either part
    would be empty. Deterministic given seed.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    n_val = int(fraction * data.n)
    n_train = data.n - n_val
    if n_val < 1 or n_train < 1:
        raise ValueError(
            f"fraction {fraction} yields an empty part for n={data.n}"
        )
    perm = derive_rng(seed, "split").permutation(data.n)
    return data.subset(perm[n_val:]), data.subset(perm[:n_val])
