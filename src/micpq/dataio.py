"""Binary corpus formats and synthetic corpus generation.

On-disk layout (all fields little-endian, floats IEEE-754 binary32):

* embedding file: magic ``MICPQEMB`` | version u32 (=1) | n_docs u64 |
  dim u32 | n_docs*dim f32, row-major
* label file:     magic ``MICPQLBL`` | version u32 (=1) | n_docs u64 |
  n_docs u32 class ids

Labels are class ids that must be contiguous from 0.  The synthetic
generator draws everything from a Philox stream (see :mod:`micpq.rng`),
so identical specs produce bit-identical corpora.  I/O failures surface
as the standard :class:`OSError`.  Every file micpq writes goes through
:func:`atomic_write`, so a failed write leaves any previous file whole.
"""
from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng
from .errors import (
    BadMagicError,
    FileFormatError,
    IndexOutOfRangeError,
    InvalidSpecError,
    LengthMismatchError,
    NonContiguousClassesError,
    NonFiniteValueError,
    TruncatedFileError,
    VersionMismatchError,
)

MAGIC_EMBEDDINGS = b"MICPQEMB"
MAGIC_LABELS = b"MICPQLBL"
FORMAT_VERSION = 1
_EMBEDDINGS_HEADER = struct.Struct("<IQI")  # version, n_docs, dim
_LABELS_HEADER = struct.Struct("<IQ")  # version, n_docs
_EMBEDDINGS_PAYLOAD = len(MAGIC_EMBEDDINGS) + _EMBEDDINGS_HEADER.size  # payload's byte offset
READ_BYTES = 1 << 20  # payload bytes of one window when read_embeddings selects rows
RUN_BYTES = 1 << 13  # a window is read whole when that reads fewer bytes than this per call saved


@dataclass
class EmbeddingMatrix:
    """Row-major matrix of float32 document embeddings."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = checked_real(self.values, (None, None), InvalidSpecError, "embedding",
                                   np.float32)
        if not self.values.size:
            raise InvalidSpecError(f"embedding matrix of shape {self.values.shape} is empty")
        bad = non_finite_at(self.values)
        if bad is not None:
            raise NonFiniteValueError(
                f"non-finite embedding value at flat position {bad[0] * self.dim + bad[1]}"
            )

    @property
    def n_docs(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def _checked_matrix(values: np.ndarray) -> EmbeddingMatrix:
    """An :class:`EmbeddingMatrix` of the non-empty C-contiguous float32
    rows that the reader has found finite, not checked again."""
    matrix = object.__new__(EmbeddingMatrix)
    matrix.values = values
    return matrix


@dataclass
class LabelVector:
    """Per-document class ids, contiguous from 0."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        labels = as_array(self.labels, InvalidSpecError, "class ids")
        if labels.ndim > 1 or not labels.size:
            raise InvalidSpecError(f"label vector must be 1-D and non-empty, got {labels.shape}")
        # a value that is no class id raises what a gap in the ids raises
        self.labels = checked_int(labels, 1 << 32, np.uint32, NonContiguousClassesError,
                                  "class ids")
        present = np.unique(self.labels)
        if present[0] != 0 or present[-1] != len(present) - 1:
            raise NonContiguousClassesError(
                f"class ids must be contiguous from 0, got {present.tolist()}"
            )

    @property
    def n_docs(self) -> int:
        return self.labels.shape[0]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class MixtureSpec:
    """Parameters of a seeded Gaussian-mixture corpus."""

    n_docs: int
    dim: int
    n_classes: int
    separation: float
    noise_sigma: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_docs < 1 or self.dim < 1 or self.n_classes < 1:
            raise InvalidSpecError("n_docs, dim and n_classes must all be >= 1")
        if self.n_classes > self.n_docs:
            raise InvalidSpecError("n_classes must not exceed n_docs")
        if self.separation < 0:
            raise InvalidSpecError("separation must be >= 0")
        if not self.noise_sigma > 0:
            raise InvalidSpecError("noise_sigma must be > 0")


def non_finite_at(values: np.ndarray) -> tuple[int, int] | None:
    """(row, column) of the first NaN or infinity of a 2-D array in row
    order, else None.  A row's sum is finite when every value of the row
    is, unless it overflowed, so only the rows whose sum is not finite
    are looked at value by value: no mask of the whole array is made
    unless every row's sum is non-finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = values @ np.ones(values.shape[1], values.dtype)
    rows = np.flatnonzero(~np.isfinite(sums))
    bad = ~np.isfinite(values[rows])
    hit = np.flatnonzero(bad.any(axis=1))
    if not len(hit):
        return None
    return int(rows[hit[0]]), int(np.flatnonzero(bad[hit[0]])[0])


def as_array(values, error, name: str) -> np.ndarray:
    """``np.asarray(values)``; a ragged nest of sequences raises ``error``
    rather than numpy's ``ValueError``."""
    try:
        return np.asarray(values)
    except ValueError as err:
        raise error(f"{name} is not an array: {err}") from None


def checked_real(values, shape: tuple, error, name: str, dtype=None, finite=None) -> np.ndarray:
    """``values`` as a C-contiguous array, cast to ``dtype`` when given,
    once they are checked to be integer or floating and of ``shape``
    (None: any length), else ``error``.  With ``finite``, an error class,
    a NaN or infinity after the cast raises it, naming the flat position
    of the first: the whole array's mask is made, so this is for arrays
    of parameters and queries, not corpora (:func:`non_finite_at`)."""
    array = as_array(values, error, name)
    if array.dtype.kind not in "iuf":
        raise error(f"{name} must be integer or floating, got {array.dtype}")
    if array.shape != shape and (array.ndim != len(shape) or any(  # exact shapes skip the loop
            n not in (None, m) for n, m in zip(shape, array.shape))):
        raise error(f"{name} has shape {array.shape}, expected {shape} (None: any length)")
    array = np.ascontiguousarray(array, dtype=dtype)
    if finite is not None and not np.isfinite(array).all():
        at = np.flatnonzero(~np.isfinite(array))[0]
        raise finite(f"non-finite {name} value at flat position {at}")
    return array


def checked_int(values, stop: int, dtype, error, name: str) -> np.ndarray:
    """``values`` as a C-contiguous array cast to ``dtype`` (kept when
    None), once they are checked to be integers in [0, stop), else
    ``error``: before the cast, so none wraps or is truncated into range.
    An empty array passes.  The maximum is read only when the dtype can
    hold ``stop`` (so uint8 for 256 is not read), the minimum only when
    it is signed."""
    array = as_array(values, error, name)
    kind = array.dtype.kind
    top = 1 << 8 * array.dtype.itemsize - (kind == "i")  # the dtype's values lie below it
    if array.size and (kind not in "iu" or top > stop and array.max() >= stop
                       or kind == "i" and array.min() < 0):
        raise error(f"{name} must be non-negative integers in [0, {stop}), got {array.dtype}")
    return np.ascontiguousarray(array, dtype=dtype)


def check_file_size(f, declared: int) -> None:
    """Reject an open file whose size differs from the ``declared`` byte
    count, before any payload is read: a short file raises
    :class:`TruncatedFileError`, trailing bytes :class:`FileFormatError`."""
    size = os.fstat(f.fileno()).st_size
    if size != declared:
        error = TruncatedFileError if size < declared else FileFormatError
        raise error(f"header declares a {declared}-byte file, found {size} bytes")


def read_header(f, magic: bytes, header_struct: struct.Struct, version: int) -> tuple:
    """Read a file's magic and fixed-size header, whose first field is a
    u32 format version, and return the fields after the version.

    Raises :class:`BadMagicError`, :class:`TruncatedFileError` or
    :class:`VersionMismatchError`."""
    found = f.read(len(magic))
    if found != magic:
        raise BadMagicError(f"expected magic {magic!r} at byte 0, found {found!r}")
    raw = f.read(header_struct.size)
    if len(raw) != header_struct.size:
        raise TruncatedFileError(f"file truncated at byte {len(magic) + len(raw)} in header")
    found_version, *fields = header_struct.unpack(raw)
    if found_version != version:
        raise VersionMismatchError(
            f"unsupported format version {found_version} at byte {len(magic)}"
        )
    return tuple(fields)


@contextmanager
def atomic_write(path, text: bool = False):
    """Open a new file for writing that replaces ``path`` when the block
    ends, in one ``os.replace``.  The data goes to a temporary file in the
    target's directory; an exception deletes it and leaves any previous
    file at ``path`` untouched.  A device or pipe, which cannot be
    replaced, is written in place."""
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w" if text else "wb") as f:
            yield f
        return
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    f = open(tmp, "x" if text else "xb")
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_embeddings(matrix: EmbeddingMatrix, path) -> None:
    """Write an embedding matrix; exact inverse of :func:`read_embeddings`."""
    bad = non_finite_at(matrix.values)
    if bad is not None:
        raise NonFiniteValueError(
            f"refusing to write non-finite value at flat position {bad[0] * matrix.dim + bad[1]}"
        )
    with atomic_write(path) as f:
        f.write(MAGIC_EMBEDDINGS)
        f.write(_EMBEDDINGS_HEADER.pack(FORMAT_VERSION, matrix.n_docs, matrix.dim))
        f.write(np.ascontiguousarray(matrix.values, dtype="<f4"))


def read_embeddings_header(f) -> tuple[int, int]:
    """Read an open embedding file's header and check the file's size
    against it; return (n_docs, dim), leaving ``f`` at the payload.

    Raises :class:`BadMagicError`, :class:`VersionMismatchError`,
    :class:`TruncatedFileError` or :class:`FileFormatError`, or
    :class:`InvalidSpecError` for an empty matrix, before any payload is
    read."""
    n_docs, dim = read_header(f, MAGIC_EMBEDDINGS, _EMBEDDINGS_HEADER, FORMAT_VERSION)
    if n_docs < 1 or dim < 1:  # no payload: the size check passes at any count
        raise InvalidSpecError(f"header declares an empty {n_docs} x {dim} embedding matrix")
    check_file_size(f, _EMBEDDINGS_PAYLOAD + n_docs * dim * 4)
    return n_docs, dim


def _check_finite(values: np.ndarray, rows) -> None:
    """Raise :class:`NonFiniteValueError` naming the file byte offset of
    the first non-finite value, in file order, of ``values``, whose i-th
    row is file row ``rows[i]``."""
    if non_finite_at(values) is None:
        return
    rows = np.asarray(rows)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    lowest = bad[np.argmin(rows[bad])]
    element = int(rows[lowest]) * values.shape[1] + int(np.argmin(np.isfinite(values[lowest])))
    raise NonFiniteValueError(
        f"non-finite value at byte {_EMBEDDINGS_PAYLOAD + element * 4} (element {element})"
    )


def _check_rows(rows, n_docs: int) -> np.ndarray:
    rows = as_array(rows, InvalidSpecError, "rows")
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise InvalidSpecError(f"rows must be a vector of row numbers, got {rows.dtype} "
                               f"of shape {rows.shape}")
    return checked_int(rows, n_docs, None, IndexOutOfRangeError, "embedding rows")


def _read_rows(f, rows: np.ndarray, out: np.ndarray) -> None:
    """Read file rows ``rows`` (checked row numbers, any order, repeats
    allowed) into the rows of ``out``, a C-contiguous float32 array.

    The payload is cut into windows of ``READ_BYTES``.  A window is
    dense when its wanted rows form runs (rows adjacent in the file and
    in ``out``) so many and so close that reading its whole span takes
    fewer than ``RUN_BYTES`` per call it saves.  A dense window's span is
    read into a buffer in one ``os.preadv``, and its rows are copied from
    there.  Each run of every other window is read by its own
    ``os.pread`` (for a short run, cheaper than an ``os.preadv`` into
    place) and copied into place, so a sparse pick reads only its rows.
    No call reads more than a window, so a short read means that the
    file shrank."""
    dim = out.shape[1]
    row_bytes = 4 * dim
    rows = rows.astype(np.int64, copy=False)  # byte offsets overflow a narrower type
    order = np.argsort(rows, kind="stable")
    wanted = rows[order]
    window = wanted // max(READ_BYTES // row_bytes, 1)
    new_window = np.ones(len(rows), bool)
    np.not_equal(window[1:], window[:-1], out=new_window[1:])
    new_run = new_window.copy()  # np.diff costs more than these slices on short requests
    new_run[1:] |= (wanted[1:] - wanted[:-1] != 1) | (order[1:] - order[:-1] != 1)
    firsts = np.flatnonzero(new_window)  # each window's first wanted row
    stops = np.append(firsts[1:], len(wanted))
    spans = wanted[stops - 1] + 1 - wanted[firsts]
    dense = spans * row_bytes < (np.add.reduceat(new_run, firsts) - 1) * RUN_BYTES
    fd = f.fileno()
    buffer = np.empty(int(spans[dense].max(initial=0)) * dim, "<f4")
    for lo, stop, count in zip(*(a[dense].tolist() for a in (firsts, stops, spans))):
        start = int(wanted[lo])
        at, view = _EMBEDDINGS_PAYLOAD + start * row_bytes, memoryview(buffer).cast("B")
        if os.preadv(fd, [view[:count * row_bytes]], at) != count * row_bytes:
            raise TruncatedFileError(f"file shrank while reading byte {at}")
        out[order[lo:stop]] = buffer[:count * dim].reshape(count, dim)[wanted[lo:stop] - start]
    runs = np.flatnonzero(new_run)
    sparse = ~np.repeat(dense, stops - firsts)[runs]
    lengths = (np.append(runs[1:], len(wanted)) - runs)[sparse] * row_bytes
    runs = runs[sparse]
    place = memoryview(out).cast("B")
    for at, begin, size in zip((_EMBEDDINGS_PAYLOAD + wanted[runs] * row_bytes).tolist(),
                               (order[runs] * row_bytes).tolist(), lengths.tolist()):
        run = os.pread(fd, size, at)
        if len(run) != size:
            raise TruncatedFileError(f"file shrank while reading byte {at}")
        place[begin:begin + size] = run


def read_embeddings(path, rows=None, out: np.ndarray | None = None) -> EmbeddingMatrix:
    """Read an embedding file, validating header, size and finiteness.

    With ``rows``, a vector of row numbers in any order, repeats allowed,
    the result holds those rows in that order, and only they are read and
    checked for finiteness, once, after they are read: memory holds the
    selected rows and at most one ``READ_BYTES`` buffer, not the file.
    A dense stretch of rows is read a window at a time, a sparse one run
    by run (:func:`_read_rows`).  A non-finite value names its file byte
    offset, the lowest bad row's if several are bad.  A row outside [0,
    n_docs) raises :class:`IndexOutOfRangeError`.  ``out``, when given
    with ``rows``, is a C-contiguous (len(rows), dim) float32 array that
    takes the rows; the result's values are then ``out`` itself."""
    with open(path, "rb") as f:
        n_docs, dim = read_embeddings_header(f)
        if rows is None:
            values = np.fromfile(f, "<f4", n_docs * dim).reshape(n_docs, dim)
            _check_finite(values, range(n_docs))
            return _checked_matrix(values)
        rows = _check_rows(rows, n_docs)
        if not len(rows):
            raise InvalidSpecError("an embedding matrix needs at least one row")
        if out is None:
            out = np.empty((len(rows), dim), dtype=np.float32)
        elif out.shape != (len(rows), dim) or out.dtype != np.float32 or not out.flags.c_contiguous:
            raise InvalidSpecError(f"out must be a C-contiguous ({len(rows)}, {dim}) float32 array")
        _read_rows(f, rows, out)
    _check_finite(out, rows)
    return _checked_matrix(out)


class EmbeddingFile:
    """Rows of an embedding file, read only when asked for: row i is the
    file's row ``rows[i]`` (every row, in order, by default).  Opening
    reads and checks the header and the file's size.  ``read`` is
    :func:`read_embeddings` on a slice of ``rows``, so its rows come
    checked for finiteness; threads may read at once."""

    dtype = np.dtype(np.float32)

    def __init__(self, path, rows=None) -> None:
        with open(path, "rb") as f:
            n_file, self.dim = read_embeddings_header(f)
        self.path = path
        self.rows = np.arange(n_file) if rows is None else _check_rows(rows, n_file)

    @property
    def n_docs(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), self.dim

    def take(self, index) -> EmbeddingFile:
        """The rows ``index`` of this selection, in that order, unread."""
        return EmbeddingFile(self.path, self.rows[index])

    def read(self, start: int = 0, stop: int | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
        """Rows [start, stop) as an (n, dim) float32 array, written to
        ``out`` when given (see :func:`read_embeddings`)."""
        return read_embeddings(self.path, self.rows[start:stop], out).values


def write_labels(labels: LabelVector, path) -> None:
    """Write a label file; exact inverse of :func:`read_labels`."""
    with atomic_write(path) as f:
        f.write(MAGIC_LABELS)
        f.write(_LABELS_HEADER.pack(FORMAT_VERSION, labels.n_docs))
        f.write(labels.labels.astype("<u4", copy=False).tobytes())


def read_labels(path, expected_n_docs: int | None = None) -> LabelVector:
    """Read a label file.

    When ``expected_n_docs`` is given (usually the paired embedding
    matrix's row count), a mismatch raises :class:`LengthMismatchError`.
    """
    with open(path, "rb") as f:
        (n_docs,) = read_header(f, MAGIC_LABELS, _LABELS_HEADER, FORMAT_VERSION)
        check_file_size(f, len(MAGIC_LABELS) + _LABELS_HEADER.size + n_docs * 4)
        labels = np.fromfile(f, "<u4", n_docs)
    if expected_n_docs is not None and n_docs != expected_n_docs:
        raise LengthMismatchError(
            f"label file has {n_docs} entries but embeddings have {expected_n_docs} rows"
        )
    return LabelVector(labels)


def synth_mixture(spec: MixtureSpec) -> tuple[EmbeddingMatrix, LabelVector]:
    """Generate a seeded Gaussian-mixture corpus.

    Class centers are standard-normal draws scaled by ``separation``;
    each document is its class center plus isotropic noise with standard
    deviation ``noise_sigma``.  Labels go round-robin (doc i gets class
    i mod n_classes) so class counts differ by at most one.
    """
    gen = rng.spawn(spec.seed)
    centers = gen.standard_normal((spec.n_classes, spec.dim)) * spec.separation
    labels = np.arange(spec.n_docs, dtype=np.uint32) % spec.n_classes
    values = np.empty((spec.n_docs, spec.dim), np.float32)
    # the noise is drawn a block of rows at a time, in gen.normal's order and sum
    rows = max(READ_BYTES // (8 * spec.dim), 1)
    block = np.empty((min(rows, spec.n_docs), spec.dim))
    for lo in range(0, spec.n_docs, rows):
        noise = gen.standard_normal(out=block[:spec.n_docs - lo])
        noise *= spec.noise_sigma
        noise += 0.0  # gen.normal's loc + scale * z, which turns -0.0 into 0.0
        noise += centers[labels[lo:lo + len(noise)]]
        values[lo:lo + len(noise)] = noise
    return EmbeddingMatrix(values), LabelVector(labels)


def default_paths(out_dir) -> tuple[Path, Path]:
    """Canonical (embeddings, labels) file names inside an output directory."""
    out = Path(out_dir)
    return out / "data.emb", out / "data.lbl"
