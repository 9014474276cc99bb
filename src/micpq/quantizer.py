"""Codebooks, codeword assignment and bit-packed codes.

A document's refined vector is sliced into one segment per codebook,
and each segment is indexed by its nearest of K codewords.  Distances
are squared Euclidean throughout, never rooted.  The nearest codewords
of many rows are numpy's argmin choice, taken by
:func:`nearest_codewords` one codeword at a time over a block of rows.
Training's Gumbel-softmax mixtures are batched in
:mod:`micpq.objectives`.

A document's M sub-indices are stored, at every K, as fields of b bits
(:func:`bits_per_index`) packed into ceil(M * b / 8) bytes: b = log2(K)
for power-of-two K, else b = 16, one little-endian u16 per sub-index.
One code is its bytes in file order; many codes are flat word planes.
:func:`code_runs` states both.
"""
from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import rng
from .dataio import READ_BYTES, EmbeddingFile, checked_int, checked_real, non_finite_at
from .encoder import EncoderParams, forward_batch
from .errors import (
    ConfigMismatchError,
    DimMismatchError,
    FileFormatError,
    IndexOutOfRangeError,
    InvalidConfigError,
    NonFiniteInputError,
)

GUMBEL_CLAMP = 1e-12
ASSIGN_ROWS = 4096  # rows per refine block in encode_rows, per distance chunk
MAX_CODEWORDS = 1 << 16  # largest K: sub-indices are held and stored as uint16
NEAREST_CELLS = 16384  # (book, row) pairs per row block of nearest_codewords
NEAREST_MAX_K = 16  # largest K whose nearest codewords are not taken by numpy's argmin
NEAREST_MIN_PAIRS = 256  # (book, row) pairs per codeword up to which numpy's argmin is faster
PIECE_ROWS = 64  # fewest rows of one piece of a training step's split call
SPLIT_UPDATE_SIZE = 1 << 16  # fewest weight elements whose Adam update runs in row pieces


@dataclass
class CodebookSet:
    """M codebooks of K codewords each, all of width sub_dim."""

    books: np.ndarray  # (M, K, sub_dim)

    def __post_init__(self) -> None:
        books = checked_real(self.books, (None, None, None), InvalidConfigError, "books")
        if min(books.shape[0], books.shape[2]) < 1:
            raise InvalidConfigError("books must have shape (M, K, sub_dim) with M, sub_dim >= 1")
        if not 2 <= books.shape[1] <= MAX_CODEWORDS:
            raise InvalidConfigError(f"each codebook needs 2 to {MAX_CODEWORDS} codewords")
        self.books = checked_real(books, books.shape, InvalidConfigError, "books",  # shape first
                                  finite=NonFiniteInputError)

    @property
    def n_codebooks(self) -> int:
        return self.books.shape[0]

    @property
    def n_codewords(self) -> int:
        return self.books.shape[1]

    @property
    def sub_dim(self) -> int:
        return self.books.shape[2]

    @property
    def dim(self) -> int:
        return self.n_codebooks * self.sub_dim


@dataclass
class QuantCode:
    """The M sub-codeword indices of one document."""

    indices: np.ndarray
    n_codewords: int

    def __post_init__(self) -> None:
        self.indices = checked_codes(self.indices, self.n_codewords)
        if self.indices.ndim != 1:
            raise DimMismatchError("code indices must be a vector")

    @property
    def n_codebooks(self) -> int:
        return self.indices.shape[0]

    def packed(self) -> bytes:
        return pack_codes(self.indices, self.n_codewords)


def checked_codes(indices, n_codewords: int) -> np.ndarray:
    """Sub-indices as contiguous uint16, once every one is checked to be
    an integer in [0, K), and below ``MAX_CODEWORDS`` for a larger K
    (else :class:`IndexOutOfRangeError`), by
    :func:`~micpq.dataio.checked_int`, before the cast."""
    stop = min(n_codewords, MAX_CODEWORDS)
    return checked_int(indices, stop, np.uint16, IndexOutOfRangeError, "code indices")


def is_pow2(n_codewords: int) -> bool:
    """Whether K is a power of two (>= 2), whose stored fields are log2(K) bits."""
    return n_codewords >= 2 and n_codewords & (n_codewords - 1) == 0


def bits_per_index(n_codewords: int) -> int:
    """b, the width of one sub-index's field in a stored code: log2(K) for
    power-of-two K, else 16, a whole u16 that can hold values >= K."""
    return n_codewords.bit_length() - 1 if is_pow2(n_codewords) else 16


def packed_code_nbytes(n_codebooks: int, n_codewords: int) -> int:
    """Bytes per stored code at any K: ceil(M * b / 8), b from
    :func:`bits_per_index`."""
    return (n_codebooks * bits_per_index(n_codewords) + 7) // 8


def diff_distances(segments: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(..., K) squared distances ``sum((c - s)^2)``, taken as differences,
    from (..., sub_dim) segments to the codewords of (..., K, sub_dim)
    books.  The inputs are not checked."""
    diff = books - segments[..., None, :]
    return np.einsum("...kd,...kd->...k", diff, diff)


def stable_softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, shifted by each row's maximum; written
    to ``out`` when given, which may be ``logits`` itself."""
    e = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def gumbel_from_uniform(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map uniforms in (0,1) to standard Gumbel draws, clamped away from
    0 and 1 so the result is always finite.  Written to ``out`` when
    given, a float64 array that may be ``u`` itself."""
    g = np.clip(np.asarray(u, dtype=np.float64), GUMBEL_CLAMP, 1.0 - GUMBEL_CLAMP, out=out)
    np.log(g, out=g)
    np.negative(g, out=g)
    np.log(g, out=g)
    return np.negative(g, out=g)


def squared_distances_books(
    refined: np.ndarray,
    books: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """(M, n, K) squared distances ``|s|^2 - 2 s.c + |c|^2`` from each of
    the n rows' M segments to every codeword of (M, K, sub_dim) books, in
    the dtype of the inputs; written to ``out`` when given.  ``scratch``,
    when given, is an array of ``refined``'s shape and dtype with
    contiguous rows that takes the squared segments; it may be ``refined``
    itself, which is read first, or a slice of its columns."""
    refined = np.asarray(refined)
    n_books, _, sub = books.shape
    segments = refined.reshape(refined.shape[0], n_books, sub).transpose(1, 0, 2)
    # doubling is exact, so 2c in place of 2s keeps every product's bits
    out = np.matmul(segments, (2.0 * books).transpose(0, 2, 1), out=out)
    if scratch is not None:
        scratch = scratch.reshape(segments.shape[1], n_books, sub).transpose(1, 0, 2)
    norms = np.multiply(segments, segments, out=scratch).sum(axis=2, keepdims=True)
    np.subtract(norms, out, out=out)
    out += (books * books).sum(axis=2)[:, None, :]
    return out


def nearest_codewords(dist: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Index of the smallest of each (book, row)'s K distances in an
    (M, n, K) array, written to an (M, n) integer array ``out``: exactly
    ``np.argmin(dist, axis=2)``, ties to the lowest index and the first
    NaN winning.  K = 2 is one comparison.  Other K up to
    ``NEAREST_MAX_K`` are taken a block of ``NEAREST_CELLS`` (book, row)
    pairs at a time (4,096 rows at M = 4) by ufunc calls over the block's
    (M, rows) view of one codeword's distances each, with no copy of the
    distances: the running K-way minimum, then the index of its first
    occurrence, counted as the run of leading codewords that differ from
    it.  numpy's per-row argmin takes larger K and at most
    ``NEAREST_MIN_PAIRS`` * K (book, row) pairs, where it is faster, and
    an array that holds a NaN."""
    n_books, n_rows, n_words = dist.shape
    if (n_words > NEAREST_MAX_K or n_books * n_rows <= NEAREST_MIN_PAIRS * n_words
            or np.isnan(dist.min())):
        out[...] = dist.argmin(axis=2)
    elif n_words == 2:
        np.less(dist[..., 1], dist[..., 0], out=out)
    else:
        rows = min(n_rows, max(NEAREST_CELLS // n_books, 1))
        least = np.empty((n_books, rows), dist.dtype)
        flags = np.empty((2, n_books, rows), bool)
        for lo in range(0, n_rows, rows):
            width = min(rows, n_rows - lo)
            block, low, found = dist[:, lo:lo + width], least[:, :width], out[:, lo:lo + width]
            ahead, differ = flags[..., :width]  # ahead: codewords 0..k all differ from the minimum
            np.copyto(low, block[..., 0])
            for k in range(1, n_words):
                np.minimum(low, block[..., k], out=low)
            np.not_equal(block[..., 0], low, out=ahead)
            np.copyto(found, ahead)
            for k in range(1, n_words - 1):
                np.not_equal(block[..., k], low, out=differ)
                np.logical_and(ahead, differ, out=ahead)
                np.add(found, ahead, out=found)
    return out


def assigner(books: np.ndarray, chunk_rows: int, dtype, emit, in_place: bool = False,
             threads: int = 1, pool=None):
    """``assign(refined, start=0)``, which takes the nearest codewords of
    refined rows against (M, K, sub_dim) books in ``ASSIGN_ROWS``-row
    chunks, in buffers for ``chunk_rows`` rows of ``dtype`` distances
    allocated here, and hands each chunk's (M, n) uint16 indices to
    ``emit(start + first row, indices)``.  With ``in_place`` the squared
    segments are written over the refined rows once the distance matmul
    has read them.  With ``threads`` > 1 each chunk's books are split by
    :func:`fan_out` on ``pool``: every book's matmul, norms and minimum
    are the same calls on the same operands as in one call, so the codes
    keep their bits, and each thread writes only its own books' slices of
    the refined rows, distances and indices."""
    n_books, n_words, sub = books.shape
    d2 = np.empty(n_books * chunk_rows * n_words, dtype)
    nearest = np.empty(n_books * chunk_rows, np.uint16)

    def assign(refined, start: int = 0) -> None:
        for at in range(0, len(refined), ASSIGN_ROWS):
            chunk = refined[at:at + ASSIGN_ROWS]
            n = len(chunk)
            dist = d2[:n_books * n * n_words].reshape(n_books, n, n_words)
            found = nearest[:n_books * n].reshape(n_books, n)

            def books_of(first: int, stop: int) -> None:
                part = chunk[:, first * sub:stop * sub]
                squared_distances_books(part, books[first:stop], out=dist[first:stop],
                                        scratch=part if in_place else None)
                nearest_codewords(dist[first:stop], found[first:stop])

            fan_out(books_of, n_books, min(threads, n_books), pool)
            emit(start + at, found)

    return assign


def hard_assign_books(refined: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, M) uint16 nearest-codeword indices of each row's M segments
    against (M, K, sub_dim) books; ties go to the lowest index.  Rows are
    taken ``ASSIGN_ROWS`` at a time by :func:`assigner`, the chunks of
    :func:`encode_rows`."""
    refined = np.asarray(refined)
    books = np.asarray(books)
    codes = np.empty((refined.shape[0], books.shape[0]), dtype=np.uint16)

    def emit(at: int, found: np.ndarray) -> None:
        codes[at:at + found.shape[1]] = found.T

    assigner(books, min(len(codes), ASSIGN_ROWS), np.result_type(refined, books), emit)(refined)
    return codes


def _blas_threads() -> int | None:
    """The BLAS thread count the environment asks for, read as OpenBLAS
    reads it: the first positive integer among ``OPENBLAS_NUM_THREADS``
    and ``OMP_NUM_THREADS``; None when neither holds one."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return None


def encode_workers(n_blocks: int) -> int:
    """Threads that :func:`encode_rows` spreads ``n_blocks`` row blocks
    over: the CPUs this process may run on, divided by the BLAS threads
    (all of those CPUs unless the environment caps them), at most one per
    block and at least 1.  BLAS then never has more threads than CPUs."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(n_blocks, cpus // (_blas_threads() or cpus)))


def split_rows(work, n_rows: int, pool=None) -> None:
    """Call ``work(start, stop)`` over the row pieces of a training step's
    call on ``n_rows`` rows: :func:`fan_out` into :func:`encode_workers`
    pieces of at least ``PIECE_ROWS`` rows each, one plain call when that
    is 1.  OpenBLAS takes a few rows with other kernels, whose bits can
    differ from the same rows inside a larger call."""
    fan_out(work, n_rows, encode_workers(n_rows // PIECE_ROWS), pool)


def fan_out(work, n_rows: int, n_pieces: int, pool=None) -> None:
    """Call ``work(start, stop)`` on ``n_pieces`` contiguous ranges of
    near-equal length that cover ``range(n_rows)``.  The calling thread and
    ``n_pieces - 1`` tasks on ``pool`` (on a pool of its own when ``pool``
    is None) claim the pieces in order until none is left, so a piece that
    no pool thread is free to take runs on the calling thread.  One piece
    is a plain call on no other thread.  Every piece has ended when this
    returns or raises; a failed piece's error is raised, the lowest
    piece's first."""
    if n_pieces == 1:
        work(0, n_rows)
        return
    if pool is None:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_pieces - 1) as own:
            fan_out(work, n_rows, n_pieces, own)
        return
    bounds = [piece * n_rows // n_pieces for piece in range(n_pieces + 1)]
    claims, errors, ended = itertools.count(), [None] * n_pieces, threading.Semaphore(0)

    def claim() -> None:
        for piece in claims:
            if piece >= n_pieces:
                return
            try:
                work(bounds[piece], bounds[piece + 1])
            except BaseException as error:  # re-raised below; escaping, it would hang the caller
                errors[piece] = error
            ended.release()

    for _ in range(n_pieces - 1):
        pool.submit(claim)
    claim()
    for _ in range(n_pieces):
        ended.acquire()
    for error in errors:
        if error is not None:
            raise error


def encode_rows(params: EncoderParams, books: np.ndarray, values) -> np.ndarray:
    """The flat word planes (:func:`code_runs`) of the nearest-codeword
    indices of each row of ``values`` refined with dropout disabled,
    against (M, K, sub_dim) books, packed as they are assigned, so no
    (n, M) array is held.  ``values`` is an (n, d_in) array or a
    :class:`~micpq.dataio.EmbeddingFile`.  The codes equal those of one
    whole :func:`~micpq.encoder.forward_batch` followed by
    :func:`hard_assign_books`, at any thread count.

    Rows are refined in blocks of ``ASSIGN_ROWS`` (a shorter last block
    joins the one before it), so no (n, D) refined array is held, and a
    file is read in pieces of at most ``dataio.READ_BYTES``.  Up to
    ``encode_workers`` - 1 threads are started, on one pool that has
    ended when this returns or raises.  A block of an array holding a
    non-finite value raises :class:`NonFiniteInputError` for its first
    bad row; a file's rows are checked by its reader, which raises
    :class:`~micpq.errors.NonFiniteValueError`."""
    in_file = isinstance(values, EmbeddingFile)
    if in_file:
        piece_rows = max(READ_BYTES // (values.dtype.itemsize * values.dim), 1)
    else:
        values = np.asarray(values)
        piece_rows = max(len(values), 1)  # a view costs nothing: pieces only for threads
    books = np.asarray(books)
    n_rows, n_blocks = values.shape[0], max(values.shape[0] // ASSIGN_ROWS, 1)
    n_books, n_words = books.shape[:2]
    refined_dtype = np.result_type(values.dtype, params.weight, params.bias)
    n_bytes = packed_code_nbytes(n_books, n_words)
    planes = np.zeros(n_rows * n_bytes, np.uint8)
    runs = code_runs(planes, n_bytes)

    def emit(at: int, found: np.ndarray) -> None:
        _pack_runs([run[at:at + found.shape[1]] for run in runs], found, n_words)

    # a lone block's pieces and books go to the threads that blocks would have used
    workers = encode_workers(n_rows // PIECE_ROWS if n_blocks == 1 else n_blocks)
    inner = workers if n_blocks == 1 else 1

    def refine(refined, start: int, edges: list[int]) -> None:
        if in_file:  # input rows of its own for this thread's widest piece
            inputs = np.empty((max(np.diff(edges)), values.dim), values.dtype)
        for lo, hi in zip(edges, edges[1:]):
            if in_file:
                rows = values.read(lo, hi, out=inputs[:hi - lo])
            else:
                rows = values[lo:hi]
                bad = non_finite_at(rows)
                if bad is not None:
                    raise NonFiniteInputError(f"non-finite value in row {lo + bad[0]}")
            forward_batch(params, rows, out=refined[lo - start:hi - start])

    def work(first: int, stop_block: int) -> None:
        # the run's largest block: the merged tail for the last run
        largest = (n_rows - (n_blocks - 1) * ASSIGN_ROWS if stop_block == n_blocks
                   else ASSIGN_ROWS)
        refined_rows = np.empty((largest, params.d_out), refined_dtype)
        assign = None
        for block in range(first, stop_block):
            start = block * ASSIGN_ROWS
            n = n_rows - start if block == n_blocks - 1 else ASSIGN_ROWS
            n_pieces = max(1, min(max(-(-n // piece_rows), inner), n // PIECE_ROWS))
            edges = [start + piece * n // n_pieces for piece in range(n_pieces + 1)]
            refined = refined_rows[:n]
            fan_out(lambda lo, hi: refine(refined, start, edges[lo:hi + 1]), n_pieces, inner,
                    pool)
            # the distance buffers come after the first block's input rows are freed
            assign = assign or assigner(books, min(n_rows, ASSIGN_ROWS),
                                        np.result_type(refined_dtype, books), emit,
                                        in_place=True, threads=inner, pool=pool)
            assign(refined, start)

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        fan_out(work, n_blocks, workers // inner, pool)
    return planes


def quantize_document(refined: np.ndarray, books: CodebookSet) -> QuantCode:
    """Hard-assign every segment of a refined vector."""
    values = checked_real(refined, (books.dim,), DimMismatchError, "refined vector",
                          finite=NonFiniteInputError)
    return QuantCode(hard_assign_books(values[None], books.books)[0], books.n_codewords)


def reconstruct(books: CodebookSet, code: QuantCode) -> np.ndarray:
    """Concatenate the codewords named by a code; a code built for
    another K raises :class:`ConfigMismatchError`."""
    if code.n_codebooks != books.n_codebooks:
        raise DimMismatchError(f"{code.n_codebooks} indices for books of M={books.n_codebooks}")
    if code.n_codewords != books.n_codewords:
        raise ConfigMismatchError(f"code for K={code.n_codewords}, books of K={books.n_codewords}")
    return books.books[np.arange(books.n_codebooks), code.indices].reshape(-1)


def pack_codes(indices: np.ndarray, n_codewords: int) -> bytes:
    """Pack one code's indices into its :func:`packed_code_nbytes` bytes,
    as :func:`pack_codes_batch` does."""
    return pack_codes_batch([indices], n_codewords)[0].tobytes()


def unpack_codes(data: bytes, n_codebooks: int, n_codewords: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`, of its bytes or of an array of
    their values, checked by :func:`unpack_codes_batch`."""
    buffer = isinstance(data, (bytes, bytearray, memoryview))
    payload = np.frombuffer(data, dtype=np.uint8) if buffer else data
    return unpack_codes_batch([payload], n_codebooks, n_codewords)[0]


def pack_codes_batch(indices: np.ndarray, n_codewords: int) -> np.ndarray:
    """Pack an (n, M) index matrix (else :class:`DimMismatchError`),
    checked by :func:`checked_codes`, into a C-contiguous (n,
    bytes_per_code) uint8 array at any K: row i is code i's bytes in file
    order, the row an index file stores."""
    indices = checked_codes(indices, n_codewords)
    if indices.ndim != 2 or not indices.shape[1]:
        raise DimMismatchError(f"need an (n, M) index matrix, M >= 1, got shape {indices.shape}")
    rows = np.zeros((len(indices), packed_code_nbytes(indices.shape[1], n_codewords)), np.uint8)
    _pack_runs(code_runs(rows), indices.T, n_codewords)
    return rows


def pack_planes(indices: np.ndarray, n_codewords: int) -> np.ndarray:
    """The flat word planes (:func:`code_runs`) of an (n, M) uint16 index
    matrix already checked by :func:`checked_codes`, at any K."""
    n_bytes = packed_code_nbytes(indices.shape[1], n_codewords)
    planes = np.zeros(len(indices) * n_bytes, np.uint8)
    _pack_runs(code_runs(planes, n_bytes), indices.T, n_codewords)
    return planes


def code_runs(codes: np.ndarray, n_bytes: int | None = None) -> list[np.ndarray]:
    """The runs of stored codes: one little-endian uint16 run of n words
    per byte pair, then the uint8 run of n bytes of an odd last byte.
    Index m of a code occupies its bits ``[m*b, (m+1)*b)`` (b from
    :func:`bits_per_index`), least significant bit first, bit 0 being the
    least significant bit of byte 0; the last partial byte is zero-padded.
    At b = 16 run m is index m's field.

    ``codes`` is either flat word planes, a 1-D uint8 array of n codes of
    ``n_bytes`` bytes that holds the runs one after another (the layout of
    :func:`encode_rows`, :func:`pack_planes` and the index), or the
    C-contiguous (n, bytes_per_code) codes in file order, each code's bytes
    in a row, whose runs are strided views of the row's byte pairs."""
    if codes.ndim == 2:
        n_bytes = codes.shape[1]
        pairs = [codes[:, j:j + 2].view("<u2")[:, 0] for j in range(0, n_bytes - 1, 2)]
        return pairs + [codes[:, -1]] * (n_bytes % 2)
    n, n_pairs = codes.size // n_bytes, n_bytes // 2
    words = codes[:2 * n * n_pairs].view("<u2").reshape(n_pairs, n)
    return [*words, *[codes[2 * n * n_pairs:]] * (n_bytes % 2)]


def byte_planes(planes: np.ndarray, n_bytes: int) -> list[np.ndarray]:
    """The uint8 view of each byte position of flat word planes
    (:func:`code_runs`), stride 2 inside a word run."""
    n, paired = planes.size // n_bytes, n_bytes - n_bytes % 2
    return [planes[2 * n * (b // 2) + b % 2:][:2 * n:2] if b < paired else planes[n * paired:]
            for b in range(n_bytes)]


def _run_shifts(n_books: int, n_codewords: int) -> list[list[tuple[int, int]]]:
    """For each sub-index m, the (run, shift) of each :func:`code_runs` run
    its bits touch: run r holds code bits ``[16r, 16r + 16)``, and index m
    sits at ``shift = m*b - 16r`` in it, its low bits cut off when the
    shift is negative."""
    b = bits_per_index(n_codewords)
    return [[(run, at - 16 * run) for run in range(at // 16, (at + b - 1) // 16 + 1)]
            for at in range(0, n_books * b, b)]


def _pack_runs(runs, fields: np.ndarray, n_codewords: int) -> None:
    """OR the (M, n) uint16 indices ``fields`` into the zeroed runs of n
    codes (:func:`code_runs`), each index into every run its bits touch."""
    for field, spans in zip(fields, _run_shifts(len(fields), n_codewords)):
        for run, shift in spans:
            part = field << shift if shift >= 0 else field >> -shift
            np.bitwise_or(runs[run], part, out=runs[run], casting="unsafe")


def _check_fields(codes: np.ndarray, n_codewords: int, n_bytes: int | None = None) -> None:
    """Raise :class:`IndexOutOfRangeError` when a 16-bit field of stored
    codes, in either form of :func:`code_runs`, holds a value >= K, which
    only a K that is not a power of two leaves room for; at b = 16 a run
    is a field."""
    if not is_pow2(n_codewords) and any(run.max(initial=0) >= n_codewords
                                        for run in code_runs(codes, n_bytes)):
        raise IndexOutOfRangeError(f"packed code indices must be in [0, {n_codewords})")


def unpack_runs(runs, n_codebooks: int, n_codewords: int) -> np.ndarray:
    """The (n, M) uint16 sub-indices held in the runs of n codes
    (:func:`code_runs`), a transposed view of the (M, n) fields: the
    reverse of the packer, each index shifted back out of every run its
    bits touch, then masked to b bits."""
    fields = np.zeros((n_codebooks, len(runs[0])), np.uint16)
    part = np.empty(fields.shape[1], np.uint16)
    for field, spans in zip(fields, _run_shifts(n_codebooks, n_codewords)):
        for run, shift in spans:
            if shift >= 0:
                np.right_shift(runs[run], shift, out=part, dtype=np.uint16)
            else:
                np.left_shift(runs[run], -shift, out=part, dtype=np.uint16)
            field |= part
    fields &= (1 << bits_per_index(n_codewords)) - 1
    return fields.T


def unpack_codes_batch(payload: np.ndarray, n_codebooks: int, n_codewords: int) -> np.ndarray:
    """Inverse of :func:`pack_codes_batch` at any K; returns a row-major
    (n, M) uint16 matrix.  A payload that is not (n, bytes_per_code)
    raises :class:`DimMismatchError`, values that are not integers in [0,
    256) :class:`~micpq.errors.FileFormatError`, and a 16-bit field >= K
    :class:`IndexOutOfRangeError`, by :func:`_check_fields`."""
    rows = checked_int(payload, 256, np.uint8, FileFormatError, "packed codes")
    width = packed_code_nbytes(n_codebooks, n_codewords)
    if rows.ndim != 2 or not 0 < width == rows.shape[1]:
        raise DimMismatchError(f"packed codes of shape {rows.shape} are not (n, {width}) bytes")
    _check_fields(rows, n_codewords)
    return np.ascontiguousarray(unpack_runs(code_runs(rows), n_codebooks, n_codewords))


def init_codebooks(
    refined_batch: np.ndarray,
    n_codebooks: int,
    n_codewords: int,
    seed: int,
    strategy: str = "data",
) -> CodebookSet:
    """Initialize codebooks from a refined warmup batch.

    The default strategy samples K distinct refined segments per book
    (seeded, without replacement).  Books whose warmup segments have
    fewer than K distinct rows, and the ``"random"`` strategy, fall back
    to N(0, 0.1^2) entries.  M < 1, or a row width that M does not
    divide, raises :class:`InvalidConfigError`.
    """
    if strategy not in ("data", "random"):
        raise InvalidConfigError(f"unknown codebook init strategy {strategy!r}")
    refined_batch = np.asarray(refined_batch)
    if n_codebooks < 1 or refined_batch.shape[1] % n_codebooks:
        raise InvalidConfigError(f"{n_codebooks} codebooks do not split rows of width "
                                 f"{refined_batch.shape[1]} into equal segments")
    sub = refined_batch.shape[1] // n_codebooks
    gen = rng.spawn(seed, rng.STREAM_CODEBOOK_INIT)
    books = np.empty((n_codebooks, n_codewords, sub), dtype=np.float32)
    for m in range(n_codebooks):
        segments = refined_batch[:, m * sub:(m + 1) * sub]
        distinct = np.unique(segments, axis=0)
        if strategy == "data" and distinct.shape[0] >= n_codewords:
            pick = gen.choice(distinct.shape[0], size=n_codewords, replace=False)
            books[m] = distinct[np.sort(pick)]
        else:
            books[m] = gen.normal(0.0, 0.1, size=(n_codewords, sub))
    return CodebookSet(books)
