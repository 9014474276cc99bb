"""Compact retrieval index and asymmetric-distance search.

A corpus's codes are resident in one layout at every K: flat word planes
(:func:`~micpq.quantizer.code_runs`), one uint8 buffer of exactly
``n_docs * bytes_per_code`` bytes, of log2(K)-bit fields for power-of-two
K, else of one 16-bit field per sub-index.  A query is refined once
(dropout disabled) into an M x K table of squared distances to every
codeword; a document's distance is the sum of its M entries, added as a
balanced tree of pairs, numpy's own order at M=8, K=16, whichever scan
reads them.  K = 2 also ranks by Hamming distance.  Results are (doc id,
distance) pairs ascending by (distance, doc id).  Doc ids are resident
as uint32 when every id is below 2^32, else as uint64.

Index file layout (little-endian): magic ``MICPQIDX`` | version u32 | M
u32 | K u32 | sub_dim u32 | n_docs u64 | codebooks M*K*sub_dim f32 | doc
ids n_docs u64 | codes row by row, each the bytes of
:func:`~micpq.quantizer.pack_codes` (one u16 per sub-index for a K that
is not a power of two).
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .dataio import (
    EmbeddingFile,
    EmbeddingMatrix,
    as_array,
    atomic_write,
    check_file_size,
    checked_int,
    checked_real,
    read_header,
)
from .encoder import forward_batch
from .errors import (
    ConfigMismatchError,
    DimMismatchError,
    EmptyIndexError,
    FileFormatError,
    InvalidConfigError,
    InvalidSpecError,
    KNot2Error,
    NonFiniteInputError,
    TruncatedFileError,
)
from .quantizer import (
    MAX_CODEWORDS,
    CodebookSet,
    QuantCode,
    _check_fields,
    bits_per_index,
    byte_planes,
    checked_codes,
    code_runs,
    diff_distances,
    encode_rows,
    nearest_codewords,
    pack_planes,
    packed_code_nbytes,
    squared_distances_books,
    unpack_runs,
)
from .trainer import ModelState

MAGIC_INDEX = b"MICPQIDX"
INDEX_VERSION = 1
_HEADER = struct.Struct("<IIIIQ")
SCAN_ROWS = 16384  # rows per block of the word-plane scan and of the unpacked scan
PAIR_ENTRIES = 1 << 16  # rows above which the byte scan reads word planes
LOAD_BYTES = 1 << 18  # bytes per read of load_index's reused buffer


def _checked_codes(codes, n_books: int, n_words: int) -> np.ndarray:
    """An (n, M) sub-index matrix as contiguous uint16, checked by
    :func:`~micpq.quantizer.checked_codes`."""
    codes = checked_codes(codes, n_words)
    if codes.ndim != 2 or codes.shape[1] != n_books:
        raise DimMismatchError(f"codes shape {codes.shape} does not match {n_books} codebooks")
    return codes


class RetrievalIndex:
    """Frozen codebooks, document ids and the corpus's codes.

    Give either ``codes``, an (n_docs, M) sub-index matrix, or ``packed``:
    flat word planes (:func:`~micpq.quantizer.code_runs`), a 1-D array of
    n_docs * bytes_per_code bytes, as :func:`~micpq.quantizer.encode_rows`
    and :func:`load_index` give them, kept as given when uint8; any other
    shape raises :class:`DimMismatchError`.  Only the word planes are
    kept, at every K.  Sub-indices that are not integers in [0, K), given
    or in a payload's 16-bit fields (K not a power of two, checked by
    :func:`~micpq.quantizer._check_fields`), raise
    :class:`~micpq.errors.IndexOutOfRangeError`.  A packed payload of
    values that are not integers in [0, 256), or with a padding bit set in
    a code's last byte, raises :class:`FileFormatError`: the Hamming scan
    counts every bit.  ``doc_ids`` default to the row numbers.  They are
    kept as uint32 when the array is empty or every id is below 2^32, else
    as uint64; a uint32 array is kept as given.  Negative or non-integer
    ids raise :class:`InvalidSpecError`.
    """

    def __init__(self, books: CodebookSet, codes=None, doc_ids=None, packed=None) -> None:
        self.books = books
        n_books, n_words = books.n_codebooks, books.n_codewords
        width = packed_code_nbytes(n_books, n_words)
        if packed is None:
            packed = pack_planes(_checked_codes(codes, n_books, n_words), n_words)
        packed = as_array(packed, DimMismatchError, "packed codes")
        if packed.ndim != 1:
            raise DimMismatchError(f"packed codes must be flat word planes, got shape "
                                   f"{packed.shape}")
        self._planes = checked_int(packed, 256, np.uint8, FileFormatError, "packed codes")
        ids = (np.arange(self._planes.size // width, dtype=np.uint32) if doc_ids is None else
               checked_int(doc_ids, 1 << 64, None, InvalidSpecError, "doc ids"))
        wide = ids.dtype != np.uint32 and ids.size and ids.max() >= 1 << 32
        self.doc_ids = ids.astype(np.uint64 if wide else np.uint32, copy=False)
        if self.doc_ids.ndim != 1 or self._planes.size != self.n_docs * width:
            raise DimMismatchError(f"{self._planes.size} code bytes for doc ids of shape "
                                   f"{self.doc_ids.shape} (width {width} expected)")
        padding = (0xFF << ((n_books * bits_per_index(n_words)) % 8)) & 0xFF
        if padding != 0xFF and np.any(byte_planes(self._planes, width)[-1] & padding):
            raise FileFormatError("packed codes have padding bits set")
        _check_fields(self._planes, n_words, width)

    @property
    def codes(self) -> np.ndarray:
        """(n_docs, M) uint16 sub-indices, unpacked afresh."""
        n_books, n_words = self.books.n_codebooks, self.books.n_codewords
        runs = code_runs(self._planes, packed_code_nbytes(n_books, n_words))
        return np.ascontiguousarray(unpack_runs(runs, n_books, n_words))

    @property
    def packed(self) -> np.ndarray:
        """(n_docs, bytes_per_code) packed codes in file order, the index
        file's code rows, built afresh."""
        width = packed_code_nbytes(self.books.n_codebooks, self.books.n_codewords)
        rows = np.empty((self.n_docs, width), np.uint8)
        for column, run in zip(code_runs(rows), code_runs(self._planes, width)):
            column[...] = run
        return rows

    @property
    def n_docs(self) -> int:
        return self.doc_ids.shape[0]

    @property
    def payload_nbytes(self) -> int:
        """Size of the stored code payload in bytes."""
        return int(self._planes.nbytes)


@dataclass
class DistanceLUT:
    """Per-query table: entry (m, k) is the squared distance from the
    query's segment m to codeword k of book m."""

    table: np.ndarray  # (M, K) float32

    def __post_init__(self) -> None:
        self.table = checked_real(self.table, (None, None), DimMismatchError, "distance table")


def build_index(
    model: ModelState, corpus: EmbeddingMatrix | EmbeddingFile, ids: np.ndarray | None = None
) -> RetrievalIndex:
    """Encode a corpus with :func:`~micpq.quantizer.encode_rows` (refined
    with dropout disabled, packed into word planes as assigned).  An
    :class:`~micpq.dataio.EmbeddingFile` corpus is read block by block;
    its codes equal those of the same rows read whole.  Any other corpus
    must be (n, d_in) integers or floats, else :class:`DimMismatchError`."""
    values = corpus
    if not isinstance(corpus, EmbeddingFile):
        values = as_array(getattr(corpus, "values", corpus), DimMismatchError, "corpus")
    if len(values.shape) != 2 or values.shape[1] != model.encoder.d_in:
        raise DimMismatchError(
            f"corpus of shape {values.shape} is not (n, {model.encoder.d_in}), "
            "the encoder's input width"
        )
    if isinstance(values, np.ndarray):  # an EmbeddingMatrix's float32 rows are not copied
        values = checked_real(values, values.shape, DimMismatchError, "corpus")
    packed = encode_rows(model.encoder, model.books.books, values)
    return RetrievalIndex(books=model.books, doc_ids=ids, packed=packed)


def build_lut(query_refined: np.ndarray, books: CodebookSet) -> DistanceLUT:
    """Squared distances from every segment of a refined query vector to
    every codeword."""
    return _lut(checked_real(query_refined, (books.dim,), DimMismatchError, "refined query"),
                books)


def _lut(refined: np.ndarray, books: CodebookSet) -> DistanceLUT:
    """:func:`build_lut` of a refined query that is already a C-contiguous
    (D,) array, without the checks of the query and of the table made."""
    lut = object.__new__(DistanceLUT)
    lut.table = diff_distances(refined.reshape(books.n_codebooks, books.sub_dim),
                               books.books).astype(np.float32)
    return lut


def _pairwise(parts) -> np.ndarray:
    """Sum a sequence of equal-shape arrays as a balanced tree of pairs,
    ((p0 + p1) + (p2 + p3)) for four parts, which is how numpy sums a
    contiguous row of eight, in place into ``parts[0]``, which is
    returned.  An odd last part moves up a level as is: the bits of
    adding a zero part, as no distance is -0.0."""
    while len(parts) > 1:
        for into, part in zip(parts[0::2], parts[1::2]):
            np.add(into, part, out=into)
        parts = parts[0::2]
    return parts[0]


def _byte_tables(table: np.ndarray, bits: int) -> np.ndarray:
    """(bytes_per_code, 256) table: entry (j, v) is the summed distance of
    the sub-indices that value v stores in byte j of a packed code."""
    n_books, n_words = table.shape
    per_byte = 8 // bits
    n_bytes = -(-n_books // per_byte)
    rows = table
    if n_books % per_byte:  # pad the last byte's unused slots with 0
        rows = np.pad(table, ((0, n_bytes * per_byte - n_books), (0, 0)))
    # the tree of pairs over a byte's slots: adjacent slot groups' tables
    # are outer sums, the higher group's entry in the higher bits
    parts = rows.reshape(n_bytes, per_byte, n_words)
    while parts.shape[1] > 1:
        pairs = np.add(parts[:, 0::2, None, :], parts[:, 1::2, :, None])
        parts = pairs.reshape(n_bytes, parts.shape[1] // 2, -1)
    return parts[:, 0]


def adc_distances(lut: DistanceLUT, codes) -> np.ndarray:
    """Asymmetric distances for every document of a :class:`RetrievalIndex`,
    or for every row of an (n, M) sub-index matrix, packed into word
    planes first; they are bit-identical whichever of the two is given."""
    table = lut.table
    n_books, n_words = table.shape
    if isinstance(codes, RetrievalIndex):
        if codes.books.books.shape[:2] != table.shape:
            raise DimMismatchError(f"table shape {table.shape} does not match the index's books")
        n_rows, planes = codes.n_docs, codes._planes
    else:
        codes = _checked_codes(codes, n_books, n_words)
        n_rows, planes = len(codes), pack_planes(codes, n_words)
    n_bytes, bits = packed_code_nbytes(n_books, n_words), bits_per_index(n_words)
    if 8 % bits:
        # unpacked (M, rows) fields (a 16-bit field is its run): each
        # block's (rows, M) entries are gathered into one reused buffer and
        # summed row by row by numpy, the bits of one whole-corpus gather
        runs = code_runs(planes, n_bytes)
        out = np.empty(n_rows, table.dtype)
        gathered = np.empty((min(n_rows, SCAN_ROWS), n_books), table.dtype)
        for lo in range(0, n_rows, SCAN_ROWS):
            block = [run[lo:lo + SCAN_ROWS] for run in runs]
            rows = gathered[:len(block[0])]
            fields = block if bits == 16 else unpack_runs(block, n_books, n_words).T
            for book, field, column in zip(table, fields, rows.T):
                book.take(field, out=column, mode="clip")  # every field is < K
            rows.sum(axis=1, out=out[lo:lo + SCAN_ROWS])
        return out
    tables = _byte_tables(table, bits)
    # the result first: the scan's buffers then lie above it on the heap and
    # are reused by the next query rather than trimmed and faulted in again
    out = np.empty(n_rows, tables.dtype)
    if n_rows <= PAIR_ENTRIES or n_bytes < 2:
        run_tables, runs = tables, byte_planes(planes, n_bytes)  # a byte is < 256
    else:  # one 65,536-entry table per word plane: the tree's first level
        n_pairs = n_bytes // 2
        pair_tables = np.empty((n_pairs, 256, 256), tables.dtype)
        np.add(tables[1::2, :, None], tables[0:2 * n_pairs:2, None, :], out=pair_tables)
        run_tables = [*pair_tables.reshape(n_pairs, -1), *tables[2 * n_pairs:]]
        runs = code_runs(planes, n_bytes)
    parts = np.empty((len(runs) - 1, min(n_rows, SCAN_ROWS)), tables.dtype)
    for lo in range(0, n_rows, SCAN_ROWS):
        hi = min(lo + SCAN_ROWS, n_rows)
        block = [out[lo:hi], *parts[:, :hi - lo]]  # the first part is the block's result
        for run_table, run, part in zip(run_tables, runs, block):
            run_table.take(run[lo:hi], out=part, mode="clip")
        _pairwise(block)
    return out


def adc_distance(lut: DistanceLUT, code: QuantCode) -> float:
    """Asymmetric distance: sum of the M table entries named by the code;
    a code built for another K raises :class:`ConfigMismatchError`."""
    if code.n_codebooks != lut.table.shape[0]:
        raise DimMismatchError(f"{code.n_codebooks} indices for a table of {len(lut.table)} rows")
    if code.n_codewords != lut.table.shape[1]:
        raise ConfigMismatchError(f"code for K={code.n_codewords}, table of K={lut.table.shape[1]}")
    return float(adc_distances(lut, code.indices[None, :])[0])


def _at_or_below_kth(values: np.ndarray, k: int) -> np.ndarray:
    """Positions of the values at or below the k-th smallest; all if that is NaN."""
    return (~(values > np.partition(values, k - 1)[k - 1])).nonzero()[0]


def _ranked(doc_ids: np.ndarray, distances: np.ndarray, k: int) -> list[tuple[int, float]]:
    n = len(distances)
    width = n // k
    if k <= width:
        # the minima of k blocks are k rows at or below the largest of
        # them, so the k-th distance is too; NaN in a block keeps every row
        bound = distances[:k * width].reshape(k, width).min(axis=1).max()
        beyond = distances > bound
        rows = np.logical_not(beyond, out=beyond).nonzero()[0]
        rows = rows[_at_or_below_kth(distances[rows], k)]
    elif k < n:
        rows = _at_or_below_kth(distances, k)
    else:
        rows = np.arange(n)
    rows = rows[np.lexsort((doc_ids[rows], distances[rows]))[:k]]
    return list(zip(doc_ids[rows].tolist(), distances[rows].astype(np.float64).tolist()))


def _refine_query(index: RetrievalIndex, model: ModelState, query_embedding, k: int) -> np.ndarray:
    """Check k, the index, the query and the model's output width, then
    refine the query with dropout disabled."""
    if not isinstance(k, (int, np.integer)):
        raise InvalidConfigError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise InvalidConfigError("k must be >= 1")
    if index.n_docs == 0:
        raise EmptyIndexError("cannot search an empty index")
    query = checked_real(query_embedding, (model.encoder.d_in,), DimMismatchError, "query",
                         finite=NonFiniteInputError)
    if model.encoder.d_out != index.books.dim:
        raise DimMismatchError(f"encoder output width {model.encoder.d_out} != the index's "
                               f"codebooks' total width {index.books.dim}")
    return forward_batch(model.encoder, query[None, :])[0]


def search_topk(
    index: RetrievalIndex, query_embedding: np.ndarray, model: ModelState, k: int
) -> list[tuple[int, float]]:
    """Top-k documents by asymmetric distance, ascending; ties break on
    ascending doc id.  Returns min(k, n_docs) (doc_id, distance) pairs."""
    lut = _lut(_refine_query(index, model, query_embedding, k), index.books)
    return _ranked(index.doc_ids, adc_distances(lut, index), k)


def hamming_distance(a: QuantCode, b: QuantCode) -> int:
    """Number of positions where two codes differ.

    Requires the extreme configuration (K = 2) where each sub-index is a
    single bit, making this equal to the XOR popcount of the packed codes.
    """
    if a.n_codebooks != b.n_codebooks or a.n_codewords != b.n_codewords:
        raise ConfigMismatchError("codes come from different (M, K) settings")
    if a.n_codewords != 2:
        raise KNot2Error(f"hamming distance requires K=2, got K={a.n_codewords}")
    return int(np.count_nonzero(a.indices != b.indices))


def search_topk_hamming(
    index: RetrievalIndex, query_embedding: np.ndarray, model: ModelState, k: int
) -> list[tuple[int, float]]:
    """Top-k by Hamming distance between the query's own hard code and
    each stored code; requires an index built with K = 2 (else
    :class:`KNot2Error`).  Ties break on ascending doc id."""
    if index.books.n_codewords != 2:
        raise KNot2Error(
            f"hamming search requires an index with K=2, got K={index.books.n_codewords}"
        )
    refined = _refine_query(index, model, query_embedding, k)
    # one row is one chunk of hard_assign_books, without its chunk loop's cost
    dist = squared_distances_books(refined[None, :], index.books.books)
    query = np.packbits(nearest_codewords(dist, np.empty(dist.shape[:2], np.uint8)),
                        bitorder="little")
    return _ranked(index.doc_ids, _hamming_distances(index, query), k)


def _hamming_distances(index: RetrievalIndex, query: np.ndarray) -> np.ndarray:
    """Popcount of each stored K = 2 code XOR the packed ``query`` code,
    word plane by word plane; its buffers are freed before the ranking."""
    n_bytes = len(query)
    # uint16, not uint8: np.partition is over 20x slower on uint8 keys
    dtype = np.promote_types(np.min_scalar_type(index.books.n_codebooks), np.uint16)
    differ = None
    for run, code in zip(code_runs(index._planes, n_bytes), code_runs(query, n_bytes)):
        count = np.bitwise_xor(run, code[0])
        np.bitwise_count(count.view(np.uint8), out=count.view(np.uint8))
        if count.dtype == np.uint16:  # two byte counts lo + 256 hi fold to lo + hi
            count *= 257
            count >>= 8
        if differ is None:
            differ = count.astype(dtype, copy=False)
        else:
            differ += count
    return differ


def save_index(index: RetrievalIndex, path) -> None:
    """Write an index file; exact inverse of :func:`load_index`."""
    books = index.books
    with atomic_write(path) as f:
        f.write(MAGIC_INDEX)
        f.write(_HEADER.pack(
            INDEX_VERSION, books.n_codebooks, books.n_codewords, books.sub_dim, index.n_docs
        ))
        f.write(np.ascontiguousarray(books.books, dtype="<f4"))
        f.write(index.doc_ids.astype("<u8", copy=False))  # u64 whatever the resident width
        width = packed_code_nbytes(books.n_codebooks, books.n_codewords)
        runs = code_runs(index._planes, width)
        rows = np.empty((max(LOAD_BYTES // width, 1), width), np.uint8)
        for lo in range(0, index.n_docs, len(rows)):
            chunk = rows[:index.n_docs - lo]
            for column, run in zip(code_runs(chunk), runs):
                column[...] = run[lo:lo + len(chunk)]
            f.write(chunk)


def _read_exact(f, array: np.ndarray) -> np.ndarray:
    """Fill a contiguous array from ``f``; a short read raises
    :class:`TruncatedFileError`."""
    if f.readinto(array) != array.nbytes:
        raise TruncatedFileError(f"file shrank while reading {array.nbytes} bytes")
    return array


def load_index(path) -> RetrievalIndex:
    """Read an index file written by :func:`save_index`.  A header with
    M or sub_dim 0, and a file whose size differs from what its header
    declares, are rejected before any read; packed codes with a padding
    bit set, or a 16-bit field >= K, are refused by
    :class:`RetrievalIndex`.  Ids and codes are read through one reused
    buffer of ``LOAD_BYTES`` (of one code when a code is wider), so
    neither is copied whole after the read."""
    with open(path, "rb") as f:
        n_books, n_words, sub_dim, n_docs = read_header(f, MAGIC_INDEX, _HEADER, INDEX_VERSION)
        if n_words > MAX_CODEWORDS:
            raise FileFormatError(f"K={n_words} does not fit the format's u16 sub-indices")
        if min(n_books, sub_dim) < 1:
            raise FileFormatError(f"zero dimension in header: M={n_books}, sub_dim={sub_dim}")
        code_nbytes = packed_code_nbytes(n_books, n_words)
        declared = 8 + _HEADER.size + n_books * n_words * sub_dim * 4 + n_docs * (8 + code_nbytes)
        check_file_size(f, declared)
        books = _read_exact(f, np.empty((n_books, n_words, sub_dim), "<f4"))
        buffer = np.empty(max(LOAD_BYTES, code_nbytes), np.uint8)  # at least one code
        ids_at, doc_ids = f.tell(), np.empty(n_docs, np.uint32)
        for start in range(0, n_docs, LOAD_BYTES // 8):
            chunk = _read_exact(f, buffer[:8 * min(LOAD_BYTES // 8, n_docs - start)]).view("<u8")
            if chunk.max() >= 1 << 32:  # read every id again, as uint64
                f.seek(ids_at)
                doc_ids = _read_exact(f, np.empty(n_docs, "<u8"))
                break
            doc_ids[start:start + len(chunk)] = chunk
        if code_nbytes <= 2:  # one run, in file order
            codes = _read_exact(f, np.empty(n_docs * code_nbytes, np.uint8))
        else:
            codes = np.empty(n_docs * code_nbytes, np.uint8)
            runs = code_runs(codes, code_nbytes)
            step = len(buffer) // code_nbytes
            for start in range(0, n_docs, step):
                rows = min(step, n_docs - start)
                chunk = _read_exact(f, buffer[:code_nbytes * rows]).reshape(rows, code_nbytes)
                for run, column in zip(runs, code_runs(chunk)):
                    run[start:start + rows] = column
    return RetrievalIndex(CodebookSet(books), doc_ids=doc_ids, packed=codes)
