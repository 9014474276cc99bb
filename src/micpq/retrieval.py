"""Compact retrieval index and asymmetric-distance search.

A corpus's codes are resident in one layout: bit-packed to ``M * log2(K)``
bits per document when K is a power of two (column-major, so each byte
position is one contiguous run), else one uint16 per sub-index.  A query
is refined once (dropout disabled) into an M x K table of squared
distances to every codeword; a document's distance is the sum of its M
entries, the squared distance from the refined query to its reconstructed
codeword.  When log2(K) divides 8 the table is folded into one 256-entry
table per code byte; the scan gathers each byte column into one float32
buffer and adds its rows in place as a tree of pairs, numpy's own order at
M=8, K=16.  An index of more than ``PAIR_ENTRIES`` rows with two or more
code bytes is gathered one byte pair at a time instead: pair j's
65,536-entry table holds the tree's first-level sums of bytes 2j and
2j+1, so building it costs about a 65,536-row gather and the distances
keep their bits.  K = 2 also ranks by Hamming distance: the popcounts of
packed query XOR document, summed byte column by byte column into uint16.
Top-k partitions around the k-th distance and sorts only the documents at
or below it, ties included, by (distance, doc id).  When k * k <= n, only
the documents at or below the largest minimum of k row blocks are
partitioned: those k minima bound the k-th distance.

Doc ids are resident as uint32 when every id is below 2^32, else as
uint64; the file always stores u64.  :func:`load_index` reads the ids
and packed codes through one reused buffer of ``LOAD_BYTES`` (of one
code when a code is wider): ids are narrowed chunk by chunk, and each
chunk of codes is split into the resident byte planes (2- and 4-byte
code words by shifts), so neither is copied whole after the read.

Index file layout (little-endian, unchanged): magic ``MICPQIDX`` | version
u32 | M u32 | K u32 | sub_dim u32 | n_docs u64 | codebooks M*K*sub_dim f32
| doc ids n_docs u64 | codes (packed row by row for power-of-two K, else
one u16 per sub-index).
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .dataio import EmbeddingFile, EmbeddingMatrix, atomic_write, check_file_size, read_header
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
    bits_per_index,
    checked_codes,
    diff_distances,
    encode_rows,
    is_pow2,
    nearest_codewords,
    pack_codes_batch,
    packed_code_nbytes,
    squared_distances_books,
    unpack_codes_batch,
)
from .trainer import ModelState

MAGIC_INDEX = b"MICPQIDX"
INDEX_VERSION = 1
_HEADER = struct.Struct("<IIIIQ")
SCAN_ROWS = 65536  # rows unpacked at a time when log2(K) does not divide 8
PAIR_ENTRIES = 1 << 16  # rows above which the byte scan reads byte pairs
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

    Give either ``codes``, an (n_docs, M) sub-index matrix, or ``packed``,
    the (n_docs, bytes_per_code) payload of a power-of-two K.  Only one
    layout is kept: ``packed`` for power-of-two K, column-major, else
    uint16 codes.  Sub-indices that are not integers in [0, K) raise
    :class:`~micpq.errors.IndexOutOfRangeError`.  A packed payload of
    values that are not integers in [0, 256), or with a padding bit set
    in a code's last byte, raises :class:`FileFormatError`: the Hamming
    scan counts every bit.
    ``doc_ids`` default to the row numbers.  They are kept as uint32 when
    the array is empty or every id is below 2^32, else as uint64; a
    uint32 array is kept as given.  Negative or non-integer ids raise
    :class:`InvalidSpecError`.
    """

    def __init__(self, books: CodebookSet, codes=None, doc_ids=None, packed=None) -> None:
        self.books = books
        n_books, n_words = books.n_codebooks, books.n_codewords
        self._codes = None if packed is not None else _checked_codes(codes, n_books, n_words)
        if packed is None and is_pow2(n_words):
            packed, self._codes = pack_codes_batch(self._codes, n_words), None
        elif packed is not None:  # checked before the cast, so no value wraps into a byte
            packed = np.asarray(packed)
            if packed.dtype != np.uint8 and packed.size and (
                    packed.dtype.kind not in "iu" or packed.min() < 0 or packed.max() > 0xFF):
                raise FileFormatError("packed codes must be integers in [0, 256)")
        self.packed = None if packed is None else np.asfortranarray(packed, dtype=np.uint8)
        stored = self._codes if packed is None else self.packed
        ids = np.arange(len(stored), dtype=np.uint32) if doc_ids is None else np.asarray(doc_ids)
        if ids.dtype != np.uint32:
            if ids.size and (ids.dtype.kind not in "iu" or ids.dtype.kind == "i" and ids.min() < 0):
                raise InvalidSpecError(f"doc ids must be non-negative integers, got {ids.dtype}")
            wide = ids.size and ids.max() >= 1 << 32
            ids = ids.astype(np.uint64 if wide else np.uint32, copy=False)
        self.doc_ids = np.ascontiguousarray(ids)
        width = n_books if packed is None else packed_code_nbytes(n_books, n_words)
        if stored.shape != (*self.doc_ids.shape, width):
            raise DimMismatchError(
                f"codes of shape {stored.shape} for doc ids of shape {self.doc_ids.shape} "
                f"(width {width} expected)"
            )
        if packed is not None:
            padding = (0xFF << ((n_books * bits_per_index(n_words)) % 8)) & 0xFF
            if padding != 0xFF and np.any(self.packed[:, -1] & padding):
                raise FileFormatError("packed codes have padding bits set")

    @property
    def codes(self) -> np.ndarray:
        """(n_docs, M) uint16 sub-indices, unpacked afresh when K is a power of two."""
        if self._codes is not None:
            return self._codes
        return unpack_codes_batch(self.packed, self.books.n_codebooks, self.books.n_codewords)

    @property
    def n_docs(self) -> int:
        return self.doc_ids.shape[0]

    @property
    def payload_nbytes(self) -> int:
        """Size of the stored code payload in bytes."""
        return int((self.packed if self._codes is None else self._codes).nbytes)


@dataclass
class DistanceLUT:
    """Per-query table: entry (m, k) is the squared distance from the
    query's segment m to codeword k of book m."""

    table: np.ndarray  # (M, K) float32

    def __post_init__(self) -> None:
        self.table = np.ascontiguousarray(self.table)
        if self.table.ndim != 2:
            raise DimMismatchError("distance table must be 2-D")


def build_index(
    model: ModelState, corpus: EmbeddingMatrix | EmbeddingFile, ids: np.ndarray | None = None
) -> RetrievalIndex:
    """Encode a corpus: refine (dropout disabled) and hard-assign it in row
    blocks with :func:`~micpq.quantizer.encode_rows`, which for
    power-of-two K packs each chunk's codes into the index's byte planes
    as they are assigned.  An :class:`~micpq.dataio.EmbeddingFile` corpus
    is read block by block as the blocks are encoded, so only the codes
    outlive a block; its codes equal those of the same rows read whole."""
    values = corpus
    if not isinstance(corpus, EmbeddingFile):
        values = np.asarray(getattr(corpus, "values", corpus))
    if len(values.shape) != 2 or values.shape[1] != model.encoder.d_in:
        raise DimMismatchError(
            f"corpus of shape {values.shape} is not (n, {model.encoder.d_in}), "
            "the encoder's input width"
        )
    if is_pow2(model.books.n_codewords):
        packed = encode_rows(model.encoder, model.books.books, values, packed=True)
        return RetrievalIndex(books=model.books, doc_ids=ids, packed=packed)
    codes = encode_rows(model.encoder, model.books.books, values)
    return RetrievalIndex(books=model.books, codes=codes, doc_ids=ids)


def build_lut(query_refined, books: CodebookSet) -> DistanceLUT:
    """Squared distances from every query segment to every codeword."""
    values = np.asarray(getattr(query_refined, "values", query_refined))
    if values.shape[0] != books.dim:
        raise DimMismatchError(
            f"refined query length {values.shape[0]} != codebooks' width {books.dim}"
        )
    segments = values.reshape(books.n_codebooks, books.sub_dim)
    return DistanceLUT(diff_distances(segments, books.books).astype(np.float32))


def _pairwise(parts: np.ndarray) -> np.ndarray:
    """Sum over axis 0 as a balanced tree of pairs: ((p0 + p1) + (p2 + p3))
    for four parts, which is how numpy sums a contiguous row of eight.
    Works in place, overwriting ``parts``.  An odd last part moves up a
    level as is: the bits of adding a zero part, as no distance is -0.0."""
    while len(parts) > 1:
        np.add(parts[:-1:2], parts[1::2], out=parts[:-1:2])
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
    slot = np.arange(per_byte)[:, None]
    fields = (np.arange(256) >> (slot * bits)) & (n_words - 1)
    entries = rows.reshape(n_bytes, per_byte, n_words)[:, slot, fields]
    return _pairwise(entries.transpose(1, 0, 2))


def _gather(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    return table[np.arange(table.shape[0]), codes].sum(axis=1)


def adc_distances(lut: DistanceLUT, codes) -> np.ndarray:
    """Asymmetric distances for every document of a :class:`RetrievalIndex`,
    or for every row of an (n, M) sub-index matrix."""
    table = lut.table
    n_books, n_words = table.shape
    if isinstance(codes, RetrievalIndex):
        if codes.books.books.shape[:2] != table.shape:
            raise DimMismatchError(f"table shape {table.shape} does not match the index's books")
        packed, codes = codes.packed, codes._codes
    else:
        codes = _checked_codes(codes, n_books, n_words)
        packed = pack_codes_batch(codes, n_words) if is_pow2(n_words) else None
    if packed is None:
        return _gather(table, codes)
    bits = bits_per_index(n_words)
    if 8 % bits == 0:
        tables = _byte_tables(table, bits)
        n_rows, n_bytes = packed.shape
        columns = packed.T
        if n_rows <= PAIR_ENTRIES or n_bytes < 2:
            parts = np.empty((n_bytes, n_rows), tables.dtype)
            for byte_table, column, part in zip(tables, columns, parts):
                byte_table.take(column, out=part, mode="clip")  # a byte is < 256
        else:
            # one 65,536-entry table per byte pair: the tree's first level
            n_pairs = n_bytes // 2
            pair_tables = np.empty((n_pairs, 256, 256), tables.dtype)
            np.add(tables[1::2, :, None], tables[0:2 * n_pairs:2, None, :], out=pair_tables)
            parts = np.empty((n_bytes - n_pairs, n_rows), tables.dtype)
            pair = np.empty(n_rows, np.uint16)
            for j in range(n_pairs):
                np.left_shift(columns[2 * j + 1], 8, out=pair, dtype=np.uint16)
                np.bitwise_or(pair, columns[2 * j], out=pair)
                pair_tables[j].ravel().take(pair, out=parts[j], mode="clip")
            if n_bytes % 2:
                tables[-1].take(columns[-1], out=parts[-1], mode="clip")
        return _pairwise(parts)
    out = np.empty(packed.shape[0], table.dtype)
    for start in range(0, len(out), SCAN_ROWS):
        chunk = unpack_codes_batch(packed[start:start + SCAN_ROWS], n_books, n_words)
        out[start:start + SCAN_ROWS] = _gather(table, chunk)
    return out


def adc_distance(lut: DistanceLUT, code: QuantCode) -> float:
    """Asymmetric distance: sum of the M table entries named by the code."""
    if code.n_codebooks != lut.table.shape[0]:
        raise DimMismatchError(
            f"code has {code.n_codebooks} indices, table has {lut.table.shape[0]} rows"
        )
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
        rows = (~(distances > bound)).nonzero()[0]
        rows = rows[_at_or_below_kth(distances[rows], k)]
    elif k < n:
        rows = _at_or_below_kth(distances, k)
    else:
        rows = np.arange(n)
    rows = rows[np.lexsort((doc_ids[rows], distances[rows]))[:k]]
    return list(zip(doc_ids[rows].tolist(), distances[rows].astype(np.float64).tolist()))


def _refine_query(index: RetrievalIndex, model: ModelState, query_embedding, k: int) -> np.ndarray:
    """Check k, the index and the query, then refine the query with dropout
    disabled."""
    if not isinstance(k, (int, np.integer)):
        raise InvalidConfigError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise InvalidConfigError("k must be >= 1")
    if index.n_docs == 0:
        raise EmptyIndexError("cannot search an empty index")
    query = np.asarray(query_embedding)
    if query.ndim != 1 or query.shape[0] != model.encoder.d_in:
        raise DimMismatchError(
            f"query length {query.shape} != encoder input width {model.encoder.d_in}"
        )
    if not np.isfinite(query).all():
        raise NonFiniteInputError("query must be finite")
    return forward_batch(model.encoder, query[None, :])[0]


def search_topk(
    index: RetrievalIndex, query_embedding: np.ndarray, model: ModelState, k: int
) -> list[tuple[int, float]]:
    """Top-k documents by asymmetric distance, ascending; ties break on
    ascending doc id.  Returns min(k, n_docs) (doc_id, distance) pairs."""
    lut = build_lut(_refine_query(index, model, query_embedding, k), index.books)
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
    each stored code; requires an index built with K = 2.  The query's
    nearest codewords are written into one uint8 row and packed by one
    ``np.packbits``: at one bit per book, index m is bit m of the code,
    the packing of :func:`~micpq.quantizer.pack_codes_batch`."""
    if index.books.n_codewords != 2:
        raise KNot2Error(
            f"hamming search requires an index with K=2, got K={index.books.n_codewords}"
        )
    refined = _refine_query(index, model, query_embedding, k)
    # one row is one chunk of hard_assign_books, without its chunk loop's cost
    dist = squared_distances_books(refined[None, :], index.books.books)
    query = np.packbits(nearest_codewords(dist, np.empty(dist.shape[:2], np.uint8)),
                        bitorder="little")
    # uint16, not uint8: np.partition is over 20x slower on uint8 keys
    n_books = index.books.n_codebooks
    differ = np.zeros(index.n_docs, np.promote_types(np.min_scalar_type(n_books), np.uint16))
    for column, byte in zip(index.packed.T, query):
        differ += np.bitwise_count(column ^ byte)
    return _ranked(index.doc_ids, differ, k)


def save_index(index: RetrievalIndex, path) -> None:
    """Write an index file; exact inverse of :func:`load_index`."""
    books = index.books
    with atomic_write(path) as f:
        f.write(MAGIC_INDEX)
        f.write(_HEADER.pack(
            INDEX_VERSION, books.n_codebooks, books.n_codewords, books.sub_dim, index.n_docs
        ))
        f.write(np.ascontiguousarray(books.books, dtype="<f4").tobytes())
        f.write(index.doc_ids.astype("<u8", copy=False))  # u64 whatever the resident width
        stored = index.codes.astype("<u2", copy=False) if index.packed is None else index.packed
        f.write(stored.tobytes())  # row by row, whatever the memory order


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
    bit set are refused by :class:`RetrievalIndex`."""
    with open(path, "rb") as f:
        n_books, n_words, sub_dim, n_docs = read_header(f, MAGIC_INDEX, _HEADER, INDEX_VERSION)
        if n_words > MAX_CODEWORDS:
            raise FileFormatError(f"K={n_words} does not fit the format's u16 sub-indices")
        if min(n_books, sub_dim) < 1:
            raise FileFormatError(f"zero dimension in header: M={n_books}, sub_dim={sub_dim}")
        packed = is_pow2(n_words)
        code_nbytes = packed_code_nbytes(n_books, n_words) if packed else 2 * n_books
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
        if not packed:
            codes = _read_exact(f, np.empty((n_docs, n_books), "<u2"))
        else:
            # each chunk of codes is split into the resident byte planes
            planes = np.empty((code_nbytes, n_docs), np.uint8)
            step = len(buffer) // code_nbytes
            for start in range(0, n_docs, step):
                rows = min(step, n_docs - start)
                chunk = _read_exact(f, buffer[:code_nbytes * rows])
                into = planes[:, start:start + rows]
                if code_nbytes in (2, 4):
                    # byte j of each little-endian code word is shifted out into plane j
                    words = chunk.view(f"<u{code_nbytes}")
                    for j, plane in enumerate(into):
                        np.right_shift(words, 8 * j, out=plane, casting="unsafe")
                else:
                    into[...] = chunk.reshape(rows, code_nbytes).T
            codes = planes.T
    if packed:
        return RetrievalIndex(CodebookSet(books), doc_ids=doc_ids, packed=codes)
    return RetrievalIndex(CodebookSet(books), codes, doc_ids)
