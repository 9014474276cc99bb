"""Correctness checks for benchmark outputs, computed apart from micpq.

Every reference here is built with numpy alone from the documented file
formats and the model's raw arrays: the index file is parsed by this
module, codes are unpacked and packed here, distances are computed from
reconstructed vectors in float64.  Nothing is compared against a saved
copy of an earlier run's output.  Each check raises :class:`CheckFailed`
with a message naming the first disagreement.
"""
from __future__ import annotations

import math
import struct

import numpy as np

F32_EPS = float(np.finfo(np.float32).eps)
# Allowed float32 rounding, as a multiple of eps times the magnitude of
# the operands (a query's squared norm plus the largest reconstruction's).
ROUNDING_ULPS = 64
CHUNK_ROWS = 16384


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's reference."""


def _fail(message: str) -> None:
    raise CheckFailed(message)


# --- file parsing ------------------------------------------------------------

def parse_index_file(path) -> dict:
    """Books, doc ids, codes and packed bytes of a ``MICPQIDX`` file."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != b"MICPQIDX":
        _fail(f"{path}: bad index magic {data[:8]!r}")
    _, n_books, n_words, sub_dim, n_docs = struct.unpack_from("<IIIIQ", data, 8)
    offset = 8 + struct.calcsize("<IIIIQ")
    n_book_vals = n_books * n_words * sub_dim
    books = np.frombuffer(data, "<f4", n_book_vals, offset).reshape(n_books, n_words, sub_dim)
    offset += n_book_vals * 4
    doc_ids = np.frombuffer(data, "<u8", n_docs, offset)
    offset += n_docs * 8
    packed = None
    if n_words >= 2 and n_words & (n_words - 1) == 0:
        bits = n_words.bit_length() - 1
        nbytes = (n_books * bits + 7) // 8
        packed = np.frombuffer(data, np.uint8, n_docs * nbytes, offset).reshape(n_docs, nbytes)
        codes = unpack_codes(packed, n_books, n_words)
        offset += packed.size
    else:
        codes = np.frombuffer(data, "<u2", n_docs * n_books, offset).reshape(n_docs, n_books)
        offset += codes.size * 2
    if offset != len(data):
        _fail(f"{path}: {len(data) - offset} bytes after the code payload")
    return {"books": books, "doc_ids": doc_ids, "codes": codes.astype(np.int64), "packed": packed}


def parse_checkpoint_file(path) -> dict:
    """Encoder weight and bias and the codebooks of a ``MICPQCKP`` file."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != b"MICPQCKP":
        _fail(f"{path}: bad checkpoint magic {data[:8]!r}")
    _, d_in, d_out, n_books, n_words, sub_dim, _ = struct.unpack_from("<IIIIIIQ", data, 8)
    offset = 8 + struct.calcsize("<IIIIIIQ")
    weight = np.frombuffer(data, "<f4", d_out * d_in, offset).reshape(d_out, d_in)
    offset += weight.nbytes
    bias = np.frombuffer(data, "<f4", d_out, offset)
    offset += bias.nbytes
    books = np.frombuffer(data, "<f4", n_books * n_words * sub_dim, offset)
    return {"weight": weight, "bias": bias, "books": books.reshape(n_books, n_words, sub_dim)}


def parse_labels_file(path) -> np.ndarray:
    """Class ids of a ``MICPQLBL`` file."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != b"MICPQLBL":
        _fail(f"{path}: bad label magic {data[:8]!r}")
    n_docs = struct.unpack_from("<Q", data, 12)[0]
    return np.frombuffer(data, "<u4", n_docs, 20)


def unpack_codes(packed: np.ndarray, n_books: int, n_words: int) -> np.ndarray:
    """(n, M) sub-indices of LSB-first packed codes."""
    bits = n_words.bit_length() - 1
    flat = np.unpackbits(packed, axis=1, count=n_books * bits, bitorder="little")
    weights = 1 << np.arange(bits)
    return flat.reshape(packed.shape[0], n_books, bits).astype(np.int64) @ weights


def pack_codes(codes: np.ndarray, n_words: int) -> np.ndarray:
    """(n, bytes) LSB-first packing of an (n, M) sub-index matrix."""
    bits = n_words.bit_length() - 1
    codes = np.asarray(codes, dtype=np.int64)
    flat = (codes[:, :, None] >> np.arange(bits)) & 1
    return np.packbits(flat.reshape(codes.shape[0], -1).astype(np.uint8), axis=1, bitorder="little")


# --- float64 references ------------------------------------------------------

def refine(weight: np.ndarray, bias: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """relu(rows @ weight.T + bias) in float64."""
    w = np.asarray(weight, dtype=np.float64)
    return np.maximum(np.asarray(rows, dtype=np.float64) @ w.T + np.asarray(bias, np.float64), 0.0)


def segment_sqdists(refined: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, M, K) squared distances from each segment to each codeword."""
    books = np.asarray(books, dtype=np.float64)
    n_books, _, sub_dim = books.shape
    segs = refined.reshape(refined.shape[0], n_books, sub_dim)
    return (
        (segs * segs).sum(axis=2)[:, :, None]
        - 2.0 * np.einsum("nmd,mkd->nmk", segs, books)
        + (books * books).sum(axis=2)[None, :, :]
    )


def reference_distances(queries_refined: np.ndarray, books: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """(Q, n) brute-force squared distances from each refined query to
    every document's reconstructed vector, in float64."""
    books = np.asarray(books, dtype=np.float64)
    n_books = books.shape[0]
    q = np.asarray(queries_refined, dtype=np.float64)
    out = np.empty((q.shape[0], codes.shape[0]))
    q_norm = (q * q).sum(axis=1)[:, None]
    for start in range(0, codes.shape[0], CHUNK_ROWS):
        chunk = codes[start:start + CHUNK_ROWS]
        recon = np.concatenate([books[m][chunk[:, m]] for m in range(n_books)], axis=1)
        out[:, start:start + len(chunk)] = (
            q_norm - 2.0 * q @ recon.T + (recon * recon).sum(axis=1)[None, :]
        )
    return out


def rounding_tolerance(query_refined: np.ndarray, books: np.ndarray) -> float:
    """Largest float32 rounding error allowed in one query's distances."""
    books = np.asarray(books, dtype=np.float64)
    max_recon = (books * books).sum(axis=2).max(axis=1).sum()
    return ROUNDING_ULPS * F32_EPS * (float(np.dot(query_refined, query_refined)) + max_recon)


# --- checks --------------------------------------------------------------

def _row_of(doc_ids: np.ndarray):
    order = np.argsort(doc_ids, kind="stable")
    sorted_ids = doc_ids[order]

    def rows(ids):
        ids = np.asarray(ids, dtype=np.uint64)
        pos = np.searchsorted(sorted_ids, ids)
        pos = np.minimum(pos, len(sorted_ids) - 1)
        if np.any(sorted_ids[pos] != ids):
            _fail(f"returned doc id {ids[sorted_ids[pos] != ids][0]} is not in the index")
        return order[pos]

    return rows


def _check_ranked_order(ids: np.ndarray, dists: np.ndarray, what: str) -> None:
    if len(np.unique(ids)) != len(ids):
        _fail(f"{what}: a doc id is returned twice")
    for r in range(1, len(ids)):
        if dists[r] < dists[r - 1] or (dists[r] == dists[r - 1] and ids[r] < ids[r - 1]):
            _fail(f"{what}: rank {r + 1} breaks (distance, doc id) order")


def check_adc(results, ref_dists: np.ndarray, tolerances, doc_ids: np.ndarray, k: int) -> None:
    """ADC results against brute-force float64 distances.

    ``results[q]`` is the program's (ids, distances) list for query q and
    ``ref_dists[q]`` the reference distance of every index row.  Distances
    must agree within the query's rounding tolerance; ids must agree
    except inside groups of documents whose reference distances lie
    within that tolerance of each other.
    """
    rows_of = _row_of(doc_ids)
    for q, (ids, dists) in enumerate(results):
        ids = np.asarray(ids, dtype=np.uint64)
        dists = np.asarray(dists, dtype=np.float64)
        ref = ref_dists[q]
        tol = tolerances[q]
        what = f"adc query {q}"
        if len(ids) != min(k, len(ref)):
            _fail(f"{what}: {len(ids)} results, expected {min(k, len(ref))}")
        _check_ranked_order(ids, dists, what)
        kth = np.partition(ref, len(ids) - 1)[len(ids) - 1]
        cand = np.flatnonzero(ref <= kth + tol)
        cand = cand[np.lexsort((doc_ids[cand], ref[cand]))]
        ref_sorted = ref[cand[:len(ids)]]
        if np.any(np.abs(dists - ref_sorted) > tol):
            r = int(np.argmax(np.abs(dists - ref_sorted) > tol))
            _fail(f"{what}: rank {r + 1} distance {dists[r]!r} != reference {ref_sorted[r]!r}")
        got = ref[rows_of(ids)]
        if np.any(np.abs(got - ref_sorted) > tol):
            r = int(np.argmax(np.abs(got - ref_sorted) > tol))
            _fail(f"{what}: rank {r + 1} doc {ids[r]} lies at {got[r]!r}, not {ref_sorted[r]!r}")
        must = doc_ids[ref < kth - tol]
        if not np.all(np.isin(must, ids)):
            _fail(f"{what}: doc {must[~np.isin(must, ids)][0]} is missing from the top {len(ids)}")


def check_hamming(results, query_packed, packed: np.ndarray, doc_ids: np.ndarray, k: int) -> None:
    """Hamming results against ``np.bitwise_count(packed ^ query)``.

    ``query_packed[q]`` lists the packed query codes the benchmark accepts
    for query q: one, or several when a segment sits within rounding of
    two codewords.  The results must equal the exact (distance, doc id)
    ranking for one of them.
    """
    for q, (ids, dists) in enumerate(results):
        ids = np.asarray(ids, dtype=np.uint64)
        dists = np.asarray(dists, dtype=np.float64)
        if not any(_is_hamming_ranking(ids, dists, qp, packed, doc_ids, k) for qp in query_packed[q]):
            _fail(f"hamming query {q}: results differ from the exact ranking")


def _is_hamming_ranking(ids, dists, query_packed, packed, doc_ids, k) -> bool:
    ref = np.bitwise_count(packed ^ query_packed[None, :]).sum(axis=1, dtype=np.int64)
    order = np.lexsort((doc_ids, ref))[:min(k, len(ref))]
    return np.array_equal(ids, doc_ids[order]) and np.array_equal(dists, ref[order])


def hamming_query_codes(query_refined: np.ndarray, books: np.ndarray, tol: float) -> list[np.ndarray]:
    """Packed query codes consistent with nearest-codeword assignment up
    to rounding: every combination of codewords within ``tol`` of a
    segment's nearest one."""
    d = segment_sqdists(query_refined[None, :], books)[0]
    choices = [np.flatnonzero(row <= row.min() + tol) for row in d]
    codes = np.array(np.meshgrid(*choices, indexing="ij")).reshape(len(choices), -1).T
    n_words = np.asarray(books).shape[1]
    return list(pack_codes(codes, n_words))


def check_nearest_codes(weight, bias, rows: np.ndarray, books: np.ndarray, codes: np.ndarray) -> None:
    """Every stored sub-index names a codeword at the minimum squared
    distance of its document's segment, to within float32 rounding.

    ``rows`` are the documents' input embeddings, refined here in float64.
    """
    books64 = np.asarray(books, dtype=np.float64)
    max_code = (books64 * books64).sum(axis=2).max(axis=1)
    for start in range(0, rows.shape[0], CHUNK_ROWS):
        refined = refine(weight, bias, rows[start:start + CHUNK_ROWS])
        d = segment_sqdists(refined, books64)
        chunk = codes[start:start + CHUNK_ROWS]
        stored = np.take_along_axis(d, chunk[:, :, None], axis=2)[:, :, 0]
        segs = refined.reshape(refined.shape[0], books64.shape[0], -1)
        tol = ROUNDING_ULPS * F32_EPS * ((segs * segs).sum(axis=2) + max_code[None, :])
        bad = np.argwhere(stored - d.min(axis=2) > tol)
        if len(bad):
            row, m = bad[0]
            _fail(f"stored code of index row {start + row}, book {m} is not its nearest codeword")


def check_same_index(a: dict, b: dict, what: str) -> None:
    """Two indexes hold identical books, doc ids and codes."""
    for key in ("books", "doc_ids", "codes"):
        if not np.array_equal(np.asarray(a[key]), np.asarray(b[key])):
            _fail(f"{what}: {key} differ")


def kth_tie_group(ref: np.ndarray, k: int, tol: float) -> int:
    """Number of documents whose reference distance lies within ``tol``
    of the k-th smallest: the tie group a top-k cut falls into."""
    kth = np.partition(ref, k - 1)[k - 1]
    return int(np.count_nonzero(np.abs(ref - kth) <= tol))


def recompute_precision(result_ids, query_labels: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Mean over queries of the share of the top-k ids whose label
    matches the query's."""
    fractions = [
        np.mean(labels[np.asarray(ids[:k], dtype=np.int64)] == label)
        for ids, label in zip(result_ids, query_labels)
    ]
    return float(np.mean(fractions))


def check_precision(reported: float, recomputed: float, tol: float, what: str) -> None:
    if not math.isfinite(reported) or abs(reported - recomputed) > tol:
        _fail(f"{what}: precision {reported!r} != recomputed {recomputed!r}")


def check_training(contrastive, totals, what: str) -> None:
    """Losses are finite and the last epoch's contrastive loss is below the first's."""
    values = np.asarray(list(contrastive) + list(totals), dtype=np.float64)
    if len(contrastive) < 2 or not np.all(np.isfinite(values)):
        _fail(f"{what}: losses missing or not finite")
    if not contrastive[-1] < contrastive[0]:
        _fail(f"{what}: contrastive loss rose from {contrastive[0]} to {contrastive[-1]}")


def parse_train_log(text: str) -> tuple[list[float], list[float]]:
    """(contrastive, total) per epoch from a ``--log`` file."""
    contrastive, totals = [], []
    for line in text.splitlines():
        fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
        contrastive.append(float(fields["contrastive"]))
        totals.append(float(fields["total"]))
    return contrastive, totals


def parse_search_output(text: str) -> dict[int, list[tuple[int, float]]]:
    """query index -> [(doc id, distance)] from ``micpq search`` stdout."""
    out: dict[int, list[tuple[int, float]]] = {}
    for line in text.splitlines():
        qi, rank, doc, dist = line.split("\t")
        ranked = out.setdefault(int(qi), [])
        if int(rank) != len(ranked) + 1:
            _fail(f"cli search: query {qi} rank {rank} out of sequence")
        ranked.append((int(doc), float(dist)))
    return out


def check_cli_search(cli: dict, library, hamming: bool) -> None:
    """``micpq search`` prints the library's ranking: the same ids and the
    same distances to the printed precision."""
    if sorted(cli) != list(range(len(library))):
        _fail(f"cli search answered queries {sorted(cli)[:5]}..., expected {len(library)}")
    for q, (ids, dists) in enumerate(library):
        printed = cli[q]
        if [doc for doc, _ in printed] != [int(i) for i in ids]:
            _fail(f"cli search query {q}: ids differ from the library ranking")
        for (_, shown), dist in zip(printed, dists):
            limit = 0.0 if hamming else 5e-7 + 1e-7 * abs(dist)
            if abs(shown - float(dist)) > limit:
                _fail(f"cli search query {q}: distance {shown} != library {dist}")
