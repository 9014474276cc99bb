import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from micpq import dataio, quantizer, retrieval
from micpq.cli import main
from micpq.dataio import EmbeddingFile, EmbeddingMatrix, non_finite_at, write_embeddings
from micpq.encoder import EncoderParams, forward_batch
from micpq.errors import (
    BadMagicError,
    ConfigMismatchError,
    DimMismatchError,
    EmptyIndexError,
    FileFormatError,
    IndexOutOfRangeError,
    InvalidConfigError,
    InvalidSpecError,
    KNot2Error,
    MicpqError,
    NonFiniteInputError,
    TruncatedFileError,
    VersionMismatchError,
)
from micpq.quantizer import (
    CodebookSet,
    QuantCode,
    hard_assign_books,
    pack_codes_batch,
    packed_code_nbytes,
    reconstruct,
)
from micpq.retrieval import (
    INDEX_VERSION,
    LOAD_BYTES,
    MAGIC_INDEX,
    PAIR_ENTRIES,
    SCAN_ROWS,
    DistanceLUT,
    RetrievalIndex,
    _ranked,
    adc_distance,
    adc_distances,
    build_index,
    build_lut,
    hamming_distance,
    load_index,
    save_index,
    search_topk,
    search_topk_hamming,
)
from micpq.evaluation import split_indices
from micpq.trainer import ModelState, save_checkpoint


def _model(books: CodebookSet, encoder: EncoderParams) -> ModelState:
    return ModelState(
        encoder=encoder,
        books=books,
        m_weight=np.zeros_like(encoder.weight),
        v_weight=np.zeros_like(encoder.weight),
        m_bias=np.zeros_like(encoder.bias),
        v_bias=np.zeros_like(encoder.bias),
        m_books=np.zeros_like(books.books),
        v_books=np.zeros_like(books.books),
    )


def _identity_model(books: CodebookSet) -> ModelState:
    """Encoder that passes nonnegative inputs straight through."""
    d = books.dim
    return _model(books, EncoderParams(np.eye(d, dtype=np.float32), np.zeros(d, dtype=np.float32)))


def _random_model(gen, d_in: int, n_books: int, n_words: int, sub: int) -> ModelState:
    """A float32 model with a random encoder and random nonnegative books."""
    books = CodebookSet(np.abs(gen.normal(size=(n_books, n_words, sub))).astype(np.float32))
    return _model(books, EncoderParams(
        (gen.normal(size=(books.dim, d_in)) / np.sqrt(d_in)).astype(np.float32),
        gen.normal(0.0, 0.1, size=books.dim).astype(np.float32),
    ))


def _nonneg_books(seed, n_books, n_words, sub):
    gen = np.random.default_rng(seed)
    return CodebookSet(gen.uniform(0.1, 1.0, size=(n_books, n_words, sub)).astype(np.float32))


class TestBuildLUT:
    def test_zero_at_matching_codeword(self):
        books = _nonneg_books(0, 2, 4, 3)
        query = np.concatenate([books.books[0, 1], books.books[1, 2]])
        lut = build_lut(query, books)
        assert lut.table[0, 1] == 0.0
        assert lut.table[1, 2] == 0.0

    def test_hand_squared_distances(self):
        books = CodebookSet(np.array([[[1.0], [2.0]]], dtype=np.float32))
        lut = build_lut(np.array([0.0]), books)
        np.testing.assert_allclose(lut.table[0], [1.0, 4.0])

    def test_float32_matches_float64_recompute(self):
        books = _nonneg_books(1, 4, 8, 5)
        query = np.random.default_rng(2).uniform(0.0, 2.0, size=20).astype(np.float32)
        lut = build_lut(query, books)
        sub = 5
        for m in range(4):
            seg = query[m * sub:(m + 1) * sub].astype(np.float64)
            exact = ((books.books[m].astype(np.float64) - seg) ** 2).sum(axis=1)
            np.testing.assert_allclose(lut.table[m], exact, rtol=1e-4)


class TestADC:
    def test_exact_reconstruction_is_zero(self):
        books = _nonneg_books(3, 3, 4, 2)
        code = QuantCode(np.array([1, 3, 0], dtype=np.uint16), 4)
        query = reconstruct(books, code)
        lut = build_lut(query, books)
        assert adc_distance(lut, code) == 0.0

    def test_additive_over_segments(self):
        lut = DistanceLUT(np.array([[1.0, 9.0], [4.0, 25.0]], dtype=np.float32))
        assert adc_distance(lut, QuantCode(np.array([0, 0], dtype=np.uint16), 2)) == 5.0

    def test_matches_direct_distance_to_reconstruction(self):
        rng = np.random.default_rng(4)
        books = _nonneg_books(5, 4, 8, 3)
        for _ in range(50):
            query = rng.uniform(0.0, 2.0, size=books.dim).astype(np.float32)
            code = QuantCode(rng.integers(0, 8, size=4).astype(np.uint16), 8)
            lut = build_lut(query, books)
            direct = float(
                ((query.astype(np.float64) - reconstruct(books, code).astype(np.float64)) ** 2).sum()
            )
            assert adc_distance(lut, code) == pytest.approx(direct, rel=1e-5)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        books = _nonneg_books(6, 2, 4, 3)
        codes = rng.integers(0, 4, size=(10, 2)).astype(np.uint16)
        lut = build_lut(rng.uniform(0, 1, size=books.dim).astype(np.float32), books)
        batch = adc_distances(lut, codes)
        for i in range(10):
            assert batch[i] == pytest.approx(adc_distance(lut, QuantCode(codes[i], 4)))


class TestBuildIndex:
    def test_codeword_exact_corpus_stores_exact_indices(self):
        books = _nonneg_books(7, 2, 4, 3)
        doc = np.concatenate([books.books[0, 2], books.books[1, 1]])
        index = build_index(_identity_model(books), EmbeddingMatrix(doc[None, :]))
        assert index.codes.tolist() == [[2, 1]]

    def test_payload_size(self):
        books = _nonneg_books(8, 8, 16, 2)
        corpus = np.random.default_rng(9).uniform(0, 1, size=(1000, books.dim)).astype(np.float32)
        index = build_index(_identity_model(books), EmbeddingMatrix(corpus))
        assert index.payload_nbytes == 4000  # 1000 docs * 32 bits

    def test_deterministic(self):
        books = _nonneg_books(10, 2, 4, 3)
        corpus = np.random.default_rng(11).uniform(0, 1, size=(50, books.dim)).astype(np.float32)
        model = _identity_model(books)
        a = build_index(model, EmbeddingMatrix(corpus))
        b = build_index(model, EmbeddingMatrix(corpus))
        assert np.array_equal(a.packed, b.packed)
        assert np.array_equal(a.doc_ids, b.doc_ids)

    def test_chunked_codes_equal_one_whole_assignment(self, monkeypatch):
        gen = np.random.default_rng(12)
        books = CodebookSet(gen.normal(size=(8, 16, 3)).astype(np.float32))
        model = _identity_model(books)
        encoder = model.encoder = EncoderParams(
            gen.normal(size=(24, 10)).astype(np.float32), np.zeros(24, np.float32)
        )
        corpus = gen.normal(size=(2 * quantizer.ASSIGN_ROWS + 5, 10)).astype(np.float32)
        codes = build_index(model, EmbeddingMatrix(corpus)).codes
        monkeypatch.setattr(quantizer, "ASSIGN_ROWS", len(corpus))
        assert np.array_equal(codes, hard_assign_books(forward_batch(encoder, corpus), books.books))

    def test_peak_memory_holds_no_whole_refined_corpus(self):
        # tracemalloc sees numpy's data buffers; the (n, D) refined float32
        # array alone would be 76.8 MB here
        gen = np.random.default_rng(13)
        model = _random_model(gen, 64, 16, 2, 24)
        corpus = EmbeddingMatrix(gen.normal(size=(50_000, 64)).astype(np.float32))
        tracemalloc.start()
        try:
            build_index(model, corpus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_packed_build_holds_no_unpacked_codes(self, use_workers, n_workers):
        # 200,000 x 16 uint16 codes alone would be 6.4 MB; the packed planes
        # are 0.4 MB, the ids 0.8 MB and each worker's refined rows,
        # distances and indices about 1 MB (9.6-9.9 MB with the codes held)
        use_workers(n_workers)
        gen = np.random.default_rng(19)
        model = _random_model(gen, 4, 16, 2, 1)
        corpus = EmbeddingMatrix(gen.normal(size=(200_000, 4)).astype(np.float32))
        tracemalloc.start()
        try:
            index = build_index(model, corpus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5e6
        codes = hard_assign_books(forward_batch(model.encoder, corpus.values), model.books.books)
        assert np.array_equal(index.packed, pack_codes_batch(codes, 2))

    def test_non_finite_corpus_rejected_naming_the_row(self):
        gen = np.random.default_rng(15)
        model = _random_model(gen, 8, 4, 2, 3)
        corpus = gen.normal(size=(2 * quantizer.ASSIGN_ROWS + 7, 8)).astype(np.float32)
        corpus[quantizer.ASSIGN_ROWS + 9, 2] = np.nan
        with pytest.raises(NonFiniteInputError, match=f"row {quantizer.ASSIGN_ROWS + 9}"):
            build_index(model, corpus)
        corpus[quantizer.ASSIGN_ROWS + 9, 2] = 0.0
        corpus[3, 0] = np.inf
        with pytest.raises(NonFiniteInputError, match="row 3"):
            build_index(model, corpus)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_file_rows_are_checked_once_by_their_reader(self, tmp_path, monkeypatch, use_workers,
                                                        n_workers):
        use_workers(n_workers)
        gen = np.random.default_rng(17)
        model = _random_model(gen, 8, 4, 2, 3)
        corpus = gen.normal(size=(2 * quantizer.ASSIGN_ROWS + 7, 8)).astype(np.float32)
        write_embeddings(EmbeddingMatrix(corpus), tmp_path / "c.emb")
        expected = build_index(model, corpus)
        checked = []

        def spy(values):
            checked.append(len(values))
            return non_finite_at(values)

        monkeypatch.setattr(dataio, "non_finite_at", spy)
        monkeypatch.setattr(quantizer, "non_finite_at", spy)
        index = build_index(model, EmbeddingFile(tmp_path / "c.emb"))
        assert sum(checked) == len(corpus)
        assert np.array_equal(index.packed, expected.packed)

    @pytest.mark.parametrize("shape", [(8,), (5, 2, 8), (5, 7)])
    def test_corpus_that_is_not_n_by_d_in_rejected(self, shape):
        model = _random_model(np.random.default_rng(16), 8, 4, 2, 3)
        with pytest.raises(DimMismatchError, match=r"not \(n, 8\)"):
            build_index(model, np.zeros(shape, np.float32))

    def test_doc_ids_default_to_row_numbers(self, word_planes_of):
        books = _nonneg_books(17, 2, 4, 3)
        codes = np.random.default_rng(18).integers(0, 4, size=(6, 2))
        for index in (RetrievalIndex(books, codes),
                      RetrievalIndex(books, packed=word_planes_of(pack_codes_batch(codes, 4)))):
            assert index.doc_ids.dtype == np.uint32
            assert index.doc_ids.tolist() == list(range(6))
            assert np.array_equal(index.codes, codes)
        non_pow2 = CodebookSet(np.ones((2, 3, 1), np.float32))
        assert RetrievalIndex(non_pow2, codes % 3).doc_ids.tolist() == list(range(6))
        wide = RetrievalIndex(books, codes, np.array([5, 1 << 32, 0, 1, 2, 3]))
        assert wide.doc_ids.dtype == np.uint64
        assert wide.doc_ids.tolist() == [5, 1 << 32, 0, 1, 2, 3]
        given_u32 = np.arange(6, dtype=np.uint32)
        assert RetrievalIndex(books, codes, given_u32).doc_ids is given_u32
        assert RetrievalIndex(books, codes[:0], np.zeros(0)).doc_ids.dtype == np.uint32

    @pytest.mark.parametrize("ids, dtype", [
        (np.arange(6, dtype=np.uint64), np.uint32),
        (np.array([0, 1, 2, 3, 4, (1 << 32) - 1]), np.uint32),
        (np.array([0, 1, 2, 3, 4, 1 << 32], np.uint64), np.uint64),
        ([9, 2, 5, 7, 0, 1], np.uint32),
    ])
    def test_doc_ids_narrow_to_uint32_below_2_to_the_32(self, ids, dtype):
        books = _nonneg_books(17, 2, 4, 3)
        codes = np.random.default_rng(18).integers(0, 4, size=(6, 2))
        index = RetrievalIndex(books, codes, ids)
        assert index.doc_ids.dtype == dtype
        assert index.doc_ids.tolist() == np.asarray(ids).tolist()

    @pytest.mark.parametrize("ids", [np.arange(3).reshape(3, 1), np.arange(4), np.uint32(2)])
    def test_doc_ids_that_are_not_one_per_code_rejected(self, ids):
        books = _nonneg_books(17, 2, 4, 3)
        codes = np.random.default_rng(18).integers(0, 4, size=(3, 2))
        with pytest.raises(DimMismatchError, match="doc ids of shape"):
            RetrievalIndex(books, codes, ids)

    @pytest.mark.parametrize("ids", [[0, 1, -1], [0.0, 1.0, 2.0], [True, False, True],
                                     [0, 1, 1 << 64]])
    def test_negative_or_non_integer_doc_ids_rejected(self, ids):
        books = _nonneg_books(17, 2, 4, 3)
        corpus = np.random.default_rng(18).uniform(0, 1, (3, books.dim)).astype(np.float32)
        with pytest.raises(InvalidSpecError, match="non-negative integers"):
            build_index(_identity_model(books), EmbeddingMatrix(corpus), ids=np.array(ids))

    @pytest.mark.parametrize("split", ["all", "train"])
    def test_cli_index_file_equals_the_whole_pass_reference(self, tmp_path, monkeypatch, split):
        gen = np.random.default_rng(14)
        model = _random_model(gen, 64, 16, 2, 24)
        values = gen.normal(size=(2 * quantizer.ASSIGN_ROWS + 3, 64)).astype(np.float32)
        write_embeddings(EmbeddingMatrix(values), tmp_path / "c.emb")
        save_checkpoint(model, tmp_path / "m.ckpt")
        monkeypatch.setattr(dataio, "READ_BYTES", 1000 * 64 * 4)
        assert main(["index", "--ckpt", str(tmp_path / "m.ckpt"), "--emb", str(tmp_path / "c.emb"),
                     "--out", str(tmp_path / "c.idx"), "--split", split]) == 0

        rows = np.arange(len(values))
        if split == "train":
            rows = np.sort(split_indices(len(values), (0.8, 0.1, 0.1), 0)[0])
        codes = hard_assign_books(forward_batch(model.encoder, values[rows]), model.books.books)
        save_index(RetrievalIndex(model.books, codes, rows), tmp_path / "ref.idx")
        assert (tmp_path / "c.idx").read_bytes() == (tmp_path / "ref.idx").read_bytes()


class TestSearchTopK:
    def _setup(self, seed=12, n_docs=40, n_books=2, n_words=4, sub=3):
        books = _nonneg_books(seed, n_books, n_words, sub)
        rng = np.random.default_rng(seed + 1)
        corpus = rng.uniform(0.0, 1.5, size=(n_docs, books.dim)).astype(np.float32)
        model = _identity_model(books)
        return model, build_index(model, EmbeddingMatrix(corpus)), rng

    def test_k_larger_than_corpus_returns_full_ranking(self):
        model, index, rng = self._setup()
        query = rng.uniform(0, 1, size=index.books.dim).astype(np.float32)
        results = search_topk(index, query, model, k=10_000)
        assert len(results) == index.n_docs

    def test_matches_exhaustive_oracle(self):
        """LUT-based ranking equals the float64 exhaustive ranking over
        reconstructed codewords, with (distance, id) tie order."""
        model, index, rng = self._setup()
        books = index.books
        for _ in range(10):
            query = rng.uniform(0, 1, size=books.dim).astype(np.float32)
            results = search_topk(index, query, model, k=7)
            refined = forward_batch(model.encoder, query[None, :])[0].astype(np.float64)
            recon = np.stack(
                [reconstruct(books, QuantCode(c, books.n_codewords)) for c in index.codes]
            ).astype(np.float64)
            direct = ((recon - refined) ** 2).sum(axis=1)
            oracle = np.lexsort((index.doc_ids, direct))[:7]
            assert [doc for doc, _ in results] == [int(index.doc_ids[i]) for i in oracle]

    def test_identical_codes_tie_break_by_doc_id(self):
        books = _nonneg_books(13, 1, 4, 2)
        doc = np.concatenate([books.books[0, 1]])
        corpus = np.tile(doc, (3, 1))
        model = _identity_model(books)
        index = build_index(model, EmbeddingMatrix(corpus), ids=np.array([9, 2, 5], dtype=np.uint64))
        results = search_topk(index, doc.astype(np.float32), model, k=3)
        assert [doc_id for doc_id, _ in results] == [2, 5, 9]

    def test_empty_index_rejected(self):
        books = _nonneg_books(14, 1, 4, 2)
        index = RetrievalIndex(
            books=books,
            codes=np.zeros((0, 1), dtype=np.uint16),
            doc_ids=np.zeros(0, dtype=np.uint64),
        )
        with pytest.raises(EmptyIndexError):
            search_topk(index, np.zeros(2, dtype=np.float32), _identity_model(books), 1)

    @pytest.mark.parametrize("search", [search_topk, search_topk_hamming])
    def test_non_finite_query_and_non_integer_k_rejected(self, search):
        model, index, _, gen = _random_index(15, 16, 2, n_docs=200, sub=2)
        query = gen.uniform(0.0, 1.2, size=index.books.dim).astype(np.float32)
        for bad in (np.nan, np.inf, -np.inf):
            one = query.copy()
            one[3] = bad
            with pytest.raises(NonFiniteInputError):
                search(index, one, model, 5)
        with pytest.raises(NonFiniteInputError):
            search(index, np.full_like(query, np.nan), model, 5)
        for k in (2.5, 3.0, np.float64(3), "3"):
            with pytest.raises(InvalidConfigError):
                search(index, query, model, k)
        assert search(index, query, model, np.int64(3)) == search(index, query, model, 3)
        assert search(index, query, model, np.int32(50_000)) == search(index, query, model, 200)


class TestHamming:
    def _code(self, bits):
        return QuantCode(np.array(bits, dtype=np.uint16), 2)

    def test_identity(self):
        code = self._code([1, 0, 1, 1, 0, 0, 0, 1])
        assert hamming_distance(code, code) == 0

    def test_all_positions_differ(self):
        a = self._code([0] * 8)
        b = self._code([1] * 8)
        assert hamming_distance(a, b) == 8

    def test_packed_081_vs_080(self):
        a = self._code([1, 0, 0, 0, 0, 0, 0, 1])
        b = self._code([0, 0, 0, 0, 0, 0, 0, 1])
        assert a.packed() == b"\x81"
        assert b.packed() == b"\x80"
        assert hamming_distance(a, b) == 1

    def test_equals_xor_popcount_of_packed(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            bits_a = rng.integers(0, 2, size=16)
            bits_b = rng.integers(0, 2, size=16)
            a, b = self._code(bits_a), self._code(bits_b)
            xor = np.frombuffer(a.packed(), dtype=np.uint8) ^ np.frombuffer(
                b.packed(), dtype=np.uint8
            )
            popcount = int(np.unpackbits(xor).sum())
            assert hamming_distance(a, b) == popcount

    def test_is_a_metric(self):
        rng = np.random.default_rng(16)
        codes = [self._code(rng.integers(0, 2, size=12)) for _ in range(12)]
        for a in codes:
            assert hamming_distance(a, a) == 0
            for b in codes:
                assert hamming_distance(a, b) == hamming_distance(b, a)
                for c in codes:
                    assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)

    def test_mismatched_configs_rejected(self):
        with pytest.raises(ConfigMismatchError):
            hamming_distance(self._code([0, 1]), self._code([0, 1, 1]))
        with pytest.raises(KNot2Error):
            hamming_distance(
                QuantCode(np.array([0, 1], dtype=np.uint16), 4),
                QuantCode(np.array([0, 1], dtype=np.uint16), 4),
            )


class TestHammingSearch:
    def _setup(self, seed=17, n_docs=30, n_books=16):
        books = _nonneg_books(seed, n_books, 2, 2)
        rng = np.random.default_rng(seed + 1)
        corpus = rng.uniform(0.0, 1.2, size=(n_docs, books.dim)).astype(np.float32)
        model = _identity_model(books)
        return model, build_index(model, EmbeddingMatrix(corpus)), corpus, rng

    def test_indexed_document_ranks_first_for_its_own_embedding(self):
        model, index, corpus, _ = self._setup()
        results = search_topk_hamming(index, corpus[4], model, k=3)
        assert results[0][1] == 0.0
        top_zero = [doc for doc, dist in results if dist == 0.0]
        assert min(top_zero) == top_zero[0]

    def test_matches_brute_force_over_unpacked_indices(self):
        model, index, _, rng = self._setup()
        for _ in range(5):
            query = rng.uniform(0, 1.2, size=index.books.dim).astype(np.float32)
            results = search_topk_hamming(index, query, model, k=8)
            refined = forward_batch(model.encoder, query[None, :])[0]
            sub = index.books.sub_dim
            qcode = np.array(
                [
                    int(((index.books.books[m] - refined[m * sub:(m + 1) * sub]) ** 2)
                        .sum(axis=1).argmin())
                    for m in range(index.books.n_codebooks)
                ]
            )
            dists = (index.codes != qcode).sum(axis=1)
            oracle = np.lexsort((index.doc_ids, dists))[:8]
            assert [doc for doc, _ in results] == [int(index.doc_ids[i]) for i in oracle]

    def test_requires_two_codewords(self):
        books = _nonneg_books(18, 2, 4, 2)
        model = _identity_model(books)
        corpus = np.random.default_rng(19).uniform(0, 1, (5, books.dim)).astype(np.float32)
        index = build_index(model, EmbeddingMatrix(corpus))
        with pytest.raises(KNot2Error):
            search_topk_hamming(index, corpus[0], model, k=2)


class TestIndexFile:
    def _index(self, n_words=4):
        books = _nonneg_books(20, 3, n_words, 2)
        corpus = np.random.default_rng(21).uniform(0, 1, (17, books.dim)).astype(np.float32)
        return build_index(_identity_model(books), EmbeddingMatrix(corpus))

    def test_round_trip_exact(self, tmp_path):
        index = self._index()
        path = tmp_path / "corpus.idx"
        save_index(index, path)
        loaded = load_index(path)
        assert np.array_equal(loaded.codes, index.codes)
        assert np.array_equal(loaded.doc_ids, index.doc_ids)
        assert np.array_equal(loaded.packed, index.packed)
        assert np.array_equal(loaded.books.books, index.books.books)

    def test_round_trip_non_power_of_two(self, tmp_path):
        books = CodebookSet(
            np.random.default_rng(22).uniform(0.1, 1, (2, 3, 2)).astype(np.float32)
        )
        corpus = np.random.default_rng(23).uniform(0, 1, (9, books.dim)).astype(np.float32)
        index = build_index(_identity_model(books), EmbeddingMatrix(corpus))
        assert index.packed is None
        assert index.payload_nbytes == 9 * 2 * 2  # one u16 per sub-index
        path = tmp_path / "odd.idx"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.packed is None
        assert np.array_equal(loaded.codes, index.codes)

    def test_write_read_write_is_stable(self, tmp_path):
        index = self._index()
        p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
        save_index(index, p1)
        save_index(load_index(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_version_truncation(self, tmp_path):
        index = self._index()
        path = tmp_path / "c.idx"
        save_index(index, path)
        raw = path.read_bytes()

        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"WRONGMAG" + raw[8:])
        with pytest.raises(BadMagicError):
            load_index(bad)

        ver = bytearray(raw)
        ver[8:12] = (9).to_bytes(4, "little")
        bad.write_bytes(bytes(ver))
        with pytest.raises(VersionMismatchError):
            load_index(bad)

        bad.write_bytes(raw[:-5])
        with pytest.raises(TruncatedFileError):
            load_index(bad)

    def _crafted(self, tmp_path):
        """40 bytes declaring 2^60 documents (M=1, K=2, sub_dim=1)."""
        path = tmp_path / "huge.idx"
        header = struct.pack("<IIIIQ", INDEX_VERSION, 1, 2, 1, 2**60)
        path.write_bytes(MAGIC_INDEX + header + np.zeros(2, "<f4").tobytes())
        assert path.stat().st_size == 40
        return path

    def test_crafted_header_rejected_before_reading(self, tmp_path):
        with pytest.raises(FileFormatError):
            load_index(self._crafted(tmp_path))

    def test_trailing_bytes_rejected(self, tmp_path):
        for n_words in (4, 3):
            path = tmp_path / f"extra{n_words}.idx"
            save_index(self._index(n_words), path)
            path.write_bytes(path.read_bytes() + b"\0")
            with pytest.raises(FileFormatError):
                load_index(path)

    def test_cli_search_on_crafted_index_is_runtime_error(self, tmp_path, capsys):
        code = main(["search", "--index", str(self._crafted(tmp_path)),
                     "--ckpt", str(tmp_path / "m.ckpt"), "--queries", str(tmp_path / "q.emb")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err


def _whole_file_reader(path):
    """The reader before the chunked one: every array in one ``fromfile``,
    the codes made column-major by ``asfortranarray``."""
    with open(path, "rb") as f:
        f.read(len(MAGIC_INDEX))
        _, n_books, n_words, sub_dim, n_docs = struct.unpack("<IIIIQ", f.read(24))
        books = np.fromfile(f, "<f4", n_books * n_words * sub_dim)
        doc_ids = np.fromfile(f, "<u8", n_docs)
        width = packed_code_nbytes(n_books, n_words)
        codes = np.fromfile(f, np.uint8, n_docs * width).reshape(n_docs, width)
    return books.reshape(n_books, n_words, sub_dim), doc_ids, np.asfortranarray(codes)


class TestLoadIndex:
    # (M, K) of packed codes 1, 2, 2, 3, 4, 4, 5 and 8 bytes wide; K = 8 straddles bytes
    WIDTHS = [(2, 4), (4, 16), (5, 8), (8, 8), (8, 16), (10, 8), (5, 256), (8, 256)]

    @pytest.mark.parametrize("load_bytes", [64, LOAD_BYTES])
    @pytest.mark.parametrize("n_books, n_words", WIDTHS)
    def test_codes_and_ids_equal_the_whole_file_reader(self, tmp_path, monkeypatch, word_planes_of,
                                                       load_bytes, n_books, n_words):
        monkeypatch.setattr(retrieval, "LOAD_BYTES", load_bytes)
        # crosses a chunk boundary of the ids and of the codes
        n_docs = 77 if load_bytes == 64 else LOAD_BYTES // 2 + 3
        gen = np.random.default_rng(n_books * n_words)
        codes = gen.integers(0, n_words, size=(n_docs, n_books))
        ids = gen.permutation(2 * n_docs)[:n_docs]
        save_index(RetrievalIndex(_nonneg_books(3, n_books, n_words, 2), codes, ids),
                   tmp_path / "w.idx")
        books, old_ids, old_codes = _whole_file_reader(tmp_path / "w.idx")
        loaded = load_index(tmp_path / "w.idx")
        # resident: the word planes of the file's codes, one buffer of n * bytes_per_code
        assert np.array_equal(loaded._planes, word_planes_of(old_codes))
        assert loaded.packed.flags.c_contiguous
        assert loaded.packed.shape == old_codes.shape
        assert np.array_equal(loaded.packed, old_codes)
        assert loaded.doc_ids.dtype == np.uint32
        assert np.array_equal(loaded.doc_ids, old_ids)
        assert np.array_equal(loaded.books.books, books)
        assert np.array_equal(loaded.codes, codes)

    @pytest.mark.parametrize("n_books, n_words", [(16, 16), (8, 8), (5, 8)])
    def test_codes_of_any_width_are_held_once(self, tmp_path, n_books, n_words):
        # 8-, 3- and 2-byte codes; codes of a width other than 2 or 4 bytes
        # were read whole and then made column-major, held twice
        n_docs = 60_000
        codes = np.random.default_rng(n_books).integers(0, n_words, size=(n_docs, n_books))
        save_index(RetrievalIndex(_nonneg_books(3, n_books, n_words, 1), codes), tmp_path / "w.idx")
        payload = n_docs * packed_code_nbytes(n_books, n_words)
        tracemalloc.start()
        try:
            loaded = load_index(tmp_path / "w.idx")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < payload + 4 * n_docs + LOAD_BYTES + 100_000
        assert np.array_equal(loaded.codes, codes)

    @pytest.mark.parametrize("chunk", ["first", "middle", "last"])
    def test_ids_from_2_to_the_32_keep_uint64_and_rank_by_id(self, tmp_path, chunk):
        step = LOAD_BYTES // 8  # ids per read
        n_docs = 3 * step + 5
        wide_row = {"first": 5, "middle": step + 17, "last": n_docs - 1}[chunk]
        books = _nonneg_books(4, 2, 4, 1)
        gen = np.random.default_rng(5)
        codes = gen.integers(0, 4, size=(n_docs, 2))
        codes[codes[:, 0] == 0, 0] = 1  # code (0, 0) is only the tie group's
        tied = [wide_row, 2 * step + 1, 3]
        codes[tied] = 0
        ids = 2 * np.arange(n_docs, dtype=np.uint64)
        ids[tied] = [(1 << 32) + 1, (1 << 32) - 1, 3]
        model = _identity_model(books)
        corpus = books.books[np.arange(2), codes].reshape(n_docs, 2)
        index = build_index(model, EmbeddingMatrix(corpus), ids=ids)
        assert index.doc_ids.dtype == np.uint64
        save_index(index, tmp_path / "a.idx")
        loaded = load_index(tmp_path / "a.idx")
        assert loaded.doc_ids.dtype == np.uint64
        assert np.array_equal(loaded.doc_ids, ids)
        save_index(loaded, tmp_path / "b.idx")
        assert (tmp_path / "b.idx").read_bytes() == (tmp_path / "a.idx").read_bytes()
        query = books.books[:, 0, :].reshape(-1)
        got = search_topk(loaded, query, model, k=5)
        assert got[:3] == [(3, 0.0), ((1 << 32) - 1, 0.0), ((1 << 32) + 1, 0.0)]
        distances = adc_distances(build_lut(query, books), loaded)
        assert [doc for doc, _ in got] == _oracle_ranking(loaded, distances, 5)


def _index_bytes(tmp_path, n_books, n_words):
    gen = np.random.default_rng(n_words)
    codes = gen.integers(0, n_words, size=(9, n_books))
    ids = gen.permutation(30)[:9]
    save_index(RetrievalIndex(_nonneg_books(6, n_books, n_words, 2), codes, ids),
               tmp_path / "src.idx")
    return (tmp_path / "src.idx").read_bytes()


def _load_or_micpq_error(path):
    """The loaded index, or None when ``load_index`` raised a MicpqError;
    any other exception fails the test."""
    try:
        return load_index(path)
    except MicpqError:
        return None


_FUZZ = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])
# packed 2-byte codes, packed 3-byte codes at K = 8, and one u16 per sub-index
_LAYOUTS = [(4, 16), (8, 8), (3, 5)]


class TestLoadIndexFuzz:
    @pytest.mark.parametrize("n_books, n_words", _LAYOUTS)
    @pytest.mark.parametrize("region", ["magic", "header", "books", "ids", "codes"])
    @_FUZZ
    @given(data=st.data())
    def test_truncation_in_every_region_raises(self, tmp_path, n_books, n_words, region, data):
        raw = _index_bytes(tmp_path, n_books, n_words)
        ids_at = 32 + n_books * n_words * 2 * 4
        lo, hi = {"magic": (0, 8), "header": (8, 32), "books": (32, ids_at),
                  "ids": (ids_at, ids_at + 9 * 8), "codes": (ids_at + 9 * 8, len(raw))}[region]
        cut = data.draw(st.integers(lo, hi - 1))
        (tmp_path / "cut.idx").write_bytes(raw[:cut])
        with pytest.raises(MicpqError):
            load_index(tmp_path / "cut.idx")

    @pytest.mark.parametrize("n_books, n_words", _LAYOUTS)
    @_FUZZ
    @given(flips=st.lists(st.tuples(st.integers(0, 31), st.integers(1, 255)), min_size=1,
                          max_size=3, unique_by=lambda flip: flip[0]))
    def test_flipped_header_bytes_raise(self, tmp_path, n_books, n_words, flips):
        raw = bytearray(_index_bytes(tmp_path, n_books, n_words))
        for at, mask in flips:
            raw[at] ^= mask
        (tmp_path / "flip.idx").write_bytes(bytes(raw))
        with pytest.raises(MicpqError):
            load_index(tmp_path / "flip.idx")

    @pytest.mark.parametrize("n_books, n_words", _LAYOUTS)
    @_FUZZ
    @given(n_docs=st.integers(10, (1 << 64) - 1))
    def test_oversized_n_docs_raises(self, tmp_path, n_books, n_words, n_docs):
        raw = bytearray(_index_bytes(tmp_path, n_books, n_words))
        raw[24:32] = n_docs.to_bytes(8, "little")
        (tmp_path / "big.idx").write_bytes(bytes(raw))
        with pytest.raises(MicpqError):
            load_index(tmp_path / "big.idx")

    @_FUZZ
    @given(fields=st.tuples(st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 32) - 1),
                            st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 64) - 1)),
           payload=st.binary(max_size=64))
    @example(fields=((1 << 32) - 1, (1 << 32) - 1, 0, 0), payload=b"")  # zero-size, huge shape
    @example(fields=(0, 2, 1, 1), payload=bytes(8))  # M = 0: zero-byte codes at K = 2
    # one code wider than LOAD_BYTES: 2,097,153 books, then the doc id and 262,145 code bytes
    @example(fields=(2_097_153, 2, 1, 1), payload=bytes(2_097_153 * 2 * 4 + 8 + 262_145))
    def test_any_header_loads_or_raises_a_micpq_error(self, tmp_path, fields, payload):
        path = tmp_path / "any.idx"
        path.write_bytes(MAGIC_INDEX + struct.pack("<IIIIQ", INDEX_VERSION, *fields) + payload)
        _load_or_micpq_error(path)

    @pytest.mark.parametrize("n_books, n_words", _LAYOUTS)
    @_FUZZ
    @given(data=st.data())
    def test_flipped_payload_bytes_load_exactly_or_raise(self, tmp_path, n_books, n_words, data):
        raw = bytearray(_index_bytes(tmp_path, n_books, n_words))
        at = data.draw(st.integers(32, len(raw) - 1))
        raw[at] ^= data.draw(st.integers(1, 255))
        (tmp_path / "flip.idx").write_bytes(bytes(raw))
        loaded = _load_or_micpq_error(tmp_path / "flip.idx")
        if loaded is not None:
            save_index(loaded, tmp_path / "again.idx")
            assert (tmp_path / "again.idx").read_bytes() == bytes(raw)


class TestPaddingBits:
    """Packed codes of M * log2(K) bits, not a multiple of 8, pad their last
    byte with zeros; the Hamming scan would count set padding bits."""

    @pytest.mark.parametrize("n_books, n_words, padding", [(12, 2, 0xF0), (3, 8, 0xFE)])
    @pytest.mark.parametrize("n_docs", [9, 70_000])
    def test_set_padding_bits_are_refused(self, tmp_path, n_books, n_words, padding, n_docs):
        gen = np.random.default_rng(n_books)
        codes = gen.integers(0, n_words, size=(n_docs, n_books))
        save_index(RetrievalIndex(_nonneg_books(6, n_books, n_words, 2), codes,
                                  np.arange(n_docs)), tmp_path / "ok.idx")
        raw = bytearray((tmp_path / "ok.idx").read_bytes())
        loaded = load_index(tmp_path / "ok.idx")
        assert np.array_equal(loaded.codes, codes)
        for bit in range(8):
            if padding >> bit & 1:
                flipped = raw.copy()
                flipped[len(raw) - 1 - 2 * (n_docs // 3)] |= 1 << bit  # a middle doc's last byte
                (tmp_path / "bad.idx").write_bytes(bytes(flipped))
                with pytest.raises(FileFormatError, match="padding"):
                    load_index(tmp_path / "bad.idx")


class TestArrayArgumentCheck:
    def test_single_code_functions_refuse_a_code_built_for_another_k(self):
        # reconstruct raised a bare IndexError; adc_distance returned 2.0
        with pytest.raises(ConfigMismatchError):
            reconstruct(CodebookSet(np.ones((2, 4, 1))), QuantCode([0, 15], 16))
        with pytest.raises(ConfigMismatchError):
            adc_distance(DistanceLUT(np.ones((2, 3))), QuantCode([0, 1], 4))

    # a 2-D query raised a bare ValueError, a str one a bare UFuncTypeError,
    # and a complex one lost its imaginary part
    @pytest.mark.parametrize("query", [np.zeros((4, 2)), np.array(list("abcd")),
                                       np.array([1j, 0, 0, 0])])
    def test_build_lut_refuses_a_query_that_is_not_a_real_vector(self, query):
        with pytest.raises(DimMismatchError):
            build_lut(query, _nonneg_books(0, 2, 4, 2))

    def test_distance_lut_refuses_a_str_table(self):
        with pytest.raises(DimMismatchError, match="integer or floating"):
            DistanceLUT(np.array([["a", "b"]]))

    def test_a_search_checks_its_query_once(self, monkeypatch):
        # build_lut checked the refined query again, and DistanceLUT the table
        books = _nonneg_books(2, 2, 4, 2)
        model = _identity_model(books)
        index = build_index(model, EmbeddingMatrix(np.ones((3, 4), np.float32)))
        checked = []

        def spy(values, *args, **kwargs):
            checked.append(args[-1])
            return dataio.checked_real(values, *args, **kwargs)

        monkeypatch.setattr(retrieval, "checked_real", spy)
        search_topk(index, np.ones(4), model, 2)
        assert checked == ["query"]

    # the Hamming search raised a bare ValueError
    @pytest.mark.parametrize("search, n_words", [(search_topk, 4), (search_topk, 2),
                                                 (search_topk_hamming, 2)])
    def test_a_model_of_another_output_width_is_refused(self, search, n_words):
        books = _nonneg_books(3, 2, n_words, 2)
        index = build_index(_identity_model(books), EmbeddingMatrix(np.ones((3, 4), np.float32)))
        wide = _model(books, EncoderParams(np.ones((6, 4), np.float32), np.zeros(6, np.float32)))
        with pytest.raises(DimMismatchError, match="output width 6"):
            search(index, np.ones(4), wide, 2)


class TestSubIndexCheck:
    """Every entry point that takes sub-indices checks them before the
    uint16 cast, so none wraps or is truncated into [0, K)."""

    @pytest.mark.parametrize("bad", [65_539, -1, -65_533, 1.5])
    def test_wrapping_and_fractional_indices_are_refused(self, bad):
        books = _nonneg_books(70, 2, 16, 2)
        codes = np.array([[2, 1], [bad, 1]])  # 65,539 and -65,533 would be stored as 3
        lut = build_lut(np.zeros(books.dim, np.float32), books)
        for call in (lambda: QuantCode(codes[1], 16), lambda: RetrievalIndex(books, codes),
                     lambda: adc_distances(lut, codes), lambda: pack_codes_batch(codes, 16)):
            with pytest.raises(IndexOutOfRangeError):
                call()

    def test_an_index_past_uint16_is_refused_at_any_k(self):
        # 70,000 was stored as 4,464 when K exceeded 2^16
        for call in (lambda: QuantCode([70_000], 1 << 17),
                     lambda: pack_codes_batch([[70_000]], 1 << 17)):
            with pytest.raises(IndexOutOfRangeError, match=r"\[0, 65536\)"):
                call()

    @pytest.mark.parametrize("bad, dtype", [(300, np.uint16), (-1, np.int64), (1.7, np.float64)])
    def test_packed_values_that_are_not_bytes_are_refused(self, word_planes_of, bad, dtype):
        books = _nonneg_books(71, 4, 16, 2)
        packed = pack_codes_batch(np.array([[2, 1, 0, 3], [1, 1, 1, 1]]), 16)
        planes = word_planes_of(packed)
        assert RetrievalIndex(books, packed=planes)._planes is planes  # uint8 is kept as given
        for given in (planes, planes.astype(np.int64), planes.astype(np.uint16)):
            assert np.array_equal(RetrievalIndex(books, packed=given).packed, packed)
        wide = planes.astype(dtype)
        wide[2] = bad  # code 1's first byte: 300 would be stored as 44, -1 as 255 and 1.7 as 1
        with pytest.raises(FileFormatError, match=r"\[0, 256\)"):
            RetrievalIndex(books, packed=wide)
        for given in (packed, planes[None]):  # file order; one row of planes
            with pytest.raises(DimMismatchError, match="flat word planes"):
                RetrievalIndex(books, packed=given)

    @pytest.mark.parametrize("n_books", [7, 9])
    def test_packed_payload_with_a_padding_bit_set_is_refused(self, word_planes_of, n_books):
        # a set padding bit would rank two documents with the same code at
        # Hamming distances one apart
        books = _nonneg_books(72, n_books, 2, 2)
        planes = word_planes_of(pack_codes_batch(np.zeros((2, n_books), np.uint16), 2))
        assert RetrievalIndex(books, packed=planes).n_docs == 2
        for bit in range(n_books % 8, 8):
            flipped = planes.copy()
            flipped[-1] |= 1 << bit  # code 1's last byte, at either width
            with pytest.raises(FileFormatError, match="padding"):
                RetrievalIndex(books, packed=flipped)


def _random_index(seed, n_books, n_words, n_docs=600, sub=3, distinct=None, grid=False):
    """Identity model, nonnegative books and codes; doc ids are a shuffled
    range.  With ``distinct``, codes repeat a few rows, so ties are large.
    With ``grid``, book entries are multiples of 1/8."""
    gen = np.random.default_rng(seed)
    books = _nonneg_books(seed, n_books, n_words, sub)
    if grid:
        books = CodebookSet((gen.integers(1, 9, size=books.books.shape) / 8).astype(np.float32))
    pool = gen.integers(0, n_words, size=(distinct or n_docs, n_books))
    codes = pool[gen.integers(0, len(pool), size=n_docs)] if distinct else pool
    ids = gen.permutation(n_docs * 3)[:n_docs].astype(np.uint64)
    index = RetrievalIndex(books, codes.astype(np.uint16), ids)
    return _identity_model(books), index, codes, gen


def _oracle(index, codes, query):
    """float64 distances from the refined query to each reconstruction."""
    books = index.books
    recon = books.books[np.arange(books.n_codebooks), codes].reshape(len(codes), -1)
    return ((recon.astype(np.float64) - query.astype(np.float64)) ** 2).sum(axis=1)


def _oracle_ranking(index, distances, k):
    order = np.lexsort((index.doc_ids, distances))[:k]
    return [int(index.doc_ids[i]) for i in order]


def _pair_tree(parts):
    """Sum over axis 0 out of place, padding an odd count with a zero part."""
    while len(parts) > 1:
        if len(parts) % 2:
            parts = np.concatenate([parts, np.zeros_like(parts[:1])])
        parts = parts[0::2] + parts[1::2]
    return parts[0]


def _flat_gather_scan(table, packed):
    """Reference byte scan: 256-entry tables from a zero-padded table, then
    one flat gather over all byte columns at once, summed by the pair tree."""
    n_books, n_words = table.shape
    bits = n_words.bit_length() - 1
    per_byte, n_bytes = 8 // bits, packed.shape[1]
    rows = np.pad(table, ((0, n_bytes * per_byte - n_books), (0, 0)))
    slot = np.arange(per_byte)[:, None]
    fields = (np.arange(256) >> (slot * bits)) & (n_words - 1)
    entries = rows.reshape(n_bytes, per_byte, n_words)[:, slot, fields]
    tables = _pair_tree(entries.transpose(1, 0, 2))
    return _pair_tree(tables.ravel().take(packed.T + 256 * np.arange(n_bytes)[:, None]))


class TestFastPaths:
    """The packed scans and partial selection against reference paths."""

    @pytest.mark.parametrize(
        "n_books,n_words", [(8, 16), (7, 16), (16, 2), (4, 4), (3, 256), (5, 8), (4, 3)]
    )
    def test_adc_scan_matches_gather_and_oracle(self, n_books, n_words):
        seed = 30 + n_books * n_words
        model, index, codes, gen = _random_index(seed, n_books, n_words)
        eps = np.finfo(np.float32).eps
        for _ in range(5):
            query = gen.uniform(0.0, 1.2, size=index.books.dim).astype(np.float32)
            lut = build_lut(query, index.books)
            scanned = adc_distances(lut, index)
            gathered = lut.table[np.arange(n_books), codes].sum(axis=1)
            assert scanned.dtype == np.float32
            if (n_books, n_words) == (8, 16):
                assert np.array_equal(scanned, gathered)
            else:
                np.testing.assert_allclose(scanned, gathered, rtol=2 * n_books * eps)
            np.testing.assert_allclose(scanned, _oracle(index, codes, query), rtol=1e-5)
            got = search_topk(index, query, model, 50)
            assert got == [(int(index.doc_ids[i]), float(scanned[i]))
                           for i in np.lexsort((index.doc_ids, scanned))[:50]]
        # on a grid of eighths every distance is exact in float32, so the
        # ranking must be the float64 oracle's, ties and all
        model, index, codes, gen = _random_index(seed, n_books, n_words, grid=True)
        for _ in range(5):
            query = (gen.integers(0, 10, size=index.books.dim) / 8).astype(np.float32)
            oracle = _oracle(index, codes, query)
            for k in (1, 10, 100):
                got = search_topk(index, query, model, k)
                assert [doc for doc, _ in got] == _oracle_ranking(index, oracle, k)
                assert [dist for _, dist in got] == sorted(oracle)[:k]

    @pytest.mark.parametrize(  # 1 to 4 word planes, and an odd last byte at 1, 3 and 7 bytes
        "n_books,n_words", [(8, 16), (7, 16), (4, 4), (3, 256), (16, 2), (9, 2), (5, 16), (1, 16),
                            (16, 16), (7, 256)]
    )
    def test_adc_scan_is_bit_identical_to_flat_gather(self, monkeypatch, word_planes_of,
                                                      n_books, n_words):
        # above PAIR_ENTRIES rows the scan reads word planes in SCAN_ROWS
        # blocks, and an odd last byte alone; a PAIR_ENTRIES of 0 sends
        # every n there, to end a block one row short, one row over, or
        # after three blocks and 7 rows
        for n_docs, pair_entries in [
            (999, PAIR_ENTRIES), (PAIR_ENTRIES + 1, PAIR_ENTRIES), (999, 0),
            (SCAN_ROWS - 1, 0), (SCAN_ROWS + 1, 0), (3 * SCAN_ROWS + 7, 0),
            (SCAN_ROWS + 1, PAIR_ENTRIES),
        ]:
            monkeypatch.setattr(retrieval, "PAIR_ENTRIES", pair_entries)
            _, index, codes, gen = _random_index(60 + n_books * n_words, n_books, n_words,
                                                 n_docs=n_docs)
            raw_packed = pack_codes_batch(codes, n_words)
            assert raw_packed.flags.c_contiguous  # raw codes pack in file order at every n
            assert np.array_equal(index._planes, word_planes_of(raw_packed))
            for _ in range(5):
                lut = build_lut(gen.uniform(0.0, 1.2, size=index.books.dim).astype(np.float32),
                                index.books)
                expected = _flat_gather_scan(lut.table, raw_packed).view(np.uint32)
                for scanned in (adc_distances(lut, index), adc_distances(lut, codes)):
                    assert scanned.dtype == np.float32
                    assert np.array_equal(scanned.view(np.uint32), expected)

    @pytest.mark.parametrize(  # uint16 codes, and power-of-two K whose log2 does not divide 8
        "n_books,n_words", [(8, 12), (3, 12), (5, 100), (16, 3), (5, 8), (3, 32), (3, 512)]
    )
    def test_unpacked_scan_is_bit_identical_to_one_gather(self, n_books, n_words):
        # SCAN_ROWS blocks, the last one row long or 7 rows long
        for n_docs in (SCAN_ROWS + 1, 3 * SCAN_ROWS + 7):
            _, index, codes, gen = _random_index(63 + n_books * n_words, n_books, n_words,
                                                 n_docs=n_docs)
            lut = build_lut(gen.uniform(0.0, 1.2, size=index.books.dim).astype(np.float32),
                            index.books)
            expected = lut.table[np.arange(n_books), codes].sum(axis=1).view(np.uint32)
            for scanned in (adc_distances(lut, index), adc_distances(lut, codes)):
                assert scanned.dtype == np.float32
                assert np.array_equal(scanned.view(np.uint32), expected)

    @pytest.mark.parametrize("search,n_books,n_words,n_docs,per_doc", [
        (search_topk_hamming, 16, 2, 100_000, 6),
        (search_topk, 8, 16, 100_000, 12),
        (search_topk, 8, 16, 200_000, 12),
        (search_topk, 8, 12, 100_000, 12),
    ], ids=["hamming", "adc", "adc-200k", "adc-k12"])
    def test_query_allocates_no_wide_per_document_arrays(self, search, n_books, n_words,
                                                         n_docs, per_doc):
        # tracemalloc sees numpy's data buffers; one more int64 array the
        # size of the corpus would add 8 bytes per document
        model, index, _, gen = _random_index(61, n_books, n_words, n_docs=n_docs, sub=2)
        query = gen.uniform(0.0, 1.2, size=index.books.dim).astype(np.float32)
        search(index, query, model, 100)  # warm
        tracemalloc.start()
        try:
            search(index, query, model, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n_docs <= per_doc

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_minflt counts minor page faults on Linux")
    def test_warm_adc_queries_fault_in_few_pages(self, tmp_path):
        # a fresh interpreter that loads an index, as `micpq search` does:
        # per-query arrays the size of the corpus were mapped and unmapped
        # again by every query, 977 faults each
        model, index, _, gen = _random_index(62, 8, 16, n_docs=200_000, sub=2)
        save_index(index, tmp_path / "a.idx")
        save_checkpoint(model, tmp_path / "m.ckpt")
        np.save(tmp_path / "q.npy", gen.uniform(0.0, 1.2, size=(21, 16)).astype(np.float32))
        code = f"""
import resource
import numpy as np
from micpq.retrieval import load_index, search_topk
from micpq.trainer import load_checkpoint
index = load_index({str(tmp_path / "a.idx")!r})
model = load_checkpoint({str(tmp_path / "m.ckpt")!r})
queries = np.load({str(tmp_path / "q.npy")!r})
search_topk(index, queries[0], model, 100)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for query in queries[1:]:
    search_topk(index, query, model, 100)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(retrieval.__file__).resolve().parent.parent))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert int(done.stdout.split()[-1]) < 50 * 20

    def test_single_code_distance_equals_index_scan(self):
        _, index, codes, gen = _random_index(40, 6, 16, n_docs=50)
        lut = build_lut(gen.uniform(0.0, 1.2, size=index.books.dim).astype(np.float32), index.books)
        scanned = adc_distances(lut, index)
        for i in range(50):
            assert adc_distance(lut, QuantCode(codes[i], 16)) == scanned[i]

    @pytest.mark.parametrize("n_books,n_words", [(8, 16), (4, 3)])
    def test_ties_at_the_cut_come_in_doc_id_order(self, n_books, n_words):
        for n_docs in (2000, 10_000):
            model, index, codes, gen = _random_index(41, n_books, n_words, n_docs=n_docs,
                                                     distinct=4)
            for _ in range(4):
                query = gen.uniform(0.0, 1.2, size=index.books.dim).astype(np.float32)
                distances = adc_distances(build_lut(query, index.books), index)
                for k in (1, 10, 44, 45, 100, 700):  # k * k <= n bounds the cut by block minima
                    got = search_topk(index, query, model, k)
                    kth = np.sort(distances)[k - 1]
                    assert np.count_nonzero(distances <= kth) > k  # the cut splits a tie group
                    assert [doc for doc, _ in got] == _oracle_ranking(index, distances, k)

    def test_ranked_equals_the_plain_partition_on_nan_and_ties(self):
        def plain(doc_ids, distances, k):
            # the selection without the block bound
            if k < len(distances):
                rows = np.flatnonzero(~(distances > np.partition(distances, k - 1)[k - 1]))
            else:
                rows = np.arange(len(distances))
            rows = rows[np.lexsort((doc_ids[rows], distances[rows]))[:k]]
            return list(zip(doc_ids[rows].tolist(), distances[rows].astype(np.float64).tolist()))

        gen = np.random.default_rng(45)
        k = 30
        for n in (k * k - 1, k * k, k * k + 17, 5000):
            ids = gen.permutation(2 * n)[:n].astype(np.uint64)
            ties = gen.integers(0, 9, size=n)
            nan_block = ties.astype(np.float32)
            nan_block[gen.integers(0, n, size=3)] = np.nan
            nan_tail = ties.astype(np.float32)
            nan_tail[-5:] = np.nan  # beyond k blocks when n % k
            mostly_nan = np.full(n, np.nan, np.float32)
            mostly_nan[gen.integers(0, n, size=40)] = 2.0
            # the k-1 smallest one per block (blocks of k or k+1 rows) and
            # the k-th in the last row: k-1 block minima do not bound the cut
            spread = ties.astype(np.float32) + 10
            spread[np.arange(k - 1) * (k + 1)] = gen.integers(0, 3, size=k - 1)
            spread[-1] = 5
            for distances in (ties.astype(np.uint16), nan_block, nan_tail, mostly_nan, spread):
                for kk in (1, 7, k - 1, k, k + 1, n - 1, n):
                    assert repr(_ranked(ids, distances, kk)) == repr(plain(ids, distances, kk))

    def test_k_one_n_and_beyond(self):
        model, index, codes, gen = _random_index(42, 8, 16, n_docs=300, distinct=40)
        query = gen.uniform(0.0, 1.2, size=index.books.dim).astype(np.float32)
        full = _oracle_ranking(index, _oracle(index, codes, query), 300)
        for k in (1, 299, 300, 301, 10_000):
            got = search_topk(index, query, model, k)
            assert [doc for doc, _ in got] == full[:k]

    @pytest.mark.parametrize(
        "n_docs,distinct", [(3000, None), (3000, 25), (64, 8), (10_000, 25)]
    )
    def test_hamming_matches_popcount_oracle(self, n_docs, distinct):
        # 1-6 bytes: an odd last byte at 7, 17, 24 and 40, a partial one at 7, 9 and 17
        for n_books in (7, 9, 16, 17, 24, 40, 48):
            model, index, codes, gen = _random_index(
                43, n_books, 2, n_docs=n_docs, sub=2, distinct=distinct
            )
            packed = pack_codes_batch(codes, 2)
            sub = index.books.sub_dim
            for _ in range(5):
                query = gen.uniform(0.0, 1.2, size=index.books.dim).astype(np.float32)
                refined = forward_batch(model.encoder, query[None, :])
                qcode = np.array([
                    hard_assign_books(refined[:, m * sub:(m + 1) * sub],
                                      index.books.books[m][None])[0, 0]
                    for m in range(n_books)
                ])
                ref = np.bitwise_count(packed ^ pack_codes_batch(qcode[None, :], 2)).sum(axis=1)
                for k in (1, 100, n_docs, n_docs + 1):
                    got = search_topk_hamming(index, query, model, k)
                    assert [doc for doc, _ in got] == _oracle_ranking(index, ref, k)
                    assert [dist for _, dist in got] == sorted(ref.astype(float))[:k]


class TestLayout:
    @pytest.mark.parametrize("n_words", [2, 16, 8, 256])
    def test_power_of_two_holds_only_packed_bytes(self, tmp_path, n_words):
        _, index, codes, _ = _random_index(50, 5, n_words, n_docs=77)
        # one code array of exactly n * bytes_per_code bytes; views are made on demand
        held = [v for v in vars(index).values() if isinstance(v, np.ndarray)]
        assert [v is index.doc_ids for v in held].count(False) == 1
        planes = next(v for v in held if v is not index.doc_ids)
        assert planes.dtype == np.uint8 and planes.shape == (77 * packed_code_nbytes(5, n_words),)
        assert index.packed is not index.packed  # built afresh, never kept
        assert np.array_equal(index.codes, codes)
        assert np.array_equal(pack_codes_batch(index.codes, n_words), index.packed)
        assert index.codes is not index.codes  # unpacked afresh, never kept
        books = index.books
        expected = (
            MAGIC_INDEX
            + struct.pack("<IIIIQ", INDEX_VERSION, 5, n_words, books.sub_dim, 77)
            + books.books.astype("<f4").tobytes()
            + index.doc_ids.astype("<u8").tobytes()
            + pack_codes_batch(codes, n_words).tobytes()
        )
        save_index(index, tmp_path / "a.idx")
        assert (tmp_path / "a.idx").read_bytes() == expected
        loaded = load_index(tmp_path / "a.idx")
        assert np.array_equal(loaded.codes, codes)
        assert np.array_equal(loaded.doc_ids, index.doc_ids)

    def test_other_k_holds_uint16_codes(self, tmp_path):
        _, index, codes, _ = _random_index(51, 4, 3, n_docs=20)
        assert index.packed is None
        assert index.codes.dtype == np.uint16 and np.array_equal(index.codes, codes)
        save_index(index, tmp_path / "b.idx")
        raw = (tmp_path / "b.idx").read_bytes()
        assert raw.endswith(codes.astype("<u2").tobytes())
