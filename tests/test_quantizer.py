import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from micpq import dataio, quantizer
from micpq.dataio import EmbeddingFile, EmbeddingMatrix, write_embeddings
from micpq.encoder import EncoderParams, forward_batch
from micpq.errors import (
    DimMismatchError,
    FileFormatError,
    IndexOutOfRangeError,
    InvalidConfigError,
    KNotPowerOfTwoError,
    NonFiniteInputError,
    NonPositiveTemperatureError,
)
from micpq.objectives import LossConfig, draw_noise
from micpq.quantizer import (
    CodebookSet,
    QuantCode,
    encode_rows,
    gumbel_from_uniform,
    hard_assign_books,
    nearest_codewords,
    pack_codes,
    pack_codes_batch,
    pack_planes,
    packed_code_nbytes,
    quantize_document,
    reconstruct,
    squared_distances_books,
    unpack_codes,
    unpack_codes_batch,
)

from oracles import assign_probs, sample_soft_losses, step_soft


class TestAssignProbs:
    def test_equidistant_codewords_split_evenly(self):
        book = np.array([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(assign_probs(np.zeros(2), book), [0.5, 0.5])

    def test_exact_match_against_unit_distance(self):
        # p = exp(0) / (exp(0) + exp(-1)) = 1 / (1 + e^-1)
        book = np.array([[2.0, 2.0], [2.0, 3.0]])
        probs = assign_probs(np.array([2.0, 2.0]), book)
        np.testing.assert_allclose(probs[0], 1.0 / (1.0 + np.exp(-1.0)), rtol=1e-6)
        np.testing.assert_allclose(probs[0], 0.73106, atol=1e-5)

    def test_identical_codewords_give_uniform(self):
        book = np.tile(np.array([[3.0, -1.0]]), (5, 1))
        np.testing.assert_allclose(assign_probs(np.array([0.5, 0.5]), book), np.full(5, 0.2))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            probs = assign_probs(rng.normal(size=4), rng.normal(size=(8, 4)))
            assert abs(probs.sum() - 1.0) < 1e-6
            assert np.all(probs >= 0)

    def test_float32_matches_float64_recompute(self):
        rng = np.random.default_rng(1)
        seg = rng.normal(size=6).astype(np.float32)
        book = rng.normal(size=(16, 6)).astype(np.float32)
        p32 = assign_probs(seg, book)
        p64 = assign_probs(seg.astype(np.float64), book.astype(np.float64))
        np.testing.assert_allclose(p32, p64, rtol=1e-4)


class TestGumbel:
    def test_median_uniform_maps_to_known_value(self):
        # -log(-log(0.5)) = -log(log 2)
        np.testing.assert_allclose(
            gumbel_from_uniform(np.array([0.5]))[0], 0.36651, atol=1e-5
        )

    def test_draws_always_finite(self):
        assert np.all(np.isfinite(gumbel_from_uniform(np.array([0.0, 1.0, 0.5]))))
        assert np.all(np.isfinite(gumbel_from_uniform(np.random.default_rng(3).random(10_000))))

    def test_sample_mean_matches_euler_mascheroni(self):
        draws = gumbel_from_uniform(np.random.default_rng(4).random(1_000_000))
        assert abs(draws.mean() - 0.5772) < 0.01

    def test_deterministic(self):
        # the training step's Gumbel noise is a function of its seed alone
        data = np.random.default_rng(8).random((3, 4))
        draws = []
        for seed in (9, 9, 10):
            inputs, by_row = np.empty((6, 4)), np.empty((6, 2, 4))
            draw_noise(data, LossConfig(), seed, inputs, by_row.transpose(1, 0, 2))
            draws.append(by_row)
        assert draws[0].tobytes() == draws[1].tobytes()
        assert not np.array_equal(draws[0], draws[2])


def _step_assignment(segments, book, gumbel, temperature):
    """The training step's Gumbel-softmax weights (n, K) and codeword
    mixtures (n, sub_dim) of n nonnegative segments against one book under
    (n, K) noise.  The encoder is the identity, so the refined rows are the
    segments; n is even, the step's two views of n / 2 documents."""
    ws = step_soft(np.asarray(segments, dtype=np.float64), np.asarray(book)[None],
                   np.asarray(gumbel, dtype=np.float64)[None], temperature)
    return ws.soft[0], ws.mixtures


class TestSoftAssign:
    """The Gumbel-softmax weights softmax(-(d^2 + g) / temperature) of the
    training step, one book at a time."""

    def test_zero_noise_unit_temperature_reduces_to_assign_probs(self):
        rng = np.random.default_rng(2)
        segs = rng.random((4, 3))
        book = rng.normal(size=(5, 3))
        soft, _ = _step_assignment(segs, book, np.zeros((4, 5)), 1.0)
        for seg, probs in zip(segs, soft):
            np.testing.assert_allclose(probs, assign_probs(seg, book), rtol=1e-12)

    def test_low_temperature_approaches_one_hot(self):
        rng = np.random.default_rng(3)
        segs = rng.random((4, 3))
        book = rng.normal(size=(4, 3))
        noise = gumbel_from_uniform(np.random.default_rng(5).random((4, 4)))
        soft, _ = _step_assignment(segs, book, noise, 1e-4)
        d2 = ((book[None] - segs[:, None]) ** 2).sum(axis=2)
        winners = np.argmin(d2 + noise, axis=1)
        assert np.all(soft[np.arange(4), winners] > 1.0 - 1e-6)

    def test_high_temperature_approaches_uniform(self):
        rng = np.random.default_rng(4)
        soft, _ = _step_assignment(rng.random((2, 3)), rng.normal(size=(6, 3)),
                                   np.zeros((2, 6)), 1e9)
        np.testing.assert_allclose(soft, np.full((2, 6), 1 / 6), atol=1e-7)

    def test_joint_rescaling_is_invariant(self):
        """Scaling distances-plus-noise and the temperature together
        leaves the weights unchanged (softmax scale property)."""
        rng = np.random.default_rng(5)
        segs = rng.random((4, 3))
        book = rng.normal(size=(4, 3))
        noise = gumbel_from_uniform(np.random.default_rng(6).random((4, 4)))
        c = 3.7
        base, _ = _step_assignment(segs, book, noise, 2.0)
        scaled, _ = _step_assignment(np.sqrt(c) * segs, np.sqrt(c) * book, c * noise, c * 2.0)
        np.testing.assert_allclose(scaled, base, rtol=1e-10)

    def test_nonpositive_temperature_rejected(self):
        for temperature in (0.0, -1.0, float("nan")):
            with pytest.raises(NonPositiveTemperatureError):
                LossConfig(tau_gumbel=temperature)
            with pytest.raises(NonPositiveTemperatureError):
                sample_soft_losses(np.ones((2, 2)), np.ones((2, 2)),
                                   CodebookSet(np.ones((1, 2, 2))), 0.3, temperature, 1, 0)


class TestHardAssign:
    """One segment against one book, through the batched assignment."""

    @staticmethod
    def _nearest(seg, book):
        return int(hard_assign_books(seg[None], book[None])[0, 0])

    def test_exact_codeword_wins(self):
        book = np.random.default_rng(6).normal(size=(5, 3))
        assert self._nearest(book[2], book) == 2

    def test_tie_breaks_to_lowest_index(self):
        book = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [1.0, 0.0]])
        assert self._nearest(np.array([1.0, 0.0]), book) == 0
        # codewords 0 and 3 are identical; 0 wins

    def test_agrees_with_argmax_of_assign_probs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            seg = rng.normal(size=4)
            book = rng.normal(size=(6, 4))
            assert self._nearest(seg, book) == int(np.argmax(assign_probs(seg, book)))


class TestHardAssignBooks:
    @staticmethod
    def _clear_rows(seed, n_books, n_words, sub=4, n=300):
        """float32 rows whose M nearest codewords each win by a clear margin,
        with the float64 explicit-difference argmin as reference codes."""
        gen = np.random.default_rng(seed)
        books = gen.normal(size=(n_books, n_words, sub)).astype(np.float32)
        refined = gen.normal(size=(3 * n, n_books * sub)).astype(np.float32)
        segments = refined.reshape(len(refined), n_books, 1, sub).astype(np.float64)
        d2 = ((segments - books.astype(np.float64)) ** 2).sum(axis=3)  # (rows, M, K)
        two = np.sort(d2, axis=2)[:, :, :2]
        clear = np.all(two[:, :, 1] - two[:, :, 0] > 1e-3, axis=1)
        assert clear.sum() >= n
        return refined[clear][:n], books, d2[clear][:n].argmin(axis=2)

    @pytest.mark.parametrize("n_books,n_words", [(8, 16), (16, 2), (3, 5)])
    @pytest.mark.parametrize("rows", [1, 7, 10_000])
    def test_any_chunk_size_gives_the_reference_codes(self, monkeypatch, n_books, n_words, rows):
        refined, books, expected = self._clear_rows(n_books * 100 + n_words, n_books, n_words)
        monkeypatch.setattr(quantizer, "ASSIGN_ROWS", rows)
        codes = hard_assign_books(refined, books)
        assert codes.shape == (len(refined), n_books)
        assert np.array_equal(codes, expected)
        assert np.array_equal(hard_assign_books(refined.astype(np.float64), books), expected)


class TestEncodeRows:
    """The blocks of encode_rows refine to the same bits as one whole
    forward_batch, so its codes are those of the whole-pass reference."""

    @pytest.mark.parametrize("d_in,n_books,n_words,sub", [
        (64, 8, 16, 3), (64, 16, 2, 24), (768, 8, 16, 24),
    ], ids=["64-24", "64-384", "768-192"])
    @pytest.mark.parametrize("tail", [1, 2, 3, 5, 12, 100])
    def test_blocks_are_bit_identical_to_one_whole_pass(self, monkeypatch, d_in, n_books,
                                                        n_words, sub, tail):
        gen = np.random.default_rng(d_in + n_books + tail)
        d_out = n_books * sub
        encoder = EncoderParams(
            (gen.normal(size=(d_out, d_in)) / np.sqrt(d_in)).astype(np.float32),
            gen.normal(0.0, 0.1, size=d_out).astype(np.float32),
        )
        books = np.abs(gen.normal(size=(n_books, n_words, sub))).astype(np.float32)
        values = gen.normal(size=(2 * quantizer.ASSIGN_ROWS + tail, d_in)).astype(np.float32)

        blocks = {}  # first row -> refined block; workers finish in any order
        def recording(params, batch, out=None):
            refined = forward_batch(params, batch, out=out)
            blocks[(batch.ctypes.data - values.ctypes.data) // values.strides[0]] = refined.copy()
            return refined
        monkeypatch.setattr(quantizer, "forward_batch", recording)
        codes = encode_rows(encoder, books, values)
        monkeypatch.undo()

        whole = forward_batch(encoder, values)
        ordered = [blocks[start] for start in sorted(blocks)]
        assert sorted(blocks) == [0, quantizer.ASSIGN_ROWS]
        assert [len(b) for b in ordered] == [quantizer.ASSIGN_ROWS, quantizer.ASSIGN_ROWS + tail]
        assert np.array_equal(np.concatenate(ordered).view(np.uint32), whole.view(np.uint32))
        assert np.array_equal(codes, hard_assign_books(whole, books))

    @pytest.mark.parametrize("n", [1, 5, 4095, 4096, 4100, 8192])
    def test_any_row_count_gives_the_whole_pass_codes(self, n):
        gen = np.random.default_rng(n)
        encoder = EncoderParams(gen.normal(size=(6, 4)).astype(np.float32), np.zeros(6, np.float32))
        books = gen.normal(size=(2, 4, 3)).astype(np.float32)
        values = gen.normal(size=(n, 4)).astype(np.float32)
        expected = hard_assign_books(forward_batch(encoder, values), books)
        assert np.array_equal(encode_rows(encoder, books, values), expected)


class TestRefinePieces:
    """encode_rows refines a file's block in pieces of at least PIECE_ROWS
    rows, which must give the bits of one whole forward_batch."""

    @pytest.mark.parametrize("d_in", [64, 768])
    @pytest.mark.parametrize("d_out", [192, 384])
    @pytest.mark.parametrize("n, piece", [
        (4000, 64), (4096, 341), (4100, 512), (5000, 1024), (6000, 333),
        (6143, 100), (7487, 256), (8000, 777), (8191, 1000),
    ])
    def test_pieces_are_bit_identical_to_one_whole_call(self, d_in, d_out, n, piece):
        gen = np.random.default_rng(n + d_in + d_out)
        encoder = EncoderParams(
            (gen.normal(size=(d_out, d_in)) / np.sqrt(d_in)).astype(np.float32),
            gen.normal(0.0, 0.1, size=d_out).astype(np.float32),
        )
        values = gen.normal(size=(n, d_in)).astype(np.float32)
        whole = forward_batch(encoder, values)
        bounds = list(range(0, n, piece))
        if n - bounds[-1] < quantizer.PIECE_ROWS:
            bounds.pop()  # a short tail joins the piece before it
        refined = np.empty_like(whole)
        for lo, hi in zip(bounds, bounds[1:] + [n]):
            forward_batch(encoder, values[lo:hi], out=refined[lo:hi])
        assert refined.tobytes() == whole.tobytes()


@pytest.fixture(scope="module")
def wide_files(tmp_path_factory):
    """d_in -> (path, values) of a 3 x ASSIGN_ROWS + 100-row embedding file."""
    files = {}
    for d_in in (64, 768):
        values = np.random.default_rng(d_in).normal(size=(3 * quantizer.ASSIGN_ROWS + 100, d_in))
        values = values.astype(np.float32)
        path = tmp_path_factory.mktemp("wide") / f"{d_in}.emb"
        write_embeddings(EmbeddingMatrix(values), path)
        files[d_in] = path, values
    return files


class TestEncodeRowsFromAFile:
    """encode_rows reads a file's blocks in pieces of at most READ_BYTES
    and gives the codes of one whole pass over the same rows in memory."""

    @pytest.mark.parametrize("d_in", [64, 768])
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("tail", [0, 1, 3, 100])
    def test_reads_bounded_pieces_and_gives_the_whole_pass_codes(self, monkeypatch, use_workers,
                                                                 wide_files, d_in, n_workers, tail):
        use_workers(n_workers)
        path, values = wide_files[d_in]
        n = 3 * quantizer.ASSIGN_ROWS + tail
        gen, encoder, books = _encoder_and_books(tail, d_in=d_in, n_books=8, sub=24)
        source = EmbeddingFile(path, np.arange(n))
        reads = []
        read = EmbeddingFile.read
        def spy(self, start=0, stop=None, out=None):
            reads.append((start, stop))
            return read(self, start, stop, out)
        monkeypatch.setattr(EmbeddingFile, "read", spy)
        codes = encode_rows(encoder, books, source)
        monkeypatch.undo()
        expected = hard_assign_books(forward_batch(encoder, values[:n]), books)
        assert np.array_equal(codes, expected)
        assert max(stop - start for start, stop in reads) * d_in * 4 <= dataio.READ_BYTES
        assert min(stop - start for start, stop in reads) >= quantizer.PIECE_ROWS
        assert sorted(reads)[0][0] == 0 and sorted(reads)[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(sorted(reads), sorted(reads)[1:]))

    @pytest.mark.parametrize("source", ["file", "array"])
    @pytest.mark.parametrize("d_in", [64, 768])
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [4000, quantizer.ASSIGN_ROWS + 100])
    def test_a_lone_block_is_cut_into_a_piece_per_worker(self, monkeypatch, use_workers,
                                                         wide_files, source, d_in, n_workers, n):
        use_workers(n_workers)
        path, values = wide_files[d_in]
        gen, encoder, books = _encoder_and_books(n, d_in=d_in, n_books=8, sub=24)
        pieces = []
        def recording(params, batch, out=None):
            pieces.append(len(batch))
            return forward_batch(params, batch, out=out)
        monkeypatch.setattr(quantizer, "forward_batch", recording)
        data = EmbeddingFile(path, np.arange(n)) if source == "file" else values[:n]
        codes = encode_rows(encoder, books, data)
        monkeypatch.undo()
        assert np.array_equal(codes, hard_assign_books(forward_batch(encoder, values[:n]), books))
        assert sum(pieces) == n and len(pieces) >= n_workers
        assert min(pieces) >= quantizer.PIECE_ROWS
        if source == "file":
            assert max(pieces) * d_in * 4 <= dataio.READ_BYTES


def _encoder_and_books(seed, d_in=8, n_books=4, n_words=16, sub=3):
    gen = np.random.default_rng(seed)
    d_out = n_books * sub
    encoder = EncoderParams(
        (gen.normal(size=(d_out, d_in)) / np.sqrt(d_in)).astype(np.float32),
        gen.normal(0.0, 0.1, size=d_out).astype(np.float32),
    )
    return gen, encoder, np.abs(gen.normal(size=(n_books, n_words, sub))).astype(np.float32)


class TestEncodePool:
    """encode_rows spreads its blocks over encode_workers() threads."""

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("tail", [0, 1, 3, 100])
    def test_any_worker_count_gives_the_whole_pass_codes(self, monkeypatch, use_workers,
                                                          n_workers, tail):
        use_workers(n_workers)
        gen, encoder, books = _encoder_and_books(tail)
        values = gen.normal(size=(5 * quantizer.ASSIGN_ROWS + tail, encoder.d_in))
        values = values.astype(np.float32)
        refined_by = []  # (a worker's refined buffer, rows of one block refined into it)
        def recording(params, batch, out=None):
            refined_by.append((out.base, len(batch)))
            return forward_batch(params, batch, out=out)
        monkeypatch.setattr(quantizer, "forward_batch", recording)
        expected = hard_assign_books(forward_batch(encoder, values), books)
        assert np.array_equal(encode_rows(encoder, books, values), expected)
        buffers = {id(base): base for base, _ in refined_by}
        assert len(buffers) == n_workers
        # each buffer is sized to its worker's largest block, so only the
        # worker that runs the last block holds its merged tail
        for key, base in buffers.items():
            assert len(base) == max(rows for b, rows in refined_by if id(b) == key)
        assert max(len(base) for base in buffers.values()) == quantizer.ASSIGN_ROWS + tail
        assert sum(len(base) > quantizer.ASSIGN_ROWS for base in buffers.values()) == (tail > 0)

    def test_many_workers_switching_often_match_the_serial_loop(self, monkeypatch,
                                                               use_workers):
        monkeypatch.setattr(quantizer, "ASSIGN_ROWS", 64)
        gen, encoder, books = _encoder_and_books(7)
        values = gen.normal(size=(40 * 64 + 17, encoder.d_in)).astype(np.float32)
        use_workers(1)
        serial = encode_rows(encoder, books, values)
        use_workers(8)
        pooled = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: pooled.append(encode_rows(encoder, books, values))
            )
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert np.array_equal(pooled[0], serial)

    def test_distances_are_taken_in_the_chunks_of_hard_assign_books(self, monkeypatch,
                                                                    use_workers):
        use_workers(2)
        gen, encoder, books = _encoder_and_books(4)
        values = gen.normal(size=(2 * quantizer.ASSIGN_ROWS + 1, encoder.d_in)).astype(np.float32)
        calls = []
        def recording(refined, *args, **kwargs):
            calls.append(len(refined))
            return squared_distances_books(refined, *args, **kwargs)
        monkeypatch.setattr(quantizer, "squared_distances_books", recording)
        encode_rows(encoder, books, values)
        pooled, calls[:] = sorted(calls), []
        hard_assign_books(forward_batch(encoder, values), books)
        assert pooled == sorted(calls) == [1, quantizer.ASSIGN_ROWS, quantizer.ASSIGN_ROWS]

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("n_rows", [4 * quantizer.ASSIGN_ROWS, 4000], ids=["blocks", "lone"])
    def test_a_failing_block_reaches_the_caller_and_ends_every_worker(self, monkeypatch,
                                                                      use_workers,
                                                                      n_workers, n_rows):
        use_workers(n_workers)
        gen, encoder, books = _encoder_and_books(5)
        values = gen.normal(size=(n_rows, encoder.d_in)).astype(np.float32)
        bad = n_rows // 2  # block 2's first row, or a lone block's middle piece
        def failing(params, batch, out=None):
            start = (batch.ctypes.data - values.ctypes.data) // values.strides[0]
            if start <= bad < start + len(batch):
                raise RuntimeError(f"row {bad}")
            return forward_batch(params, batch, out=out)
        monkeypatch.setattr(quantizer, "forward_batch", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"row {bad}"):
            encode_rows(encoder, books, values)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("n_rows, broken_rows", [
        (3 * quantizer.ASSIGN_ROWS, ((5000, np.nan), (3 * quantizer.ASSIGN_ROWS - 1, -np.inf))),
        (4000, ((5, np.nan), (2500, np.nan), (3999, np.nan))),  # a lone block
    ], ids=["blocks", "lone"])
    def test_non_finite_rows_are_named(self, use_workers, n_workers, n_rows, broken_rows):
        use_workers(n_workers)
        gen, encoder, books = _encoder_and_books(6)
        values = gen.normal(size=(n_rows, encoder.d_in)).astype(np.float32)
        threads = threading.active_count()
        for bad, value in broken_rows:
            broken = values.copy()
            broken[bad, 3] = value
            with pytest.raises(NonFiniteInputError, match=f"row {bad}"):
                encode_rows(encoder, books, broken)
            assert threading.active_count() == threads
        # finite rows are accepted at any magnitude
        tiny = EncoderParams(encoder.weight * np.float32(1e-30), encoder.bias)
        huge = np.full((10, encoder.d_in), 3e38, np.float32)
        assert np.array_equal(encode_rows(tiny, books, huge),
                              hard_assign_books(forward_batch(tiny, huge), books))

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("n_rows", [4000, 5 * quantizer.ASSIGN_ROWS + 7], ids=["lone", "blocks"])
    def test_one_call_starts_at_most_w_minus_one_threads(self, monkeypatch, use_workers,
                                                         n_workers, n_rows):
        use_workers(n_workers)
        gen, encoder, books = _encoder_and_books(7)
        values = gen.normal(size=(n_rows, encoder.d_in)).astype(np.float32)
        started = []
        start = threading.Thread.start
        def counting(thread):
            started.append(thread)
            start(thread)
        monkeypatch.setattr(threading.Thread, "start", counting)
        codes = encode_rows(encoder, books, values)
        monkeypatch.undo()
        assert np.array_equal(codes, hard_assign_books(forward_batch(encoder, values), books))
        assert len(started) <= n_workers - 1
        assert not any(thread.is_alive() for thread in started)

    @pytest.mark.parametrize("openblas,omp,n_blocks,expected", [
        ("1", None, 100, 4),      # one BLAS thread: one worker per CPU
        (None, None, 100, 1),     # BLAS takes every CPU: the serial loop
        (None, "2", 100, 2),      # OMP_NUM_THREADS when OPENBLAS_NUM_THREADS is unset
        ("2", "1", 100, 2),       # OPENBLAS_NUM_THREADS first
        ("x", "4", 100, 1),       # a non-numeric value is skipped
        ("0", "x", 100, 1),       # as is zero; neither holds a count
        (" 1 ", None, 100, 4),
        ("8", None, 100, 1),      # more BLAS threads than CPUs: still one worker
        ("1", None, 3, 3),        # fewer blocks than CPUs
        ("1", None, 1, 1),
    ])
    def test_worker_count_rule(self, use_workers, openblas, omp, n_blocks, expected):
        use_workers(4, openblas, omp)
        assert quantizer.encode_workers(n_blocks) == expected

    def test_worker_count_without_an_affinity_call(self, monkeypatch, use_workers):
        use_workers(4)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert quantizer.encode_workers(100) == 3


class TestFanOut:
    """fan_out's threads claim contiguous row pieces in order."""

    @pytest.mark.parametrize("n_rows, n_pieces", [(10, 1), (10, 3), (512, 2), (320, 3), (5, 5)])
    @pytest.mark.parametrize("own_pool", [False, True])
    def test_every_piece_runs_once_and_the_pieces_cover_the_rows(self, n_rows, n_pieces,
                                                                  own_pool):
        from concurrent.futures import ThreadPoolExecutor

        seen = []
        def work(start, stop):
            seen.append((start, stop, threading.current_thread()))
        before = threading.active_count()
        if own_pool:
            quantizer.fan_out(work, n_rows, n_pieces)
        else:
            with ThreadPoolExecutor(max_workers=n_pieces) as pool:
                quantizer.fan_out(work, n_rows, n_pieces, pool)
        assert threading.active_count() == before
        assert len(seen) == n_pieces
        bounds = sorted((start, stop) for start, stop, _ in seen)
        assert bounds[0][0] == 0 and bounds[-1][1] == n_rows
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert max(b - a for a, b in bounds) - min(b - a for a, b in bounds) <= 1
        if n_pieces == 1:
            assert seen[0][2] is threading.current_thread()

    def test_pieces_left_by_a_busy_pool_run_on_the_calling_thread(self):
        from concurrent.futures import ThreadPoolExecutor

        threads = []
        with ThreadPoolExecutor(max_workers=1) as pool:
            release = threading.Event()
            pool.submit(release.wait, 10)  # the pool's one thread is busy
            quantizer.fan_out(lambda start, stop: threads.append(
                threading.current_thread()), 300, 4, pool)
            release.set()
        assert threads == [threading.current_thread()] * 4

    @pytest.mark.parametrize("failing", [{0}, {200}, {100, 200}])
    def test_a_failed_piece_is_raised_after_every_piece_ends(self, failing):
        ended = []
        def work(start, stop):
            if start in failing:
                raise RuntimeError(f"piece at {start}")
            time.sleep(0.05)
            ended.append(start)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"piece at {min(failing)}$"):
            quantizer.fan_out(work, 300, 3)
        assert sorted(ended) == sorted({0, 100, 200} - failing)
        assert threading.active_count() == before

    @pytest.mark.parametrize("n_rows, expected", [
        (0, 1), (63, 1), (64, 1), (127, 1), (128, 2), (191, 2), (192, 3), (4096, 3),
    ])
    def test_step_pieces_hold_at_least_the_minimum_rows(self, use_workers, n_rows, expected):
        use_workers(3)
        ranges = []
        quantizer.split_rows(lambda start, stop: ranges.append((start, stop)), n_rows)
        assert len(ranges) == expected
        assert expected == 1 or min(b - a for a, b in ranges) >= quantizer.PIECE_ROWS
        use_workers(2, openblas=None)  # BLAS takes every CPU: one plain call
        ranges.clear()
        quantizer.split_rows(lambda start, stop: ranges.append((start, stop)), n_rows)
        assert ranges == [(0, n_rows)]


class TestSquaredDistancesBooks:
    @staticmethod
    def _reference(refined, books):
        """The kernel as it doubled the segments, not the books."""
        n_books, _, sub = books.shape
        segments = refined.reshape(len(refined), n_books, sub).transpose(1, 0, 2)
        norms = (segments * segments).sum(axis=2, keepdims=True)
        out = np.matmul(2.0 * segments, books.transpose(0, 2, 1))
        np.subtract(norms, out, out=out)
        out += (books * books).sum(axis=2)[:, None, :]
        return out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scratch", ["none", "separate", "refined"])
    @pytest.mark.parametrize("n_books,n_words,sub,rows", [
        (8, 16, 24, 4096), (16, 2, 24, 1), (3, 256, 8, 777), (1, 4, 1, 50),
    ])
    def test_bits_equal_the_reference(self, dtype, scratch, n_books, n_words, sub, rows):
        gen = np.random.default_rng(rows + n_books)
        refined = np.abs(gen.normal(size=(rows, n_books * sub))).astype(dtype)
        books = gen.normal(size=(n_books, n_words, sub)).astype(dtype)
        expected = self._reference(refined, books)
        given = {"none": None, "separate": np.empty_like(refined), "refined": refined}[scratch]
        out = np.empty_like(expected)
        got = squared_distances_books(refined, books, out=out, scratch=given)
        assert got is out
        assert np.array_equal(got.view(np.uint8), expected.view(np.uint8))


class TestNearestCodewords:
    """nearest_codewords is np.argmin(dist, axis=2): ties to the lowest
    index, -0.0 equal to 0.0, the first NaN winning."""

    VALUES = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1),
           n_words=st.sampled_from([2, 3, 5, 16, 17, 255, 256, 300]),
           n_books=st.integers(1, 4), n_rows=st.integers(0, 2600),
           dtype=st.sampled_from([np.float32, np.float64]), nan=st.booleans(),
           cells=st.sampled_from([7, 1000, quantizer.NEAREST_CELLS]))
    @example(seed=1, n_words=16, n_books=1, n_rows=2 * quantizer.NEAREST_CELLS + 3,
             dtype=np.float32, nan=False, cells=quantizer.NEAREST_CELLS)
    @example(seed=2, n_words=3, n_books=3, n_rows=quantizer.NEAREST_CELLS // 3 + 1,
             dtype=np.float64, nan=False, cells=quantizer.NEAREST_CELLS)
    @example(seed=3, n_words=2, n_books=2, n_rows=50, dtype=np.float32, nan=True, cells=7)
    @example(seed=4, n_words=16, n_books=2, n_rows=700, dtype=np.float32, nan=True, cells=1000)
    def test_equals_numpy_argmin(self, monkeypatch, seed, n_words, n_books, n_rows, dtype, nan,
                                 cells):
        gen = np.random.default_rng(seed)
        # few distinct values: most rows tie, and -0.0 meets 0.0
        dist = gen.choice(self.VALUES, size=(n_books, n_rows, n_words)).astype(dtype)
        dist += gen.integers(0, 2, size=dist.shape) * gen.normal(size=dist.shape).astype(dtype)
        if nan:
            dist[gen.random(dist.shape) < 0.02] = np.nan
        with monkeypatch.context() as patched:
            patched.setattr(quantizer, "NEAREST_CELLS", cells)  # rows a block: cells // M
            patched.setattr(quantizer, "NEAREST_MIN_PAIRS", 0)  # the kernel on any rows
            for out_dtype in (np.uint16, np.intp):
                out = np.full((n_books, n_rows), 7, out_dtype)
                assert nearest_codewords(dist, out) is out
                assert np.array_equal(out, np.argmin(dist, axis=2))

    @pytest.mark.parametrize("row,expected", [
        ([1.0, 1.0, 1.0], 0), ([0.0, -0.0, -1.0], 2), ([-0.0, 0.0, 0.0], 0),
        ([1.0, -0.0, 0.0], 1), ([2.0, np.nan, 0.0], 1), ([np.nan, 0.0, np.nan], 0),
        ([0.5, 0.0, 0.0], 1),
    ])
    @pytest.mark.parametrize("n_rows", [1, 5000])
    def test_single_rows(self, row, expected, n_rows):
        # the K = 3 kernel and the K = 2 comparison (its first two distances)
        for n_words, want in ((3, expected), (2, int(np.argmin(row[:2])))):
            dist = np.tile(np.array(row[:n_words], np.float32), (2, n_rows, 1))
            found = nearest_codewords(dist, np.empty((2, n_rows), np.uint16))
            assert (found == want).all()


class TestPackedEncode:
    """encode_rows(packed=True) ORs each chunk's codes into word planes as
    they are assigned; the planes are those of pack_codes_batch of its codes."""

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("n_rows", [300, 3 * 256 + 17], ids=["lone", "blocks"])
    def test_planes_equal_the_packed_codes(self, monkeypatch, use_workers, word_planes_of,
                                           n_workers, n_rows):
        monkeypatch.setattr(quantizer, "ASSIGN_ROWS", 256)
        use_workers(n_workers)
        # K = 8 and 32 straddle bytes and K = 512 a uint16 run; every code
        # but (2, 256) has padding bits
        for n_books, n_words in [(5, 2), (3, 4), (3, 8), (5, 16), (3, 32), (2, 64), (3, 128),
                                 (2, 256), (3, 512)]:
            gen, encoder, books = _encoder_and_books(n_words + n_rows, n_books=n_books,
                                                     n_words=n_words)
            values = gen.normal(size=(n_rows, encoder.d_in)).astype(np.float32)
            planes = encode_rows(encoder, books, values, packed=True)
            codes = encode_rows(encoder, books, values)
            packed = pack_codes_batch(codes, n_words)
            # one flat buffer of exactly n * bytes_per_code bytes: the word planes
            assert planes.dtype == np.uint8 and planes.shape == (packed.size,)
            assert np.array_equal(planes, word_planes_of(packed))
            used = n_books * (n_words.bit_length() - 1) % 8
            assert used == 0 or not np.any(packed[:, -1] >> used)
            assert np.array_equal(unpack_codes_batch(packed, n_books, n_words), codes)

    def test_other_k_is_not_packed(self):
        gen, encoder, books = _encoder_and_books(3, n_words=5)
        with pytest.raises(KNotPowerOfTwoError):
            encode_rows(encoder, books, gen.normal(size=(10, encoder.d_in)), packed=True)

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_a_lone_block_split_by_books_keeps_the_distance_bits(self, monkeypatch, use_workers,
                                                                 n_workers):
        gen, encoder, books = _encoder_and_books(8, d_in=64, n_books=8, n_words=16, sub=24)
        values = gen.normal(size=(4000, 64)).astype(np.float32)

        def run(workers):
            use_workers(workers)
            seen = {}  # first book -> its distances

            def recording(refined, some, out=None, scratch=None):
                dist = squared_distances_books(refined, some, out=out, scratch=scratch)
                seen[(some.ctypes.data - books.ctypes.data) // books.strides[0]] = dist.copy()
                return dist

            with monkeypatch.context() as patched:
                patched.setattr(quantizer, "squared_distances_books", recording)
                codes = encode_rows(encoder, books, values)
            return codes, [seen[first] for first in sorted(seen)]

        serial, (whole,) = run(1)
        split, parts = run(n_workers)
        assert len(parts) == n_workers
        assert np.array_equal(np.concatenate(parts).view(np.uint32), whole.view(np.uint32))
        assert np.array_equal(split, serial)
        assert np.array_equal(serial, hard_assign_books(forward_batch(encoder, values), books))


class TestSampling:
    def test_gumbel_argmax_frequencies_match_assign_probs(self):
        """Empirical draw frequencies stay within 3-sigma multinomial
        bounds of the assignment distribution."""
        rng = np.random.default_rng(9)
        seg = rng.normal(size=2)
        book = rng.normal(size=(4, 2))
        probs = assign_probs(seg.astype(np.float64), book.astype(np.float64))
        n = 100_000
        noise = gumbel_from_uniform(np.random.default_rng(10).random((n, 4)))
        d2 = ((book - seg) ** 2).sum(axis=1)
        draws = np.argmax(-d2[None, :] + noise, axis=1)
        counts = np.bincount(draws, minlength=4)
        sigma = np.sqrt(n * probs * (1 - probs))
        assert np.all(np.abs(counts - n * probs) <= 3 * sigma + 1)


class TestSoftCodeword:
    """The training step's codeword mixture: its weights times the book."""

    def test_one_hot_recovers_codeword(self):
        book = np.random.default_rng(12).normal(size=(4, 3))
        seg = np.abs(book[2])
        book[2] = seg
        # at this temperature every other weight underflows to exactly 0
        soft, mix = _step_assignment(np.stack([seg, seg]), book, np.zeros((2, 4)), 1e-6)
        np.testing.assert_array_equal(soft, np.eye(4)[[2, 2]])
        np.testing.assert_array_equal(mix, book[[2, 2]])

    def test_uniform_two_codewords_gives_midpoint(self):
        book = np.array([[0.0, 0.0], [2.0, 4.0]])
        soft, mix = _step_assignment(np.array([[1.0, 2.0]] * 2), book, np.zeros((2, 2)), 1.0)
        np.testing.assert_allclose(soft, 0.5)
        np.testing.assert_allclose(mix, [[1.0, 2.0]] * 2)

    def test_mixture_stays_in_codeword_bounding_box(self):
        rng = np.random.default_rng(13)
        book = rng.normal(size=(6, 4))
        for temperature in (0.01, 1.0, 100.0):
            noise = gumbel_from_uniform(rng.random((30, 6)))
            soft, mix = _step_assignment(rng.random((30, 4)), book, noise, temperature)
            np.testing.assert_allclose(mix, soft @ book, rtol=1e-12, atol=1e-12)
            assert np.all(mix >= book.min(axis=0) - 1e-12)
            assert np.all(mix <= book.max(axis=0) + 1e-12)


class TestQuantizeDocument:
    def test_single_book(self):
        books = CodebookSet(np.random.default_rng(14).normal(size=(1, 4, 3)))
        refined = books.books[0, 1].copy()
        assert quantize_document(refined, books).indices.tolist() == [1]

    def test_exact_concatenated_codewords(self):
        books = CodebookSet(np.random.default_rng(15).normal(size=(2, 4, 3)))
        vec = np.concatenate([books.books[0, 3], books.books[1, 1]])
        code = quantize_document(vec, books)
        assert code.indices.tolist() == [3, 1]

    def test_matches_brute_force_over_all_combinations(self):
        """Per-segment argmin equals the exhaustive argmin over all K^M
        concatenations, because squared distance decomposes over segments."""
        rng = np.random.default_rng(16)
        books = CodebookSet(rng.normal(size=(2, 2, 3)))
        for _ in range(20):
            vec = rng.normal(size=6)
            code = quantize_document(vec, books)
            combos = [
                (a, b, np.concatenate([books.books[0, a], books.books[1, b]]))
                for a in range(2)
                for b in range(2)
            ]
            best = min(combos, key=lambda c: ((c[2] - vec) ** 2).sum())
            assert code.indices.tolist() == [best[0], best[1]]

    def test_reconstruct_concatenates_codewords(self):
        books = CodebookSet(np.random.default_rng(17).normal(size=(3, 4, 2)))
        code = QuantCode(np.array([1, 0, 3], dtype=np.uint16), 4)
        expected = np.concatenate([books.books[0, 1], books.books[1, 0], books.books[2, 3]])
        np.testing.assert_array_equal(reconstruct(books, code), expected)


class TestCodebookSet:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64, np.uint8])
    def test_integer_and_floating_books_are_kept(self, dtype):
        values = np.arange(12).reshape(2, 2, 3).astype(dtype)
        assert np.array_equal(CodebookSet(values).books, values)

    @pytest.mark.parametrize("dtype", [np.complex64, np.bool_, np.str_, object])
    def test_other_dtypes_are_refused(self, dtype):
        with pytest.raises(InvalidConfigError, match="integer or floating"):
            CodebookSet(np.ones((2, 2, 3)).astype(dtype))

    def test_zero_codebooks_are_refused(self):
        # no code byte to pack, scan or count
        with pytest.raises(InvalidConfigError, match="M >= 1"):
            CodebookSet(np.ones((0, 16, 3), np.float32))


def test_assign_probs_of_integer_inputs_equals_their_float64_values():
    # exp into the integer differences raised a bare UFuncTypeError
    segment, book = np.array([1, 3]), np.array([[0, 0], [1, 2], [4, 4]])
    assert np.array_equal(assign_probs(segment, book),
                          assign_probs(segment.astype(float), book.astype(float)))


class TestUnpackCheck:
    """unpack_codes and unpack_codes_batch take exactly
    packed_code_nbytes(M, K) bytes per code, each an integer in [0, 256)."""

    # one byte raised a bare IndexError; the fifth of five was ignored
    @pytest.mark.parametrize("payload", [b"\x01", b"\x01" * 5])
    def test_a_code_of_another_width_is_refused(self, payload):
        with pytest.raises(DimMismatchError, match=r"not \(n, 4\) bytes"):
            unpack_codes(payload, 8, 16)

    def test_a_value_that_is_not_a_byte_is_refused(self):
        # 300 was read as 44, giving [[12, 2]]
        with pytest.raises(FileFormatError, match=r"\[0, 256\)"):
            unpack_codes_batch(np.full((1, 1), 300), 2, 16)

    def test_a_flat_payload_is_refused(self):
        # a bare TypeError
        with pytest.raises(DimMismatchError):
            unpack_codes_batch(np.zeros(3, np.uint8), 2, 16)

    def test_a_str_payload_is_refused(self):
        # a bare ValueError
        with pytest.raises(FileFormatError):
            unpack_codes_batch(np.array([["a"]]), 2, 16)

    def test_bytes_and_their_values_unpack_alike(self):
        code = pack_codes(np.array([3, 0, 15, 7]), 16)
        assert unpack_codes(code, 4, 16).tolist() == [3, 0, 15, 7]
        values = np.frombuffer(code, np.uint8).astype(np.int64)
        assert unpack_codes(values, 4, 16).tolist() == [3, 0, 15, 7]


class TestPacking:
    @staticmethod
    def _planes(indices, n_words):
        """Every row's bit planes packed in one pass."""
        b = n_words.bit_length() - 1
        bits = (indices.astype(np.uint16)[:, :, None] >> np.arange(b, dtype=np.uint16)) & 1
        return np.packbits(bits.reshape(len(indices), -1).astype(np.uint8), axis=1,
                           bitorder="little")

    @pytest.mark.parametrize("rows", [1, 7])
    def test_chunks_pack_like_one_pass(self, monkeypatch, rows):
        gen = np.random.default_rng(rows)
        monkeypatch.setattr(quantizer, "ASSIGN_ROWS", rows)
        for n_books in (1, 3, 8, 9):
            for n_words in (2, 16, 256, 65536):
                idx = gen.integers(0, n_words, size=(50, n_books)).astype(np.uint16)
                assert np.array_equal(pack_codes_batch(idx, n_words), self._planes(idx, n_words))
                assert np.array_equal(pack_codes_batch(idx[:1], n_words),
                                      self._planes(idx[:1], n_words))

    @pytest.mark.parametrize("n", [1, 4096, 4097, 3 * 4096 + 7])
    def test_byte_planes_pack_like_packbits(self, word_planes_of, n):
        gen = np.random.default_rng(n)
        # at (3, 512) and (5, 4096) an index crosses from one uint16 run to the next
        for n_books, n_words in [(1, 2), (3, 4), (8, 8), (5, 8), (8, 16), (9, 16), (4, 32),
                                 (7, 64), (6, 128), (3, 256), (2, 65536), (3, 512), (5, 4096)]:
            idx = gen.integers(0, n_words, size=(n, n_books))
            for given in (idx, idx.astype(np.uint16)):
                packed = pack_codes_batch(given, n_words)
                # row i is code i's bytes in file order, C-contiguous at every n
                assert packed.flags.c_contiguous
                assert np.array_equal(packed, self._planes(idx, n_words))
                assert np.array_equal(unpack_codes_batch(packed, n_books, n_words), idx)
            assert np.array_equal(pack_planes(idx.astype(np.uint16), n_words),
                                  word_planes_of(packed))

    def test_pack_holds_one_chunk_of_bit_planes(self):
        # 200,000 x 8 codes at K=16: the packed result is 0.8 MB, and one
        # pass over every row's bit planes peaked at 25.6 MB
        idx = np.random.default_rng(19).integers(0, 16, size=(200_000, 8)).astype(np.uint16)
        tracemalloc.start()
        try:
            packed = pack_codes_batch(idx, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert np.array_equal(packed, self._planes(idx, 16))

    def test_four_nibbles(self):
        assert pack_codes(np.array([1, 2, 3, 4]), 16) == b"\x21\x43"

    def test_eight_bits(self):
        assert pack_codes(np.array([1, 0, 0, 0, 0, 0, 0, 1]), 2) == b"\x81"

    def test_round_trip_random(self):
        rng = np.random.default_rng(18)
        for n_words in (2, 4, 8, 16, 256):
            for n_books in (1, 3, 8, 32):
                idx = rng.integers(0, n_words, size=(20, n_books))
                packed = pack_codes_batch(idx, n_words)
                assert packed.shape[1] == packed_code_nbytes(n_books, n_words)
                assert np.array_equal(unpack_codes_batch(packed, n_books, n_words), idx)

    def test_single_code_round_trip(self):
        idx = np.array([5, 0, 15, 9], dtype=np.uint16)
        assert np.array_equal(unpack_codes(pack_codes(idx, 16), 4, 16), idx)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(KNotPowerOfTwoError):
            pack_codes(np.array([0, 1]), 3)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(IndexOutOfRangeError):
            pack_codes(np.array([4]), 4)

    @pytest.mark.parametrize("indices", [np.array([1, 2]), np.array(3), np.zeros((2, 2, 2))],
                             ids=["1-D", "0-D", "3-D"])
    def test_index_array_that_is_not_a_matrix_rejected(self, indices):
        with pytest.raises(DimMismatchError):
            pack_codes_batch(indices.astype(np.uint16), 16)

    def test_table_of_code_sizes(self):
        # 16 codewords, 4/8/16/32 books -> 16/32/64/128-bit codes
        expected = {4: 2, 8: 4, 16: 8, 32: 16}
        for n_books, n_bytes in expected.items():
            assert packed_code_nbytes(n_books, 16) == n_bytes
