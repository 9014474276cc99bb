import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from micpq import dataio, rng
from micpq.cli import main
from micpq.dataio import (
    EmbeddingFile,
    EmbeddingMatrix,
    MixtureSpec,
    read_embeddings,
    synth_mixture,
    write_embeddings,
)
from micpq.encoder import EncoderParams, forward_batch
from micpq.errors import (
    BadMagicError,
    FileFormatError,
    InvalidConfigError,
    MicpqError,
    NonFiniteGradientError,
    TruncatedFileError,
    VersionMismatchError,
)
from micpq.objectives import LossConfig, ParamGrads, draw_noise, loss_and_gradients
from micpq.quantizer import CodebookSet, hard_assign_books
from micpq import trainer
from micpq.trainer import (
    CHECKPOINT_VERSION,
    MAGIC_CHECKPOINT,
    EpochRecord,
    ModelState,
    TrainConfig,
    TrainLog,
    adam_step,
    default_gumbel_temperature,
    init_model,
    load_checkpoint,
    save_checkpoint,
    train,
    usage_entropy,
    usage_histogram,
)


def _tiny_state(seed=0, d_in=2, d_out=2, n_books=1, n_words=2, sub=2):
    rng = np.random.default_rng(seed)
    encoder = EncoderParams(
        rng.normal(size=(d_out, d_in)).astype(np.float32),
        rng.normal(size=d_out).astype(np.float32),
    )
    books = CodebookSet(rng.normal(size=(n_books, n_words, sub)).astype(np.float32))
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


def _zero_grads(state):
    return ParamGrads(
        weight=np.zeros_like(state.encoder.weight, dtype=np.float64),
        bias=np.zeros_like(state.encoder.bias, dtype=np.float64),
        books=np.zeros_like(state.books.books, dtype=np.float64),
    )


class TestGumbelTemperatureDefault:
    def test_sixteen_bit_codes_get_ten(self):
        assert default_gumbel_temperature(4, 16) == 10.0
        assert default_gumbel_temperature(16, 2) == 10.0
        assert default_gumbel_temperature(8, 4) == 10.0

    def test_other_code_lengths_get_five(self):
        assert default_gumbel_temperature(8, 16) == 5.0
        assert default_gumbel_temperature(32, 16) == 5.0
        assert default_gumbel_temperature(8, 5) == 5.0  # bits undefined


class TestAdamStep:
    def test_first_step_matches_hand_value(self):
        # bias-corrected first step with g=1 moves by -lr/(1+eps)
        state = _tiny_state()
        grads = _zero_grads(state)
        grads.weight[0, 0] = 1.0
        before = state.encoder.weight.copy()
        adam_step(state, grads, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8)
        delta = float(state.encoder.weight[0, 0] - before[0, 0])
        assert delta == pytest.approx(-0.001 / (1.0 + 1e-8), rel=1e-5)
        assert np.array_equal(state.encoder.weight[1:], before[1:])
        assert state.step == 1

    def test_zero_gradient_leaves_parameters(self):
        state = _tiny_state(1)
        before_w = state.encoder.weight.copy()
        before_c = state.books.books.copy()
        adam_step(state, _zero_grads(state), lr=0.01)
        assert np.array_equal(state.encoder.weight, before_w)
        assert np.array_equal(state.books.books, before_c)
        assert state.step == 1

    def test_deterministic(self):
        grads = _zero_grads(_tiny_state(2))
        grads.weight += 0.3
        grads.books -= 0.1
        a, b = _tiny_state(2), _tiny_state(2)
        adam_step(a, grads, lr=0.01)
        adam_step(b, grads, lr=0.01)
        assert np.array_equal(a.encoder.weight, b.encoder.weight)
        assert np.array_equal(a.m_books, b.m_books)

    def test_nonfinite_gradient_aborts(self):
        state = _tiny_state(3)
        grads = _zero_grads(state)
        grads.books[0, 0, 0] = np.nan
        before = state.books.books.copy()
        with pytest.raises(NonFiniteGradientError):
            adam_step(state, grads, lr=0.01)
        assert np.array_equal(state.books.books, before)
        assert state.step == 0


class TestInitModel:
    def test_shapes(self):
        cfg = TrainConfig(n_codebooks=8, n_codewords=16, sub_dim=24, seed=1)
        warmup = np.random.default_rng(0).normal(size=(64, 32)).astype(np.float32)
        state = init_model(cfg, warmup)
        assert state.encoder.weight.shape == (192, 32)
        assert state.books.books.shape == (8, 16, 24)
        assert state.m_books.shape == (8, 16, 24)
        assert state.step == 0

    def test_deterministic(self):
        cfg = TrainConfig(n_codebooks=2, n_codewords=4, sub_dim=3, seed=9)
        warmup = np.random.default_rng(1).normal(size=(30, 5)).astype(np.float32)
        a = init_model(cfg, warmup)
        b = init_model(cfg, warmup)
        assert np.array_equal(a.encoder.weight, b.encoder.weight)
        assert np.array_equal(a.books.books, b.books.books)

    def test_data_init_uses_refined_segments(self):
        cfg = TrainConfig(n_codebooks=1, n_codewords=4, sub_dim=4, seed=2)
        warmup = np.random.default_rng(3).normal(size=(50, 4)).astype(np.float32)
        state = init_model(cfg, warmup)
        from micpq.encoder import forward_batch

        refined = forward_batch(state.encoder, warmup)
        for word in state.books.books[0]:
            assert np.any(np.all(np.isclose(refined, word, atol=1e-6), axis=1))

    def test_degenerate_warmup_falls_back_to_gaussian(self):
        cfg = TrainConfig(n_codebooks=1, n_codewords=4, sub_dim=4, seed=4)
        warmup = np.tile(np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32), (10, 1))
        state = init_model(cfg, warmup)
        words = state.books.books[0]
        assert np.unique(words.round(6), axis=0).shape[0] == 4
        assert np.all(np.abs(words) < 1.0)  # N(0, 0.1^2) entries, not data rows

    def test_random_strategy_matches_fallback_distribution(self):
        cfg = TrainConfig(n_codebooks=2, n_codewords=4, sub_dim=3, seed=5)
        warmup = np.random.default_rng(6).normal(size=(40, 7)).astype(np.float32)
        state = init_model(cfg, warmup, codebook_init="random")
        assert np.all(np.abs(state.books.books) < 1.0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        state = _tiny_state(7, d_in=3, d_out=4, n_books=2, n_words=4, sub=2)
        state.m_weight += np.float32(0.25)
        state.v_books += np.float32(0.125)
        state.step = 17
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.step == 17
        for (_, a), (_, b) in zip(state._arrays(), loaded._arrays()):
            assert np.array_equal(a, b)
            assert b.dtype == np.float32

    def test_wrong_version(self, tmp_path):
        state = _tiny_state(8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load_checkpoint(path)

    def test_truncated_parameters(self, tmp_path):
        state = _tiny_state(9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(TruncatedFileError) as err:
            load_checkpoint(path)
        assert "byte" in str(err.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def _crafted(self, tmp_path):
        """A 40-byte checkpoint declaring d_in = d_out = 2^20 (M=1)."""
        path = tmp_path / "huge.ckpt"
        header = struct.pack("<IIIIIIQ", trainer.CHECKPOINT_VERSION, 2**20, 2**20, 1, 2, 2**20, 0)
        path.write_bytes(trainer.MAGIC_CHECKPOINT + header)
        return path

    def test_crafted_header_rejected_before_reading(self, tmp_path):
        with pytest.raises(TruncatedFileError):
            load_checkpoint(self._crafted(tmp_path))

    def test_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(_tiny_state(10), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FileFormatError):
            load_checkpoint(path)

    def test_cli_index_on_crafted_checkpoint_is_runtime_error(self, tmp_path, capsys):
        emb = tmp_path / "c.emb"
        write_embeddings(_tiny_corpus(), emb)
        code = main(["index", "--ckpt", str(self._crafted(tmp_path)), "--emb", str(emb),
                     "--out", str(tmp_path / "c.idx")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err


def _checkpoint_bytes(tmp_path):
    state = _tiny_state(3, d_in=3, d_out=4, n_books=2, n_words=4, sub=2)
    state.step = 5
    save_checkpoint(state, tmp_path / "src.ckpt")
    return (tmp_path / "src.ckpt").read_bytes()


def _load_or_micpq_error(path):
    """The loaded state, or None when ``load_checkpoint`` raised a
    MicpqError; any other exception fails the test."""
    try:
        return load_checkpoint(path)
    except MicpqError:
        return None


_FUZZ = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])
_HEADER_AT, _PAYLOAD_AT = 8, 40  # magic | version, d_in, d_out, M, K, sub_dim, step | arrays
# weight, bias, books and their Adam moments at d_in 3, d_out 4, M 2, K 4, sub_dim 2
_ARRAY_FLOATS = [12, 4, 16, 12, 12, 4, 4, 16, 16]


class TestLoadCheckpointFuzz:
    @pytest.mark.parametrize("region", ["magic", "header"] + [f"array{i}" for i in range(9)])
    @_FUZZ
    @given(data=st.data())
    def test_truncation_in_every_region_raises(self, tmp_path, region, data):
        raw = _checkpoint_bytes(tmp_path)
        ends = _PAYLOAD_AT + 4 * np.cumsum([0] + _ARRAY_FLOATS)
        assert ends[-1] == len(raw)
        lo, hi = {"magic": (0, _HEADER_AT), "header": (_HEADER_AT, _PAYLOAD_AT),
                  **{f"array{i}": (ends[i], ends[i + 1]) for i in range(9)}}[region]
        (tmp_path / "cut.ckpt").write_bytes(raw[:data.draw(st.integers(lo, hi - 1))])
        with pytest.raises(MicpqError):
            load_checkpoint(tmp_path / "cut.ckpt")

    @_FUZZ
    @given(at=st.integers(0, 31), mask=st.integers(1, 255))
    def test_a_flipped_magic_version_or_dimension_byte_raises(self, tmp_path, at, mask):
        raw = bytearray(_checkpoint_bytes(tmp_path))
        raw[at] ^= mask
        (tmp_path / "flip.ckpt").write_bytes(bytes(raw))
        with pytest.raises(MicpqError):
            load_checkpoint(tmp_path / "flip.ckpt")

    @_FUZZ
    @given(flips=st.lists(st.tuples(st.integers(0, len(MAGIC_CHECKPOINT) + 31),
                                    st.integers(1, 255)),
                          min_size=1, max_size=3, unique_by=lambda flip: flip[0]))
    def test_flipped_header_bytes_raise_or_describe_the_same_bytes(self, tmp_path, flips):
        # several dimension flips can agree with each other and the size (M and
        # sub_dim swapped, say), and the step is any u64: such a file loads,
        # and saving it again gives its bytes
        raw = bytearray(_checkpoint_bytes(tmp_path))
        for at, mask in flips:
            raw[at] ^= mask
        (tmp_path / "flip.ckpt").write_bytes(bytes(raw))
        loaded = _load_or_micpq_error(tmp_path / "flip.ckpt")
        if loaded is not None:
            save_checkpoint(loaded, tmp_path / "again.ckpt")
            assert (tmp_path / "again.ckpt").read_bytes() == bytes(raw)

    @_FUZZ
    @given(dims=st.tuples(*[st.sampled_from([0, 1, 2, 3, 4, 1 << 16, (1 << 32) - 1])] * 5),
           payload=st.binary(max_size=512))
    @example(dims=(0, 0, 0, 2, 0), payload=b"")  # zero-size arrays
    @example(dims=(0, 4, 2, 4, 2), payload=b"\0" * 4 * 56)  # zero-width weight, sizes agree
    @example(dims=((1 << 32) - 1, (1 << 32) - 1, 1, (1 << 32) - 1, (1 << 32) - 1), payload=b"")
    def test_zero_or_huge_dimensions_raise(self, tmp_path, dims, payload):
        d_in, d_out, n_books, n_words, sub_dim = dims
        path = tmp_path / "dims.ckpt"
        path.write_bytes(MAGIC_CHECKPOINT + struct.pack("<IIIIIIQ", CHECKPOINT_VERSION, *dims, 0)
                         + payload)
        loaded = _load_or_micpq_error(path)
        if loaded is not None:  # only a small, consistent model whose sizes match
            assert min(d_in, d_out, n_books, sub_dim) >= 1 and n_words >= 2
            assert d_out == n_books * sub_dim
            assert len(payload) == 4 * (3 * d_out * d_in + 3 * d_out + 3 * n_books * n_words * sub_dim)

    @pytest.mark.parametrize("dims", [(0, 4, 2, 4, 2), (3, 0, 0, 4, 2), (3, 4, 2, 1, 2),
                                      (3, 4, 2, 0, 2), (3, 0, 2, 4, 0)])
    def test_zero_dimensions_with_an_agreeing_size_raise(self, tmp_path, dims):
        d_in, d_out, n_books, n_words, sub_dim = dims
        n_floats = 3 * d_out * d_in + 3 * d_out + 3 * n_books * n_words * sub_dim
        path = tmp_path / "zero.ckpt"
        path.write_bytes(MAGIC_CHECKPOINT + struct.pack("<IIIIIIQ", CHECKPOINT_VERSION, *dims, 0)
                         + b"\0" * 4 * n_floats)
        with pytest.raises(InvalidConfigError):
            load_checkpoint(path)

    def test_k_beyond_uint16_with_an_agreeing_size_raises(self, tmp_path):
        # M = 1, sub_dim = 1: 2^17 one-wide codewords, whose uint16 codes would wrap
        dims = (1, 1, 1, 1 << 17, 1)
        n_floats = 3 * 1 * 1 + 3 * 1 + 3 * (1 << 17)
        path = tmp_path / "wide.ckpt"
        path.write_bytes(MAGIC_CHECKPOINT + struct.pack("<IIIIIIQ", CHECKPOINT_VERSION, *dims, 0)
                         + b"\0" * 4 * n_floats)
        with pytest.raises(MicpqError):
            load_checkpoint(path)

    @_FUZZ
    @given(data=st.data())
    def test_flipped_payload_bytes_load_exactly_or_raise(self, tmp_path, data):
        raw = bytearray(_checkpoint_bytes(tmp_path))
        raw[data.draw(st.integers(_PAYLOAD_AT, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        (tmp_path / "flip.ckpt").write_bytes(bytes(raw))
        loaded = _load_or_micpq_error(tmp_path / "flip.ckpt")
        if loaded is not None:
            save_checkpoint(loaded, tmp_path / "again.ckpt")
            assert (tmp_path / "again.ckpt").read_bytes() == bytes(raw)


def _tiny_corpus():
    emb, _ = synth_mixture(
        MixtureSpec(n_docs=120, dim=8, n_classes=3, separation=10.0, noise_sigma=1.0, seed=5)
    )
    return emb


def _tiny_config(**overrides):
    defaults = dict(
        n_codebooks=2,
        n_codewords=4,
        sub_dim=4,
        learning_rate=0.005,
        batch_size=32,
        n_epochs=4,
        seed=11,
        loss=LossConfig(tau_gumbel=2.0, mi_weight=0.1),
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestTrain:
    def test_loss_decreases_on_synthetic_corpus(self):
        _, log = train(_tiny_config(n_epochs=12), _tiny_corpus())
        assert len(log.records) == 12
        assert log.records[-1].total_loss < log.records[0].total_loss

    def test_identical_seeds_reproduce_identical_logs(self):
        log1 = train(_tiny_config(), _tiny_corpus())[1]
        log2 = train(_tiny_config(), _tiny_corpus())[1]
        assert log1.format_lines() == log2.format_lines()

    def test_usage_histogram_covers_every_document(self):
        corpus = _tiny_corpus()
        _, log = train(_tiny_config(n_epochs=1), corpus)
        assert np.all(log.records[0].usage.sum(axis=1) == corpus.n_docs)

    def test_checkpoints_written(self, tmp_path):
        path = tmp_path / "out.ckpt"
        cfg = _tiny_config(n_epochs=2, checkpoint_path=str(path), checkpoint_every=1)
        state, _ = train(cfg, _tiny_corpus())
        loaded = load_checkpoint(path)
        assert loaded.step == state.step
        assert np.array_equal(loaded.books.books, state.books.books)

    def test_val_loss_recorded(self):
        corpus = _tiny_corpus()
        val = EmbeddingMatrix(corpus.values[:20])
        data = EmbeddingMatrix(corpus.values[20:])
        _, log = train(_tiny_config(n_epochs=1), data, val=val)
        assert log.records[0].val_loss is not None
        assert "val=" in log.records[0].format_line()

    def test_val_loss_is_the_objective_at_the_validation_seed(self):
        corpus = _tiny_corpus()
        val = EmbeddingMatrix(corpus.values[:20])
        cfg = _tiny_config(n_epochs=1)
        state, log = train(cfg, EmbeddingMatrix(corpus.values[20:]), val=val)
        seed = rng.derive_seed(cfg.seed, rng.STREAM_STEP, 2**31)
        values, _ = loss_and_gradients(state.encoder, state.books, val.values, cfg.loss, seed)
        assert log.records[0].val_loss == values.total

    def test_usage_histogram_matches_per_book_assignment(self):
        corpus = _tiny_corpus()
        for n_books, n_words in ((2, 4), (3, 5), (4, 2)):
            state, _ = train(_tiny_config(n_codebooks=n_books, n_codewords=n_words, n_epochs=1), corpus)
            refined = forward_batch(state.encoder, corpus.values)
            sub = state.books.sub_dim
            expected = [
                np.bincount(
                    hard_assign_books(refined[:, m * sub:(m + 1) * sub],
                                      state.books.books[m][None])[:, 0],
                    minlength=n_words,
                )
                for m in range(n_books)
            ]
            assert np.array_equal(usage_histogram(state, corpus), expected)

    def test_nonfinite_gradient_reports_epoch_and_step(self, monkeypatch):
        def broken(*args, **kwargs):
            raise NonFiniteGradientError("non-finite gradient for weight at step 0")

        monkeypatch.setattr(trainer, "loss_and_gradients", broken)
        with pytest.raises(NonFiniteGradientError) as err:
            train(_tiny_config(n_epochs=1), _tiny_corpus())
        assert "epoch 0" in str(err.value)
        assert "step 0" in str(err.value)

    def test_corpus_smaller_than_batch_size_trains_as_one_batch(self):
        corpus = _tiny_corpus()
        small = EmbeddingMatrix(corpus.values[:10])
        state, log = train(_tiny_config(n_epochs=2, batch_size=256), small)
        assert len(log.records) == 2
        assert state.step == 2  # one step per epoch

    def test_trailing_singleton_document_is_skipped(self):
        corpus = _tiny_corpus()
        # 33 documents with batch 32 leaves a 1-doc remainder per epoch
        data = EmbeddingMatrix(corpus.values[:33])
        state, log = train(_tiny_config(n_epochs=1, batch_size=32), data)
        assert state.step == 1

    def test_on_epoch_callback_sees_every_record(self):
        seen = []
        train(_tiny_config(n_epochs=3), _tiny_corpus(), on_epoch=lambda r: seen.append(r.epoch))
        assert seen == [0, 1, 2]


class TestCodebookSizeBound:
    """Sub-indices are uint16, so K is at most 2^16: a larger K would wrap
    its codes (70,000 coded as 4,464) and write an index no search loads."""

    def test_k_above_uint16_is_refused(self):
        with pytest.raises(InvalidConfigError):
            TrainConfig(n_codebooks=1, n_codewords=(1 << 16) + 1, sub_dim=1)
        with pytest.raises(InvalidConfigError):
            CodebookSet(np.zeros((1, (1 << 16) + 1, 1), np.float32))
        assert TrainConfig(n_codebooks=1, n_codewords=1 << 16, sub_dim=1).n_codewords == 1 << 16
        assert CodebookSet(np.zeros((1, 1 << 16, 1), np.float32)).n_codewords == 1 << 16

    def test_cli_train_with_k_above_uint16_exits_1_and_writes_nothing(self, tmp_path, capsys):
        emb, ckpt = tmp_path / "c.emb", tmp_path / "m.ckpt"
        write_embeddings(_tiny_corpus(), emb)
        code = main(["train", "--emb", str(emb), "--M", "1", "--K", "131072", "--sub-dim", "1",
                     "--batch-size", "8", "--epochs", "1", "--out", str(ckpt)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("error:") == 1
        assert not ckpt.exists()


class TestAdamShapes:
    @pytest.mark.parametrize("length", [1, 3])
    def test_bias_gradient_of_another_shape_is_refused(self, length):
        state = _tiny_state(4)  # d_out = 2
        grads = _zero_grads(state)
        grads.bias = np.zeros(length)
        before = state.encoder.bias.copy()
        with pytest.raises(InvalidConfigError):
            adam_step(state, grads, lr=0.01)
        assert np.array_equal(state.encoder.bias, before)
        assert state.step == 0

    def test_scratch_gives_the_fresh_update(self):
        grads = _zero_grads(_tiny_state(5, d_in=3, n_words=5))
        grads.weight += 0.3
        grads.bias -= 0.2
        grads.books += 0.1
        a, b = _tiny_state(5, d_in=3, n_words=5), _tiny_state(5, d_in=3, n_words=5)
        scratch = trainer.adam_scratch(b)
        for _ in range(3):
            adam_step(a, grads, lr=0.01)
            adam_step(b, grads, lr=0.01, scratch=scratch)
        for (name, x), (_, y) in zip(a._arrays(), b._arrays()):
            assert x.tobytes() == y.tobytes(), name


def _serial_train(cfg, data):
    """The training loop without the helper thread: each step gathers its
    batch, draws its noise from the step seed and updates in turn."""
    values = data.values
    n_docs = len(values)
    perms = [
        rng.spawn(cfg.seed, rng.STREAM_SHUFFLE, epoch).permutation(n_docs)
        for epoch in range(cfg.n_epochs)
    ]
    state = init_model(cfg, values[perms[0][: min(cfg.batch_size, n_docs)]])
    log, step = TrainLog(), 0
    for epoch, perm in enumerate(perms):
        sums, n_steps = np.zeros(3), 0
        for start in range(0, n_docs, cfg.batch_size):
            rows = perm[start:start + cfg.batch_size]
            if len(rows) < 2:
                continue
            seed = rng.derive_seed(cfg.seed, rng.STREAM_STEP, step)
            step_values, grads = loss_and_gradients(
                state.encoder, state.books, values[rows], cfg.loss, seed
            )
            adam_step(state, grads, cfg.learning_rate)
            sums += (step_values.total, step_values.contrastive, step_values.mi_per_book.sum())
            n_steps += 1
            step += 1
        counts = usage_histogram(state, values)
        log.records.append(EpochRecord(
            epoch=epoch,
            total_loss=float(sums[0] / n_steps),
            contrastive_loss=float(sums[1] / n_steps),
            mi_sum=float(sums[2] / n_steps),
            usage=counts,
            usage_entropy=usage_entropy(counts),
        ))
    return state, log


class TestPrefetchedTraining:
    """``train`` prepares step t+1's noise on a helper thread while step t
    runs; the result must be the serial loop's, byte for byte."""

    @pytest.mark.parametrize("p_drop", [0.0, 0.3])
    @pytest.mark.parametrize("n_docs, batch_size, steps_per_epoch", [
        (120, 32, 4),  # full batches and a 24-document tail
        (97, 32, 3),   # a trailing single document, skipped every epoch
        (20, 64, 1),   # batch_size larger than the corpus
    ])
    def test_equals_the_serial_loop(self, tmp_path, p_drop, n_docs, batch_size, steps_per_epoch):
        data = EmbeddingMatrix(_tiny_corpus().values[:n_docs])
        cfg = _tiny_config(
            n_epochs=3, batch_size=batch_size, loss=LossConfig(tau_gumbel=2.0, p_drop=p_drop)
        )
        state, log = train(cfg, data)
        ref_state, ref_log = _serial_train(cfg, data)
        assert state.step == ref_state.step == 3 * steps_per_epoch
        save_checkpoint(state, tmp_path / "threaded.ckpt")
        save_checkpoint(ref_state, tmp_path / "serial.ckpt")
        assert (tmp_path / "threaded.ckpt").read_bytes() == (tmp_path / "serial.ckpt").read_bytes()
        assert log.format_lines() == ref_log.format_lines()
        for got, want in zip(log.records, ref_log.records):
            assert (got.total_loss, got.contrastive_loss, got.mi_sum) == (
                want.total_loss, want.contrastive_loss, want.mi_sum
            )


    def test_equals_the_serial_loop_under_rapid_thread_switching(self, tmp_path):
        data = _tiny_corpus()
        cfg = _tiny_config(n_epochs=2, batch_size=16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            state, log = train(cfg, data)
        finally:
            sys.setswitchinterval(interval)
        ref_state, ref_log = _serial_train(cfg, data)
        for (name, got), (_, want) in zip(state._arrays(), ref_state._arrays()):
            assert got.tobytes() == want.tobytes(), name
        assert log.format_lines() == ref_log.format_lines()


class TestTrainingFromAFile:
    """``train`` on an EmbeddingFile reads its rows as it needs them, or
    whole when they take at most HOLD_BYTES, and writes the bytes of
    ``train`` on the same rows in memory."""

    @pytest.mark.parametrize("hold_bytes", [0, trainer.HOLD_BYTES], ids=["streamed", "held"])
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("d_in", [64, 768])
    @pytest.mark.parametrize("n_rows", [90, 480], ids=["sparse", "dense"])
    def test_equals_training_on_the_rows_in_memory(self, tmp_path, monkeypatch, use_workers,
                                                   n_workers, d_in, n_rows, hold_bytes):
        use_workers(n_workers)
        monkeypatch.setattr(trainer, "HOLD_BYTES", hold_bytes)
        gen = np.random.default_rng(d_in + n_rows)
        values = gen.normal(size=(600, d_in)).astype(np.float32)
        write_embeddings(EmbeddingMatrix(values), tmp_path / "c.emb")
        rows = np.sort(gen.choice(600, n_rows, replace=False))
        requested = []

        def spy(path, rows=None, out=None):
            requested.append(rows)
            return read_embeddings(path, rows, out)

        monkeypatch.setattr(dataio, "read_embeddings", spy)
        outputs = {}
        for name, data in (("file", EmbeddingFile(tmp_path / "c.emb", rows)),
                           ("memory", EmbeddingMatrix(values[rows]))):
            # 64-document batches, so the last of each epoch is shorter
            cfg = _tiny_config(n_epochs=2, batch_size=64, sub_dim=16,
                               checkpoint_path=str(tmp_path / f"{name}.ckpt"))
            _, log = train(cfg, data)
            log.write(tmp_path / f"{name}.log")
            outputs[name] = [(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("ckpt", "log")]
        assert outputs["file"] == outputs["memory"]
        if hold_bytes:  # one read of the whole split
            assert len(requested) == 1 and np.array_equal(requested[0], rows)
        else:  # the check pass, then each epoch's batches and histogram
            assert len(requested) > 3


def _split_corpus():
    """200 documents: 64-document batches make 128 step rows, two pieces at W = 2."""
    emb, _ = synth_mixture(
        MixtureSpec(n_docs=200, dim=8, n_classes=3, separation=10.0, noise_sigma=1.0, seed=5)
    )
    return emb


# 64-document batches and d_out 128: at W = 2 every split call of the step and Adam splits
_SPLIT = dict(batch_size=64, sub_dim=64)


class TestHelperThread:
    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_no_thread_outlives_a_finished_run(self, use_workers, n_cpus):
        use_workers(n_cpus)
        before = threading.active_count()
        train(_tiny_config(n_epochs=2, **_SPLIT), _split_corpus())
        assert threading.active_count() == before

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_no_thread_outlives_a_nonfinite_gradient(self, monkeypatch, use_workers, n_cpus):
        calls = []

        def broken_at_step_2(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise NonFiniteGradientError("non-finite gradient for weight at step 2")
            return loss_and_gradients(*args, **kwargs)

        monkeypatch.setattr(trainer, "loss_and_gradients", broken_at_step_2)
        use_workers(n_cpus)
        before = threading.active_count()
        with pytest.raises(NonFiniteGradientError) as err:
            train(_tiny_config(n_epochs=2, **_SPLIT), _split_corpus())  # 4 steps an epoch
        assert str(err.value).startswith("epoch 0, step 2: ")
        assert threading.active_count() == before

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_a_failed_preparation_reaches_the_caller(self, monkeypatch, use_workers, n_cpus):
        calls = []

        def fails_third(*args, **kwargs):
            calls.append(threading.current_thread())
            if len(calls) == 3:
                raise RuntimeError("preparation failed")
            return draw_noise(*args, **kwargs)

        monkeypatch.setattr(trainer, "draw_noise", fails_third)
        use_workers(n_cpus)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="preparation failed"):
            train(_tiny_config(n_epochs=2, **_SPLIT), _split_corpus())
        assert len(calls) == 3
        assert all(t is not threading.main_thread() for t in calls)
        assert threading.active_count() == before

    def test_a_failed_piece_reaches_the_caller_and_ends_every_thread(self, monkeypatch,
                                                                     use_workers):
        from micpq import objectives

        def fails_on_a_piece(params, batch, **kwargs):
            if len(batch) < 128:  # a piece of the 128 rows of a 64-document batch
                raise RuntimeError("piece failed")
            return forward_batch(params, batch, **kwargs)

        monkeypatch.setattr(objectives, "forward_batch", fails_on_a_piece)
        use_workers(2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="piece failed"):
            train(_tiny_config(n_epochs=2, **_SPLIT), _split_corpus())
        assert threading.active_count() == before


class TestPiecedTraining:
    """At W = 2 and 3 the step's phases and a large weight's Adam update
    run in row pieces; checkpoints and logs keep the bytes of W = 1."""

    @pytest.mark.parametrize("n_docs", [
        416,  # a 160-document last batch: 320 step rows, split at every W
        276,  # a 20-document last batch: 40 step rows, below the split minimum
    ])
    def test_checkpoint_and_log_bytes_do_not_depend_on_the_workers(self, tmp_path,
                                                                   use_workers, n_docs):
        emb = tmp_path / "data" / "data.emb"
        assert main(["synth", "--n", str(n_docs), "--dim", "64", "--classes", "5",
                     "--sigma", "1", "--seed", "3", "--out", str(tmp_path / "data")]) == 0
        outputs = []
        for n_cpus in (1, 2, 3):
            use_workers(n_cpus)
            ckpt, log = tmp_path / f"w{n_cpus}.ckpt", tmp_path / f"w{n_cpus}.log"
            assert main(["train", "--emb", str(emb), "--M", "8", "--K", "16", "--sub-dim", "24",
                         "--epochs", "2", "--split", "all", "--seed", "5", "--out", str(ckpt),
                         "--log", str(log)]) == 0
            outputs.append((ckpt.read_bytes(), log.read_bytes()))
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    @pytest.mark.parametrize("d_in, d_out", [(64, 192), (768, 192), (64, 384), (768, 384)])
    @pytest.mark.parametrize("n_cpus", [2, 3])
    def test_adam_weight_rows_give_the_single_update_bits(self, use_workers, d_in, d_out,
                                                          n_cpus):
        states = []
        for workers in (1, n_cpus):
            state = _tiny_state(d_in + d_out, d_in=d_in, d_out=d_out, n_books=8,
                                sub=d_out // 8)
            grads = ParamGrads(weight=np.random.default_rng(1).normal(size=(d_out, d_in)),
                               bias=np.ones(d_out), books=np.ones(state.books.books.shape))
            use_workers(workers)
            for _ in range(2):
                adam_step(state, grads, 1e-3)
            states.append(state)
        for (name, single), (_, pieced) in zip(states[0]._arrays(), states[1]._arrays()):
            assert single.tobytes() == pieced.tobytes(), name

    @pytest.mark.parametrize("d_in, d_out, split", [
        (64, 192, False), (64, 384, False), (768, 192, True),  # 12,288, 24,576, 147,456 values
    ])
    def test_adam_splits_only_a_large_weight(self, monkeypatch, use_workers, d_in, d_out, split):
        calls = []
        def recording(work, n_rows, pool=None):
            calls.append(n_rows)
            work(0, n_rows)
        monkeypatch.setattr(trainer, "split_rows", recording)
        use_workers(2)
        state = _tiny_state(d_in=d_in, d_out=d_out, n_books=8, sub=d_out // 8)
        grads = ParamGrads(weight=np.ones((d_out, d_in)), bias=np.ones(d_out),
                           books=np.ones(state.books.books.shape))
        adam_step(state, grads, 1e-3)
        assert calls == ([d_out] if split else [])
