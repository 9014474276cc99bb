import itertools

import numpy as np
import pytest

from micpq.encoder import DropoutConfig, EncoderParams, dropout_view, forward_batch
from micpq.errors import DimMismatchError, ZeroNormError
from micpq.objectives import (
    LossConfig,
    StepWorkspace,
    _softmax_rows,
    _unit_rows,
    draw_noise,
    loss_and_gradients,
)
from micpq.quantizer import CodebookSet
from micpq.rng import derive_seed

from oracles import (
    BatchViews,
    RowNotNormalizedError,
    TooLargeToEnumerateError,
    assign_probs,
    contrastive_loss,
    contrastive_losses,
    expected_loss_oracle,
    mi_term,
    sample_hard_losses,
    sample_soft_losses,
    total_loss,
)


def _cosine(h1, h2):
    """Cosine similarity as the contrastive loss takes it: the product of
    the two rows over their norms."""
    h = np.array([h1, h2], dtype=np.float64)
    normed, norm = np.empty_like(h), np.empty((2, 1))
    _unit_rows(h, normed, norm)
    return float(normed[0] @ normed[1])


class TestCosine:
    def test_identical_vectors(self):
        v = np.array([0.3, -2.0, 1.0])
        assert _cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert _cosine([1.0, 0.0], [0.0, 2.0]) == pytest.approx(0.0)

    def test_hand_value(self):
        assert _cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.70711, abs=1e-5)

    def test_zero_norm_rejected(self):
        with pytest.raises(ZeroNormError):
            _cosine(np.zeros(3), np.ones(3))


class TestContrastiveLoss:
    def test_singleton_batch_is_zero(self):
        views = BatchViews(np.array([[1.0, 2.0]]), np.array([[2.0, 4.0]]))
        assert contrastive_loss(views, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_two_identical_docs(self):
        # all four representations equal: every term log(1/3), loss 2*log(3)
        h = np.array([[1.0, 1.0], [1.0, 1.0]])
        views = BatchViews(h, h)
        assert contrastive_loss(views, 0.3) == pytest.approx(2 * np.log(3.0), rel=1e-12)
        assert contrastive_loss(views, 0.3) == pytest.approx(2.19722, abs=1e-5)

    def test_invariant_to_rescaling_any_representation(self):
        rng = np.random.default_rng(0)
        v1 = rng.normal(size=(3, 4))
        v2 = rng.normal(size=(3, 4))
        base = contrastive_loss(BatchViews(v1, v2), 0.3)
        v1_scaled = v1.copy()
        v1_scaled[1] *= 17.0
        assert contrastive_loss(BatchViews(v1_scaled, v2), 0.3) == pytest.approx(base, rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            views = BatchViews(rng.normal(size=(4, 5)), rng.normal(size=(4, 5)))
            assert contrastive_loss(views, 0.5) >= 0.0

    def test_zero_vector_rejected(self):
        views = BatchViews(np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(ZeroNormError):
            contrastive_loss(views, 0.3)


class TestMITerm:
    def test_uniform_rows_closed_form(self):
        k, alpha = 8, 0.1
        probs = np.full((5, k), 1.0 / k)
        stats = mi_term(probs, alpha)
        assert stats.h_marginal == pytest.approx(np.log(k), abs=1e-9)
        assert stats.h_conditional == pytest.approx(np.log(k), abs=1e-9)
        assert stats.mi == pytest.approx((1 - alpha) * np.log(k), abs=1e-9)

    def test_balanced_one_hot_rows_closed_form(self):
        k = 4
        probs = np.tile(np.eye(k), (3, 1))
        stats = mi_term(probs, alpha=0.1)
        assert stats.h_marginal == pytest.approx(np.log(k), abs=1e-9)
        assert stats.h_conditional == pytest.approx(0.0, abs=1e-9)
        assert stats.mi == pytest.approx(np.log(k), abs=1e-9)

    def test_worked_example(self):
        stats = mi_term(np.array([[0.9, 0.1], [0.1, 0.9]]), alpha=0.1)
        np.testing.assert_allclose(stats.marginal, [0.5, 0.5])
        assert stats.h_marginal == pytest.approx(0.69315, abs=1e-5)
        assert stats.h_conditional == pytest.approx(0.32508, abs=1e-5)
        assert stats.mi == pytest.approx(0.66064, abs=1e-4)

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(5), size=12)
        base = mi_term(probs, 0.3)
        perm = rng.permutation(5)
        permuted = mi_term(probs[:, perm], 0.3)
        assert permuted.h_marginal == pytest.approx(base.h_marginal, rel=1e-12)
        assert permuted.h_conditional == pytest.approx(base.h_conditional, rel=1e-12)
        assert permuted.mi == pytest.approx(base.mi, rel=1e-12)

    def test_nonnegative_at_alpha_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            probs = rng.dirichlet(rng.uniform(0.2, 3.0, size=6), size=rng.integers(1, 20))
            assert mi_term(probs, alpha=1.0).mi >= -1e-6

    def test_unnormalized_rows_rejected(self):
        with pytest.raises(RowNotNormalizedError):
            mi_term(np.array([[0.5, 0.6]]), 0.1)


class TestTotalLoss:
    def _setup(self):
        rng = np.random.default_rng(4)
        views = BatchViews(rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))
        probs = [rng.dirichlet(np.ones(4), size=6) for _ in range(2)]
        return views, probs

    def test_zero_weight_equals_contrastive(self):
        views, probs = self._setup()
        cfg = LossConfig(mi_weight=0.0)
        assert total_loss(views, probs, cfg) == contrastive_loss(views, cfg.tau_cl)

    def test_linear_in_mi(self):
        views, probs = self._setup()
        cfg = LossConfig(mi_weight=0.25)
        cl = contrastive_loss(views, cfg.tau_cl)
        mi_sum = sum(mi_term(p, cfg.alpha).mi for p in probs)
        assert total_loss(views, probs, cfg) == pytest.approx(cl - 0.25 * mi_sum, rel=1e-12)

    def test_worked_arithmetic(self):
        # contrastive 2*log(3) with both per-book MI at the worked-example value
        h = np.ones((2, 2))
        views = BatchViews(h, h)
        probs = [np.array([[0.9, 0.1], [0.1, 0.9]])] * 2
        cfg = LossConfig(tau_cl=0.3, alpha=0.1, mi_weight=0.1)
        assert total_loss(views, probs, cfg) == pytest.approx(2.06509, abs=1e-4)


class TestExpectedLossOracle:
    def test_identical_codewords_reduce_to_deterministic_loss(self):
        # with every codeword equal, all K^slots outcomes give the same h
        rng = np.random.default_rng(5)
        word = rng.normal(size=3)
        books = CodebookSet(np.tile(word, (1, 2, 1)))
        refined1 = rng.uniform(0.1, 1.0, size=(2, 3))
        refined2 = rng.uniform(0.1, 1.0, size=(2, 3))
        h = np.tile(word, (2, 1))
        deterministic = contrastive_loss(BatchViews(h, h), 0.3)
        oracle = expected_loss_oracle(refined1, refined2, books, 0.3)
        assert oracle == pytest.approx(deterministic, rel=1e-12)

    def test_uniform_probabilities_average_all_outcomes(self):
        """Segments on the perpendicular bisector of the two codewords make
        every slot probability exactly 0.5, so the expectation is the plain
        mean over all 16 joint outcomes, recomputed here by brute force."""
        books = CodebookSet(np.array([[[1.0, 0.0], [-1.0, 0.0]]]))
        refined1 = np.array([[0.0, 1.0], [0.0, 2.0]])
        refined2 = np.array([[0.0, 3.0], [0.0, 0.5]])
        for view in (refined1, refined2):
            for row in view:
                np.testing.assert_allclose(
                    assign_probs(row, books.books[0]), [0.5, 0.5]
                )
        words = books.books[0]
        losses = []
        for key in itertools.product(range(2), repeat=4):
            h1 = np.stack([words[key[0]], words[key[1]]])
            h2 = np.stack([words[key[2]], words[key[3]]])
            losses.append(contrastive_loss(BatchViews(h1, h2), 0.3))
        oracle = expected_loss_oracle(refined1, refined2, books, 0.3)
        assert oracle == pytest.approx(np.mean(losses), rel=1e-12)

    def test_matches_monte_carlo_hard_sampling(self):
        rng = np.random.default_rng(6)
        books = CodebookSet(rng.normal(size=(2, 3, 3)))
        refined1 = rng.normal(size=(2, 6))
        refined2 = rng.normal(size=(2, 6))
        oracle = expected_loss_oracle(refined1, refined2, books, 0.3)
        n = 20_000
        losses = sample_hard_losses(refined1, refined2, books, 0.3, n, seed=7)
        se = losses.std() / np.sqrt(n)
        assert abs(losses.mean() - oracle) <= 3 * se

    def test_soft_sampling_approaches_oracle_at_low_temperature(self):
        rng = np.random.default_rng(8)
        books = CodebookSet(rng.normal(size=(2, 3, 3)))
        refined1 = rng.normal(size=(2, 6))
        refined2 = rng.normal(size=(2, 6))
        oracle = expected_loss_oracle(refined1, refined2, books, 0.3)
        losses = sample_soft_losses(refined1, refined2, books, 0.3, 0.05, 20_000, seed=9)
        assert abs(losses.mean() - oracle) <= 0.05 * abs(oracle)

    def test_too_large_to_enumerate(self):
        rng = np.random.default_rng(10)
        books = CodebookSet(rng.normal(size=(3, 4, 2)))
        refined = rng.normal(size=(3, 6))
        with pytest.raises(TooLargeToEnumerateError):
            expected_loss_oracle(refined, refined, books, 0.3)


class TestLossAndGradients:
    def _instance(self, seed, d_in=3, sub=2, n_books=2, n_words=4, batch=3):
        rng = np.random.default_rng(seed)
        d_out = n_books * sub
        params = EncoderParams(rng.normal(size=(d_out, d_in)), rng.normal(size=d_out) + 0.5)
        books = CodebookSet(rng.normal(size=(n_books, n_words, sub)))
        data = rng.normal(size=(batch, d_in))
        return params, books, data

    def test_matches_finite_differences(self):
        params, books, data = self._instance(11)
        cfg = LossConfig(tau_cl=0.3, tau_gumbel=2.0, alpha=0.1, mi_weight=0.2, p_drop=0.3)
        seed = 13
        _, grads = loss_and_gradients(params, books, data, cfg, seed)

        def loss_of(weight, bias, book_arr):
            values, _ = loss_and_gradients(
                EncoderParams(weight, bias), CodebookSet(book_arr), data, cfg, seed
            )
            return values.total

        step = 1e-4
        weight, bias, book_arr = params.weight, params.bias, books.books
        for arr, grad in ((weight, grads.weight), (bias, grads.bias), (book_arr, grads.books)):
            flat = arr.ravel()
            g = grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = loss_of(weight, bias, book_arr)
                flat[i] = orig - step
                down = loss_of(weight, bias, book_arr)
                flat[i] = orig
                fd = (up - down) / (2 * step)
                assert abs(fd - g[i]) <= 1e-4 * max(abs(fd), abs(g[i]), 1e-8)

    def test_matches_finite_differences_three_books_of_five(self):
        """Three books (batched over M), K = 5 (not a power of two), B = 5."""
        params, books, data = self._instance(31, d_in=4, n_books=3, n_words=5, batch=5)
        cfg = LossConfig(tau_cl=0.3, tau_gumbel=2.0, alpha=0.1, mi_weight=0.2, p_drop=0.3)
        _, grads = loss_and_gradients(params, books, data, cfg, seed=32)
        step = 1e-4
        for arr, grad in ((params.weight, grads.weight), (params.bias, grads.bias),
                          (books.books, grads.books)):
            flat = arr.ravel()
            for i, g in enumerate(grad.ravel()):
                orig = flat[i]
                totals = []
                for value in (orig + step, orig - step):
                    flat[i] = value
                    totals.append(loss_and_gradients(params, books, data, cfg, seed=32)[0].total)
                flat[i] = orig
                fd = (totals[0] - totals[1]) / (2 * step)
                assert abs(fd - g) <= 1e-4 * max(abs(fd), abs(g), 1e-8)

    def test_deterministic_given_seed(self):
        params, books, data = self._instance(12)
        cfg = LossConfig()
        first = loss_and_gradients(params, books, data, cfg, seed=21)
        second = loss_and_gradients(params, books, data, cfg, seed=21)
        assert first[0].total == second[0].total
        assert np.array_equal(first[1].weight, second[1].weight)
        assert np.array_equal(first[1].books, second[1].books)

    def test_huge_contrastive_temperature_kills_the_gradient(self):
        # with all similarities equally weighted the contrastive gradient vanishes
        params, books, data = self._instance(14)
        cfg = LossConfig(tau_cl=1e6, tau_gumbel=2.0, mi_weight=0.0, p_drop=0.3)
        _, grads = loss_and_gradients(params, books, data, cfg, seed=15)
        for grad in (grads.weight, grads.bias, grads.books):
            assert np.max(np.abs(grad)) < 1e-5

    def test_values_consistent_with_public_surfaces(self):
        """At huge Gumbel temperature the mixtures collapse to codebook
        means, so the graph's loss must match the plain-numpy operations
        evaluated on those known mixtures and probabilities."""
        params, books, data = self._instance(16, batch=4)
        cfg = LossConfig(tau_cl=0.4, tau_gumbel=1e12, alpha=0.1, mi_weight=0.3, p_drop=0.0)
        values, _ = loss_and_gradients(params, books, data, cfg, seed=17)

        refined = forward_batch(params, data)
        sub = books.sub_dim
        means = np.concatenate(
            [np.tile(books.books[m].mean(axis=0), (4, 1)) for m in range(2)], axis=1
        )
        expected_cl = contrastive_loss(BatchViews(means, means), cfg.tau_cl)
        assert values.contrastive == pytest.approx(expected_cl, rel=1e-6)

        for m in range(books.n_codebooks):
            probs = np.stack(
                [
                    assign_probs(refined[i, m * sub:(m + 1) * sub], books.books[m])
                    for i in range(4)
                ]
            )
            stats = mi_term(np.concatenate([probs, probs]), cfg.alpha)
            assert values.mi_per_book[m] == pytest.approx(stats.mi, rel=1e-9)
        assert values.total == pytest.approx(
            values.contrastive - cfg.mi_weight * values.mi_per_book.sum(), rel=1e-12
        )

    def test_minimum_batch_of_one_allowed(self):
        params, books, data = self._instance(18, batch=1)
        values, _ = loss_and_gradients(params, books, data, LossConfig(), seed=19)
        assert values.contrastive == pytest.approx(0.0, abs=1e-12)


def _masked_contrastive_forward(h_all, tau_cl):
    """The contrastive forward as it was written before the masked passes
    were folded: max and exp restricted to each row's negatives by a
    (2B, 2B) mask, the exp written into zeros."""
    n_rows = h_all.shape[1]
    batch_size = n_rows // 2
    norm = np.sqrt((h_all * h_all).sum(axis=2, keepdims=True))
    normed = h_all / norm
    logits = (normed @ normed.transpose(0, 2, 1)) * (1.0 / tau_cl)
    rows = np.arange(n_rows)
    doc = rows % batch_size
    pos_col, neg_mask = (rows + batch_size) % n_rows, doc[:, None] != doc[None, :]
    pos = logits[:, rows, pos_col]
    shift = np.maximum(pos, logits.max(axis=2, where=neg_mask, initial=-np.inf))
    weights = np.exp(logits - shift[:, :, None], out=np.zeros_like(logits), where=neg_mask)
    e_pos = np.exp(pos - shift)
    denom = e_pos + weights.sum(axis=2)
    log_ratio = pos - (np.log(denom) + shift)
    weights[:, rows, pos_col] = e_pos
    weights /= denom[:, :, None]
    return log_ratio.sum(axis=1) * (-1.0 / batch_size), normed, norm, weights


class TestFoldedContrastiveForward:
    @pytest.mark.parametrize("n_inst, n_rows, dim", [
        (1, 512, 192), (1, 512, 384), (50, 8, 6), (3, 2, 5),  # 2B = 2: no negatives
    ])
    @pytest.mark.parametrize("given_buffers", [False, True])
    def test_bit_identical_to_the_masked_forward(self, n_inst, n_rows, dim, given_buffers):
        h_all = np.random.default_rng(n_rows + dim).random((n_inst, n_rows, dim))
        # NaN-filled buffers show that every entry is written; empty ones are the losses' own
        make = (lambda shape: np.full(shape, np.nan)) if given_buffers else np.empty
        normed, norm = make(h_all.shape), make((n_inst, n_rows, 1))
        logits, log_ratio = make((n_inst, n_rows, n_rows)), make((n_inst, n_rows))
        _unit_rows(h_all, normed, norm)
        _softmax_rows(normed, 0.3, logits, log_ratio, 0, n_rows)
        losses = log_ratio.sum(axis=1) * (-1.0 / (n_rows // 2))
        want = _masked_contrastive_forward(h_all, 0.3)
        for g, w in zip((losses, normed, norm, logits), want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        assert contrastive_losses(h_all, 0.3).tobytes() == want[0].tobytes()


class TestPreparedNoiseAndWorkspace:
    def _instance(self, batch=6, d_in=5, n_books=3, n_words=4, sub=2, dtype=np.float32):
        rng = np.random.default_rng(batch + d_in)
        d_out = n_books * sub
        params = EncoderParams(rng.normal(size=(d_out, d_in)).astype(dtype),
                               (rng.normal(size=d_out) + 0.5).astype(dtype))
        books = CodebookSet(rng.normal(size=(n_books, n_words, sub)).astype(dtype))
        return params, books, rng.normal(size=(batch, d_in)).astype(np.float32)

    def _same(self, first, second):
        assert first[0].total == second[0].total
        assert first[0].contrastive == second[0].contrastive
        assert first[0].mi_per_book.tobytes() == second[0].mi_per_book.tobytes()
        for name in ("weight", "bias", "books"):
            assert getattr(first[1], name).tobytes() == getattr(second[1], name).tobytes()

    @pytest.mark.parametrize("p_drop", [0.0, 0.3])
    def test_noise_drawn_ahead_gives_the_same_step(self, p_drop):
        params, books, data = self._instance()
        cfg = LossConfig(tau_gumbel=2.0, p_drop=p_drop)
        inputs, by_row = np.empty((12, 5)), np.empty((12, 3, 4))
        draw_noise(data, cfg, 41, inputs, by_row.transpose(1, 0, 2))
        # the views are the float64 batch's dropout views at the step's first two sub-seeds
        views = [dropout_view(data.astype(np.float64), DropoutConfig(p_drop, derive_seed(41, s)))
                 for s in range(2)]
        assert inputs.tobytes() == np.concatenate(views).tobytes()
        ahead = loss_and_gradients(params, books, data, cfg, 41,
                                   noise=(inputs, by_row.transpose(1, 0, 2)))
        self._same(ahead, loss_and_gradients(params, books, data, cfg, 41))

    def test_reused_and_shared_workspaces_give_fresh_results(self):
        params, books, data = self._instance(batch=6)
        cfg = LossConfig(tau_gumbel=2.0)
        full = StepWorkspace(6, 5, 3, 4, 2)
        tail = StepWorkspace(4, 5, 3, 4, 2, base=full)
        for seed in (1, 2):
            fresh = loss_and_gradients(params, books, data, cfg, seed)
            self._same(loss_and_gradients(params, books, data, cfg, seed, workspace=full), fresh)
            fresh = loss_and_gradients(params, books, data[:4], cfg, seed)
            self._same(loss_and_gradients(params, books, data[:4], cfg, seed, workspace=tail), fresh)

    def test_workspace_of_another_batch_size_is_refused(self):
        params, books, data = self._instance(batch=6)
        with pytest.raises(DimMismatchError):
            loss_and_gradients(params, books, data, LossConfig(), 1,
                               workspace=StepWorkspace(5, 5, 3, 4, 2))
        with pytest.raises(DimMismatchError):
            StepWorkspace(7, 5, 3, 4, 2, base=StepWorkspace(6, 5, 3, 4, 2))


def _step_instance(batch, d_in, n_books, n_words, sub=24):
    """Float32 parameters as training keeps them, and a batch."""
    gen = np.random.default_rng(d_in + n_books)
    d_out = n_books * sub
    params = EncoderParams((gen.normal(size=(d_out, d_in)) / np.sqrt(d_in)).astype(np.float32),
                           gen.normal(0.0, 0.1, size=d_out).astype(np.float32))
    books = CodebookSet(np.abs(gen.normal(size=(n_books, n_words, sub))).astype(np.float32))
    return params, books, gen.normal(size=(batch, d_in)).astype(np.float32)


class TestRowPieces:
    """The step's row pieces (its three phases: the forward to the unit
    rows and entropy terms, the logits and their softmax, the backward to
    the segments' gradient; then the weight gradient) write the bits of
    the single calls, at every batch size up to a full 256-document
    batch."""

    @staticmethod
    def _step(params, books, data, noise, ws, pool):
        values, grads = loss_and_gradients(params, books, data, LossConfig(), 3, noise=noise,
                                           workspace=ws, pool=pool)
        arrays = [ws.refined, ws.logits, ws.sym, grads.weight, grads.bias, grads.books,
                  values.mi_per_book, np.array([values.total, values.contrastive])]
        return [a.tobytes() for a in arrays]

    @pytest.mark.parametrize("d_in, n_books, n_words", [
        (64, 8, 16), (64, 16, 2), (768, 8, 16), (768, 16, 2),
    ])
    def test_every_batch_size_gives_the_single_calls_bits(self, use_workers, d_in, n_books,
                                                          n_words):
        from concurrent.futures import ThreadPoolExecutor

        params, books, data = _step_instance(256, d_in, n_books, n_words)
        full = StepWorkspace(256, d_in, n_books, n_words, 24)
        inputs, by_row = np.empty((512, d_in)), np.empty((512, n_books, n_words))
        mismatched = []
        with ThreadPoolExecutor(max_workers=2) as pool:
            for batch in range(2, 257):
                ws = StepWorkspace(batch, d_in, n_books, n_words, 24, base=full)
                noise = inputs[:2 * batch], by_row[:2 * batch].transpose(1, 0, 2)
                draw_noise(data[:batch], LossConfig(), 3, *noise)
                use_workers(1)
                single = self._step(params, books, data[:batch], noise, ws, pool)
                # below 96 documents (192 rows) W = 3 cuts the step's rows as W = 2 does
                for n_cpus in (2, 3) if batch >= 96 else (2,):
                    use_workers(n_cpus)
                    if self._step(params, books, data[:batch], noise, ws, pool) != single:
                        mismatched.append((batch, n_cpus))
        assert mismatched == []

    @pytest.mark.parametrize("n_cpus", [2, 3])
    def test_large_calls_are_split_and_small_ones_are_not(self, monkeypatch, use_workers,
                                                          n_cpus):
        from micpq import objectives, quantizer

        calls = []
        def recording(work, n_rows, pool=None):
            ranges = []
            def tracked(start, stop):
                ranges.append((start, stop))
                work(start, stop)
            quantizer.split_rows(tracked, n_rows, pool)
            calls.append((work.__name__, n_rows, len(ranges)))
        monkeypatch.setattr(objectives, "split_rows", recording)
        use_workers(n_cpus)
        for batch in (32, 63, 64, 100, 118, 164, 256):
            params, books, data = _step_instance(batch, 64, 8, 16)
            calls.clear()
            loss_and_gradients(params, books, data, LossConfig(), 1)
            pieces = min(n_cpus, 2 * batch // 64) if batch >= 64 else 1
            # numpy's syrk keeps the logits one call unless 2B is a multiple of 8
            logits = [("contrastive_rows", 2 * batch, pieces)] if batch % 4 == 0 else []
            assert calls == [("forward_rows", 2 * batch, pieces), *logits,
                             ("backward_rows", 2 * batch, pieces),
                             ("weight_rows", 192, min(n_cpus, 3))]

    def test_one_worker_makes_single_calls_on_the_calling_thread(self, monkeypatch,
                                                                  use_workers):
        import threading

        from micpq import objectives

        threads, rows = set(), []
        def recording(params, batch, **kwargs):
            threads.add(threading.current_thread())
            rows.append(len(batch))
            return forward_batch(params, batch, **kwargs)
        monkeypatch.setattr(objectives, "forward_batch", recording)
        params, books, data = _step_instance(256, 64, 8, 16)
        before = threading.active_count()
        use_workers(1)
        loss_and_gradients(params, books, data, LossConfig(), 1)
        assert threads == {threading.current_thread()} and rows == [512]
        rows.clear()
        use_workers(2)
        loss_and_gradients(params, books, data, LossConfig(), 1)
        assert rows == [256, 256]
        assert threading.active_count() == before
