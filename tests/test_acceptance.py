"""Acceptance suite: one test per release criterion.

Each test prints a single line with the measured quantities next to its
threshold, so a verbose run reads as a checklist.  The heavier
end-to-end pipelines are plain functions returning their printable
artifacts; the determinism criterion reruns them and compares bytes.
"""
import time

import numpy as np
import pytest

from micpq import rng as rng_streams
from micpq.dataio import EmbeddingMatrix, MixtureSpec, synth_mixture
from micpq.encoder import DropoutConfig, EncoderParams, dropout_view, forward_batch
from micpq.evaluation import evaluate_codeword_quality, retrieval_eval, split_indices
from micpq.objectives import LossConfig, loss_and_gradients
from micpq.quantizer import (
    CodebookSet,
    QuantCode,
    pack_codes_batch,
    reconstruct,
)
from micpq.retrieval import (
    RetrievalIndex,
    adc_distance,
    build_index,
    build_lut,
    hamming_distance,
    search_topk,
    search_topk_hamming,
)
from micpq.trainer import (
    TrainConfig,
    default_gumbel_temperature,
    init_model,
    train,
)

from oracles import (
    assignment_probabilities,
    expected_loss_oracle,
    mi_term,
    sample_hard_losses,
    sample_soft_losses,
)

CORPUS_SPEC = MixtureSpec(
    n_docs=2000, dim=32, n_classes=4, separation=20.0, noise_sigma=1.0, seed=7
)


def _corpus():
    return synth_mixture(CORPUS_SPEC)


# --- criterion 1: gradient correctness ------------------------------------

def _nondegenerate_instance(n_books, n_words, batch, base_seed):
    """Random float64 instance whose ReLU pre-activations stay clear of
    the kink under both dropout views, so finite differences are valid."""
    sub, d_in = 2, 3
    d_out = n_books * sub
    cfg = LossConfig(tau_cl=0.3, tau_gumbel=2.0, alpha=0.1, mi_weight=0.2, p_drop=0.3)
    for attempt in range(50):
        gen = np.random.default_rng(base_seed + attempt)
        params = EncoderParams(
            gen.normal(size=(d_out, d_in)), gen.normal(size=d_out) + 0.5
        )
        books = CodebookSet(gen.normal(size=(n_books, n_words, sub)))
        data = gen.normal(size=(batch, d_in))
        loss_seed = base_seed + 1000 + attempt
        view_seeds = [rng_streams.derive_seed(loss_seed, s) for s in range(2)]
        ok = True
        for vs in view_seeds:
            view = dropout_view(data, DropoutConfig(cfg.p_drop, vs))
            pre = view @ params.weight.T + params.bias
            refined = np.maximum(pre, 0)
            if np.min(np.abs(pre)) < 5e-3 or np.any((refined**2).sum(axis=1) < 1e-6):
                ok = False
                break
        if ok:
            return params, books, data, cfg, loss_seed
    raise AssertionError("could not build a non-degenerate gradient-check instance")


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    step = 1e-4
    worst = 0.0
    for n_books in (1, 2):
        for n_words in (2, 4):
            for batch in (2, 3):
                params, books, data, cfg, seed = _nondegenerate_instance(
                    n_books, n_words, batch, base_seed=100 * n_books + 10 * n_words + batch
                )
                _, grads = loss_and_gradients(params, books, data, cfg, seed)

                def loss_of():
                    values, _ = loss_and_gradients(params, books, data, cfg, seed)
                    return values.total

                for arr, grad in (
                    (params.weight, grads.weight),
                    (params.bias, grads.bias),
                    (books.books, grads.books),
                ):
                    flat, gflat = arr.ravel(), grad.ravel()
                    for i in range(flat.size):
                        orig = flat[i]
                        flat[i] = orig + step
                        up = loss_of()
                        flat[i] = orig - step
                        down = loss_of()
                        flat[i] = orig
                        fd = (up - down) / (2 * step)
                        rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8)
                        worst = max(worst, rel)
                        assert rel < 1e-4, (
                            f"M={n_books} K={n_words} B={batch} coord {i}: "
                            f"ad={gflat[i]:.10f} fd={fd:.10f} rel={rel:.2e}"
                        )
    elapsed = time.perf_counter() - start
    print(f"criterion 1: worst relative gradient error {worst:.2e} < 1e-4 "
          f"in {elapsed:.1f}s (< 60s): PASS")
    assert elapsed < 60.0


# --- criterion 2: expectation consistency ----------------------------------

def test_criterion_2_expectation_consistency():
    start = time.perf_counter()
    gen = np.random.default_rng(7)
    books = CodebookSet(gen.normal(size=(2, 3, 3)))
    refined1 = gen.normal(size=(2, 6))
    refined2 = gen.normal(size=(2, 6))
    tau_cl = 0.3
    oracle = expected_loss_oracle(refined1, refined2, books, tau_cl)

    n = 100_000
    hard = sample_hard_losses(refined1, refined2, books, tau_cl, n, seed=11)
    se = hard.std() / np.sqrt(n)
    hard_dev = abs(hard.mean() - oracle)

    soft = sample_soft_losses(refined1, refined2, books, tau_cl, 0.05, n, seed=12)
    soft_rel = abs(soft.mean() - oracle) / abs(oracle)

    elapsed = time.perf_counter() - start
    print(
        f"criterion 2: oracle {oracle:.5f}; hard mean {hard.mean():.5f} "
        f"(dev {hard_dev:.5f} <= 3*SE={3 * se:.5f}); soft mean {soft.mean():.5f} "
        f"(rel {soft_rel:.4f} < 0.05) in {elapsed:.1f}s (< 300s): PASS"
    )
    assert hard_dev <= 3 * se
    assert soft_rel < 0.05
    assert elapsed < 300.0


# --- criterion 3: MI closed forms ------------------------------------------

def test_criterion_3_mi_closed_forms():
    n_words, alpha = 16, 0.1
    uniform = mi_term(np.full((7, n_words), 1.0 / n_words), alpha)
    assert abs(uniform.mi - (1 - alpha) * np.log(n_words)) < 1e-9

    one_hot = mi_term(np.tile(np.eye(n_words), (3, 1)), alpha)
    assert abs(one_hot.mi - np.log(n_words)) < 1e-9

    worked = mi_term(np.array([[0.9, 0.1], [0.1, 0.9]]), alpha)
    assert abs(worked.mi - 0.66064) < 1e-4
    print(
        f"criterion 3: uniform mi {uniform.mi:.9f} == (1-a)logK; one-hot mi "
        f"{one_hot.mi:.9f} == logK; worked mi {worked.mi:.5f} == 0.66064: PASS"
    )


# --- criterion 4: retrieval exactness --------------------------------------

def _identity_model(books: CodebookSet):
    from micpq.trainer import ModelState

    dim = books.dim
    encoder = EncoderParams(np.eye(dim, dtype=np.float32), np.zeros(dim, dtype=np.float32))
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


def test_criterion_4_retrieval_exactness():
    start = time.perf_counter()
    gen = np.random.default_rng(21)
    n_books, n_words, sub = 8, 16, 24
    books = CodebookSet(gen.uniform(0.1, 1.0, size=(n_books, n_words, sub)).astype(np.float32))

    worst = 0.0
    for _ in range(1000):
        query = gen.uniform(0.0, 2.0, size=books.dim).astype(np.float32)
        code = QuantCode(gen.integers(0, n_words, size=n_books).astype(np.uint16), n_words)
        via_lut = adc_distance(build_lut(query, books), code)
        direct = float(
            ((query.astype(np.float64) - reconstruct(books, code).astype(np.float64)) ** 2).sum()
        )
        worst = max(worst, abs(via_lut - direct) / direct)
        assert abs(via_lut - direct) <= 1e-5 * direct

    model = _identity_model(books)
    corpus = gen.uniform(0.0, 1.5, size=(500, books.dim)).astype(np.float32)
    index = build_index(model, EmbeddingMatrix(corpus))
    for q in range(5):
        query = gen.uniform(0.0, 1.5, size=books.dim).astype(np.float32)
        got = [doc for doc, _ in search_topk(index, query, model, k=500)]
        refined = forward_batch(model.encoder, query[None, :])[0].astype(np.float64)
        recon = np.stack(
            [reconstruct(books, QuantCode(c, n_words)) for c in index.codes]
        ).astype(np.float64)
        direct = ((recon - refined) ** 2).sum(axis=1)
        oracle = [int(index.doc_ids[i]) for i in np.lexsort((index.doc_ids, direct))]
        assert got == oracle

    elapsed = time.perf_counter() - start
    print(
        f"criterion 4: worst ADC deviation {worst:.2e} (< 1e-5 relative); "
        f"5 full rankings equal the exhaustive oracle; {elapsed:.1f}s (< 60s): PASS"
    )
    assert elapsed < 60.0


# --- criterion 5: bit budget ------------------------------------------------

def test_criterion_5_bit_budget():
    n_docs = 10_000
    gen = np.random.default_rng(31)
    expected_bits = {4: 16, 8: 32, 16: 64, 32: 128}
    measured = {}
    for n_books, bits in expected_bits.items():
        books = CodebookSet(
            gen.uniform(0.1, 1.0, size=(n_books, 16, 2)).astype(np.float32)
        )
        codes = gen.integers(0, 16, size=(n_docs, n_books)).astype(np.uint16)
        index = RetrievalIndex(
            books=books, codes=codes, doc_ids=np.arange(n_docs, dtype=np.uint64)
        )
        assert index.packed is not None
        measured[n_books] = index.payload_nbytes
        assert index.payload_nbytes == n_docs * bits // 8
        assert np.array_equal(index.packed, pack_codes_batch(codes, 16))
    print(
        "criterion 5: payload bytes for M=4/8/16/32 at K=16 over 10k docs = "
        f"{[measured[m] for m in (4, 8, 16, 32)]} == [20000, 40000, 80000, 160000]: PASS"
    )


# --- criteria 6-9 pipelines (rerun by criterion 10) -------------------------

def run_retrieval_pipeline() -> dict:
    start = time.perf_counter()
    emb, labels = _corpus()
    train_idx, _, _ = split_indices(emb.n_docs)
    train_data = EmbeddingMatrix(emb.values[train_idx])
    cfg = TrainConfig(
        n_codebooks=4,
        n_codewords=16,
        sub_dim=24,
        seed=7,
        n_epochs=50,
        loss=LossConfig(mi_weight=0.2, tau_gumbel=default_gumbel_temperature(4, 16)),
    )
    untrained = init_model(cfg, train_data.values[: cfg.batch_size], codebook_init="random")
    untrained_report = retrieval_eval(untrained, emb, labels, k=100)
    data_init = init_model(cfg, train_data.values[: cfg.batch_size])
    data_init_report = retrieval_eval(data_init, emb, labels, k=100)
    state, log = train(cfg, train_data)
    trained_report = retrieval_eval(state, emb, labels, k=100)
    book_entropies = [
        mi_term(p, alpha=1.0).h_marginal
        for p in assignment_probabilities(state, train_data.values)
    ]
    artifact = "\n".join(
        log.format_lines()
        + ["[trained]"] + trained_report.format_lines()
        + ["[untrained-random-init]"] + untrained_report.format_lines()
        + ["[untrained-data-init]"] + data_init_report.format_lines()
    )
    return {
        "trained": trained_report.precision,
        "untrained_random": untrained_report.precision,
        "untrained_data": data_init_report.precision,
        "first_contrastive": log.records[0].contrastive_loss,
        "last_contrastive": log.records[-1].contrastive_loss,
        "book_entropies": book_entropies,
        "artifact": artifact,
        "elapsed": time.perf_counter() - start,
    }


def run_mi_ablation_pipeline() -> dict:
    emb, _ = _corpus()
    train_idx, _, _ = split_indices(emb.n_docs)
    train_data = EmbeddingMatrix(emb.values[train_idx])
    lines = []
    means = {}
    for lam in (0.2, 0.0):
        entropies = []
        for seed in (7, 8, 9):
            cfg = TrainConfig(
                n_codebooks=4,
                n_codewords=16,
                sub_dim=24,
                seed=seed,
                n_epochs=10,
                loss=LossConfig(mi_weight=lam, tau_gumbel=default_gumbel_temperature(4, 16)),
            )
            state, _ = train(cfg, train_data)
            probs = assignment_probabilities(state, train_data.values)
            h_books = [mi_term(p, alpha=1.0).h_marginal for p in probs]
            entropies.append(float(np.mean(h_books)))
            lines.append(f"lambda={lam} seed={seed} marginal_entropy={entropies[-1]:.6f}")
        means[lam] = float(np.mean(entropies))
        lines.append(f"lambda={lam} mean_marginal_entropy={means[lam]:.6f}")
    return {"with_mi": means[0.2], "without_mi": means[0.0], "artifact": "\n".join(lines)}


def run_extreme_pipeline() -> dict:
    emb, _ = _corpus()
    train_idx, _, test_idx = split_indices(emb.n_docs)
    cfg = TrainConfig(
        n_codebooks=16,
        n_codewords=2,
        sub_dim=24,
        seed=7,
        n_epochs=5,
        loss=LossConfig(mi_weight=0.2, tau_gumbel=default_gumbel_temperature(16, 2)),
    )
    train_data = EmbeddingMatrix(emb.values[train_idx])
    state, _ = train(cfg, train_data)
    index = build_index(state, train_data, ids=train_idx.astype(np.uint64))
    lines = []
    for q in test_idx[:10]:
        by_hamming = search_topk_hamming(index, emb.values[q], state, k=5)
        by_adc = search_topk(index, emb.values[q], state, k=5)
        lines.append(
            f"query={q} EH={[(d, int(v)) for d, v in by_hamming]} "
            f"EA={[(d, round(v, 4)) for d, v in by_adc]}"
        )
    return {"artifact": "\n".join(lines), "n_queries": 10}


def run_quality_pipeline() -> dict:
    # mi_weight 0.3 picked from the sweep range by validation performance:
    # it keeps every codeword of every book in use at K = n_classes
    emb, labels = _corpus()
    train_idx, _, _ = split_indices(emb.n_docs)
    cfg = TrainConfig(
        n_codebooks=8,
        n_codewords=4,
        sub_dim=24,
        seed=7,
        n_epochs=30,
        loss=LossConfig(mi_weight=0.3, tau_gumbel=default_gumbel_temperature(8, 4)),
    )
    train_data = EmbeddingMatrix(emb.values[train_idx])
    state, _ = train(cfg, train_data)
    report = evaluate_codeword_quality(
        state, train_data, type(labels)(labels.labels[train_idx])
    )
    return {
        "avg": report.avg_accuracy,
        "kmeans_avg": report.kmeans_avg_accuracy,
        "artifact": "\n".join(report.format_lines()),
    }


@pytest.fixture(scope="module")
def retrieval_run():
    return run_retrieval_pipeline()


@pytest.fixture(scope="module")
def mi_ablation_run():
    return run_mi_ablation_pipeline()


@pytest.fixture(scope="module")
def extreme_run():
    return run_extreme_pipeline()


@pytest.fixture(scope="module")
def quality_run():
    return run_quality_pipeline()


def test_criterion_6_end_to_end_retrieval(retrieval_run):
    trained = retrieval_run["trained"]
    untrained = retrieval_run["untrained_random"]
    threshold_ok = "PASS" if trained >= 0.90 else "FAIL"
    margin_ok = "PASS" if trained >= untrained + 0.15 else "FAIL"
    print(
        f"criterion 6: trained precision@100 {trained:.4f} >= 0.90: {threshold_ok}; "
        f"margin over untrained random-init {untrained:.4f} (data-init "
        f"{retrieval_run['untrained_data']:.4f}) by 0.15: {margin_ok}; "
        f"pipeline ran in {retrieval_run['elapsed']:.0f}s (< 600s)"
    )
    assert retrieval_run["elapsed"] < 600.0
    assert trained >= 0.90
    # training-loop invariants on this corpus: the contrastive term improves
    # and no codebook collapses below half the maximum usage entropy
    assert retrieval_run["last_contrastive"] < retrieval_run["first_contrastive"]
    assert min(retrieval_run["book_entropies"]) >= 0.5 * np.log(16)
    # Known-failing clause: with class centers 20 noise-sigmas apart, any
    # deterministic encode+quantize map sends same-class documents to the
    # same codes, so even a randomly initialized model ranks same-class
    # documents first and scores 1.0; an absolute +0.15 margin over it is
    # geometrically unattainable on this corpus.
    assert trained >= untrained + 0.15, (
        f"trained {trained:.4f} vs untrained {untrained:.4f}: margin of 0.15 "
        "is unattainable on a corpus this separable (see comment above)"
    )


def test_criterion_7_mi_ablation_direction(mi_ablation_run):
    with_mi = mi_ablation_run["with_mi"]
    without_mi = mi_ablation_run["without_mi"]
    half_log_k = 0.5 * np.log(16)
    print(
        f"criterion 7: mean marginal entropy with MI {with_mi:.4f} > without "
        f"{without_mi:.4f} (3-seed means); with-MI entropy >= 0.5*logK={half_log_k:.4f}: PASS"
    )
    assert with_mi > without_mi
    assert with_mi >= half_log_k


def test_criterion_8_extreme_mode_consistency(extreme_run):
    assert extreme_run["n_queries"] == 10
    assert "EH=" in extreme_run["artifact"] and "EA=" in extreme_run["artifact"]

    gen = np.random.default_rng(77)
    bits_a = gen.integers(0, 2, size=(10_000, 16)).astype(np.uint16)
    bits_b = gen.integers(0, 2, size=(10_000, 16)).astype(np.uint16)
    packed_a = pack_codes_batch(bits_a, 2)
    packed_b = pack_codes_batch(bits_b, 2)
    popcounts = np.unpackbits(packed_a ^ packed_b, axis=1).sum(axis=1)
    for i in range(10_000):
        dist = hamming_distance(QuantCode(bits_a[i], 2), QuantCode(bits_b[i], 2))
        assert dist == int(popcounts[i])
    print(
        "criterion 8: EH and EA both ran on one M=16/K=2 index; 10000 random "
        "pairs match XOR popcount exactly: PASS"
    )


def test_criterion_9_codeword_quality(quality_run):
    avg = quality_run["avg"]
    kmeans_avg = quality_run["kmeans_avg"]
    print(
        f"criterion 9: per-book accuracy avg {avg:.4f} vs K-means {kmeans_avg:.4f} "
        f"(|diff| {abs(avg - kmeans_avg):.4f} <= 0.10; both > 0.80): PASS"
    )
    assert abs(avg - kmeans_avg) <= 0.10
    assert avg > 0.80 and kmeans_avg > 0.80


def test_criterion_10_determinism(retrieval_run, mi_ablation_run, extreme_run, quality_run):
    assert run_retrieval_pipeline()["artifact"] == retrieval_run["artifact"]
    assert run_mi_ablation_pipeline()["artifact"] == mi_ablation_run["artifact"]
    assert run_extreme_pipeline()["artifact"] == extreme_run["artifact"]
    assert run_quality_pipeline()["artifact"] == quality_run["artifact"]
    print("criterion 10: criteria 6-9 pipelines reproduce identical logs and "
          "reports byte-for-byte: PASS")
