import numpy as np
import pytest

from micpq import evaluation
from micpq.dataio import (
    EmbeddingFile,
    EmbeddingMatrix,
    LabelVector,
    MixtureSpec,
    synth_mixture,
    write_embeddings,
)
from micpq.encoder import EncoderParams, forward_batch
from micpq.errors import (
    ConfigMismatchError,
    InvalidConfigError,
    LengthMismatchError,
    TooFewPointsError,
    UnknownDocIdError,
)
from micpq.evaluation import (
    evaluate_codeword_quality,
    hungarian_accuracy,
    kmeans,
    precision_at_k,
    retrieval_eval,
    split_indices,
)
from micpq.quantizer import CodebookSet
from micpq.retrieval import build_index, search_topk, search_topk_hamming
from micpq.trainer import ModelState, TrainConfig, init_model

from oracles import assign_probs, assignment_probabilities


def _model_from(encoder: EncoderParams, books: CodebookSet) -> ModelState:
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


def _precision_by_loop(results, query_labels, corpus_labels, k):
    """Reference: precision at k with one dict lookup per retrieved document."""
    fractions = []
    for ranked, label in zip(results, query_labels):
        top = list(ranked)[:k]
        hits = 0
        for doc_id in top:
            hits += corpus_labels[int(doc_id)] == label
        fractions.append(hits / len(top))
    return float(np.mean(fractions))


class TestSplit:
    def test_default_ratio_sizes(self):
        train, val, test = split_indices(2000)
        assert (len(train), len(val), len(test)) == (1600, 200, 200)

    def test_partition_is_disjoint_and_complete(self):
        train, val, test = split_indices(503, seed=3)
        merged = np.concatenate([train, val, test])
        assert np.array_equal(np.sort(merged), np.arange(503))

    def test_deterministic(self):
        assert np.array_equal(split_indices(100, seed=4)[0], split_indices(100, seed=4)[0])

    def test_negative_doc_count_is_rejected(self):
        assert [len(part) for part in split_indices(0)] == [0, 0, 0]
        for n_docs in (-1, -5):
            with pytest.raises(InvalidConfigError):
                split_indices(n_docs)

    @pytest.mark.parametrize("ratios", [
        (float("nan"), 0.5, 0.5), (0.5, 0.5, float("nan")), (-0.1, 0.6, 0.5), (0.5, 0.5, 0.5),
        (0.5, 0.5),
    ])
    def test_bad_ratios_are_rejected(self, ratios):
        with pytest.raises(InvalidConfigError):
            split_indices(100, ratios)


class TestPrecisionAtK:
    def test_all_relevant(self):
        results = [np.array([0, 1, 2])] * 2
        corpus_labels = {0: 1, 1: 1, 2: 1}
        assert precision_at_k(results, np.array([1, 1]), corpus_labels, k=3) == 1.0

    def test_random_ranking_matches_null_model(self):
        """Uniformly random labels and rankings give precision about 1/C."""
        rng = np.random.default_rng(5)
        n_corpus, n_classes, n_queries, k = 5000, 4, 200, 20
        corpus_labels = {i: int(rng.integers(n_classes)) for i in range(n_corpus)}
        query_labels = rng.integers(n_classes, size=n_queries)
        results = [rng.choice(n_corpus, size=k, replace=False) for _ in range(n_queries)]
        precision = precision_at_k(results, query_labels, corpus_labels, k)
        sigma = np.sqrt(0.25 * 0.75 / (n_queries * k))
        assert abs(precision - 0.25) <= 3 * sigma + 1e-9

    def test_small_corpus_uses_returned_count_as_denominator(self):
        results = [np.array([0, 1, 2])]  # corpus of 3, k of 10
        corpus_labels = {0: 0, 1: 0, 2: 1}
        assert precision_at_k(results, np.array([0]), corpus_labels, k=10) == pytest.approx(2 / 3)

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(6)
        corpus_labels = {i: int(rng.integers(3)) for i in range(100)}
        query_labels = rng.integers(3, size=10)
        results = [rng.choice(100, size=5, replace=False) for _ in range(10)]
        base = precision_at_k(results, query_labels, corpus_labels, 5)
        relabel = {0: 2, 1: 0, 2: 1}
        remapped = {i: relabel[l] for i, l in corpus_labels.items()}
        requery = np.array([relabel[l] for l in query_labels])
        assert precision_at_k(results, requery, remapped, 5) == base

    def test_unknown_doc_id(self):
        with pytest.raises(UnknownDocIdError):
            precision_at_k([np.array([7])], np.array([0]), {0: 0}, 1)


class TestHungarianAccuracy:
    def test_identical_assignment(self):
        labels = np.array([0, 1, 2, 1, 0])
        assert hungarian_accuracy(labels, labels) == 1.0

    def test_permuted_cluster_ids_are_perfect(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        permuted = np.array([2, 2, 0, 0, 1, 1])
        assert hungarian_accuracy(permuted, labels) == 1.0

    def test_worked_confusion_matrix(self):
        # clusters x classes counts [[2, 1], [0, 3]]: best matching scores 5/6
        labels = np.array([0, 0, 1, 1, 1, 1])
        assignments = np.array([0, 0, 0, 1, 1, 1])
        assert hungarian_accuracy(assignments, labels) == pytest.approx(5 / 6)

    def test_invariant_to_independent_id_permutations(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(4, size=60)
        assignments = rng.integers(5, size=60)
        base = hungarian_accuracy(assignments, labels)
        cluster_perm = rng.permutation(5)
        class_perm = rng.permutation(4)
        assert hungarian_accuracy(cluster_perm[assignments], class_perm[labels]) == base

    def test_class_determined_assignments_bound_by_majority(self):
        """When the cluster id is a function of the class label, optimal
        matching scores at least the largest class frequency."""
        rng = np.random.default_rng(8)
        for _ in range(25):
            n_classes = int(rng.integers(2, 6))
            labels = rng.integers(n_classes, size=120)
            mapping = rng.integers(0, rng.integers(1, n_classes + 2), size=n_classes)
            assignments = mapping[labels]
            majority = np.bincount(labels).max() / labels.shape[0]
            assert hungarian_accuracy(assignments, labels) >= majority - 1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            hungarian_accuracy(np.array([0, 1]), np.array([0]))


class TestKMeans:
    def test_k_equals_n_gives_zero_sse(self):
        points = np.random.default_rng(9).normal(size=(6, 3))
        centers, assignments = kmeans(points, k=6, seed=10)
        sse = ((points - centers[assignments]) ** 2).sum()
        assert sse == pytest.approx(0.0, abs=1e-12)
        assert len(set(assignments.tolist())) == 6

    def test_two_separated_blobs_recovered(self):
        rng = np.random.default_rng(11)
        blob_a = rng.normal(size=(40, 2)) + np.array([10.0, 0.0])
        blob_b = rng.normal(size=(40, 2)) - np.array([10.0, 0.0])
        points = np.vstack([blob_a, blob_b])
        truth = np.repeat([0, 1], 40)
        _, assignments = kmeans(points, k=2, seed=12)
        assert hungarian_accuracy(assignments, truth) == 1.0

    def test_sse_non_increasing_over_iterations(self):
        points = np.random.default_rng(13).normal(size=(80, 4))
        sses = []
        for iters in range(1, 7):
            centers, assignments = kmeans(points, k=5, max_iters=iters, seed=14)
            sses.append(((points - centers[assignments]) ** 2).sum())
        assert all(b <= a + 1e-9 for a, b in zip(sses, sses[1:]))

    def test_deterministic(self):
        points = np.random.default_rng(15).normal(size=(50, 3))
        c1, a1 = kmeans(points, k=4, seed=16)
        c2, a2 = kmeans(points, k=4, seed=16)
        assert np.array_equal(c1, c2)
        assert np.array_equal(a1, a2)

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            kmeans(np.zeros((2, 2)), k=3)


class TestAssignmentProbabilities:
    @pytest.mark.parametrize("n_books,n_words", [(4, 16), (3, 5)])
    def test_rows_equal_per_segment_assign_probs(self, n_books, n_words):
        gen = np.random.default_rng(n_books * n_words)
        sub, d_in = 3, 6
        encoder = EncoderParams(
            gen.normal(size=(n_books * sub, d_in)).astype(np.float32),
            gen.normal(size=n_books * sub).astype(np.float32),
        )
        books = CodebookSet(gen.uniform(0, 1.5, size=(n_books, n_words, sub)).astype(np.float32))
        values = gen.normal(size=(40, d_in)).astype(np.float32)
        probs = assignment_probabilities(_model_from(encoder, books), values)
        refined = forward_batch(encoder, values).astype(np.float64)
        assert len(probs) == n_books
        for m, rows in enumerate(probs):
            expected = [
                assign_probs(seg, books.books[m].astype(np.float64))
                for seg in refined[:, m * sub:(m + 1) * sub]
            ]
            np.testing.assert_allclose(rows, expected, rtol=1e-12)


class TestCodewordQuality:
    def _perfect_setup(self):
        emb, labels = synth_mixture(
            MixtureSpec(n_docs=60, dim=4, n_classes=3, separation=8.0,
                        noise_sigma=1e-6, seed=17)
        )
        d = 4
        encoder = EncoderParams(np.eye(d, dtype=np.float32), np.zeros(d, dtype=np.float32))
        refined = forward_batch(encoder, emb.values)
        sub = 2
        books = np.stack(
            [
                np.stack(
                    [
                        refined[labels.labels == c, m * sub:(m + 1) * sub].mean(axis=0)
                        for c in range(3)
                    ]
                )
                for m in range(2)
            ]
        )
        model = _model_from(encoder, CodebookSet(books.astype(np.float32)))
        return model, emb, labels

    def test_class_mean_codewords_score_perfectly(self):
        model, emb, labels = self._perfect_setup()
        report = evaluate_codeword_quality(model, emb, labels)
        np.testing.assert_allclose(report.per_book_accuracy, 1.0)
        assert report.avg_accuracy == 1.0
        np.testing.assert_allclose(report.kmeans_accuracy, 1.0)

    def test_report_shape_and_order_statistics(self):
        model, emb, labels = self._perfect_setup()
        report = evaluate_codeword_quality(model, emb, labels)
        assert report.per_book_accuracy.shape == (2,)
        assert report.kmeans_accuracy.shape == (2,)
        assert report.max_accuracy >= report.avg_accuracy
        lines = report.format_lines()
        assert any(line.startswith("avg_accuracy=") for line in lines)

    def test_k_must_match_class_count(self):
        model, emb, _ = self._perfect_setup()
        bad = LabelVector(np.arange(60, dtype=np.uint32) % 2)
        with pytest.raises(ConfigMismatchError):
            evaluate_codeword_quality(model, emb, bad)


class TestRetrievalEval:
    def test_separated_corpus_scores_high_without_training(self):
        from micpq.trainer import TrainConfig, init_model

        emb, labels = synth_mixture(
            MixtureSpec(n_docs=300, dim=8, n_classes=3, separation=20.0,
                        noise_sigma=1.0, seed=18)
        )
        cfg = TrainConfig(n_codebooks=2, n_codewords=4, sub_dim=4, seed=19)
        model = init_model(cfg, emb.values[:64])
        report = retrieval_eval(model, emb, labels, k=10)
        assert report.n_corpus == 240
        assert report.n_queries == 30
        assert report.precision >= 0.8

    def test_report_lines_are_deterministic(self):
        from micpq.trainer import TrainConfig, init_model

        emb, labels = synth_mixture(
            MixtureSpec(n_docs=120, dim=8, n_classes=3, separation=20.0,
                        noise_sigma=1.0, seed=20)
        )
        cfg = TrainConfig(n_codebooks=2, n_codewords=4, sub_dim=4, seed=21)
        model = init_model(cfg, emb.values[:32])
        lines1 = retrieval_eval(model, emb, labels, k=5).format_lines()
        lines2 = retrieval_eval(model, emb, labels, k=5).format_lines()
        assert lines1 == lines2
        assert not any("elapsed" in line for line in lines1)
        assert any(line.startswith("precision_at_5=") for line in lines1)

    @pytest.mark.parametrize("n_books, n_words, mode", [(8, 16, "adc"), (16, 2, "hamming")])
    @pytest.mark.parametrize("given_index", [False, True])
    def test_precision_equals_the_full_corpus_dict(self, n_books, n_words, mode, given_index):
        """Labels looked up by array give, bit for bit, the precision of a
        dict that holds every indexed document's label."""
        emb, labels = synth_mixture(
            MixtureSpec(n_docs=600, dim=16, n_classes=6, separation=1.0,
                        noise_sigma=1.0, seed=22)
        )
        model = init_model(
            TrainConfig(n_codebooks=n_books, n_codewords=n_words, sub_dim=2, seed=23),
            emb.values[:64],
        )
        train_idx, _, test_idx = split_indices(emb.n_docs)
        if given_index:
            index = build_index(model, emb)  # every document, ids 0..n-1
        else:
            index = build_index(model, EmbeddingMatrix(emb.values[train_idx]),
                                ids=train_idx.astype(np.uint64))
        report = retrieval_eval(model, emb, labels, k=10, mode=mode,
                                index=index if given_index else None)

        search = search_topk_hamming if mode == "hamming" else search_topk
        results = [np.array([doc for doc, _ in search(index, emb.values[q], model, 10)])
                   for q in test_idx]
        corpus_labels = {int(i): int(labels.labels[i]) for i in index.doc_ids}
        expected = _precision_by_loop(results, labels.labels[test_idx], corpus_labels, 10)
        assert 0.0 < expected < 1.0
        assert report.precision.hex() == expected.hex()
        by_dict = precision_at_k(results, labels.labels[test_idx], corpus_labels, 10)
        assert by_dict.hex() == expected.hex()

    def test_index_ids_beyond_the_labels_are_rejected_before_searching(self, monkeypatch):
        emb, labels = synth_mixture(
            MixtureSpec(n_docs=60, dim=8, n_classes=3, separation=20.0,
                        noise_sigma=1.0, seed=24)
        )
        model = init_model(TrainConfig(n_codebooks=2, n_codewords=4, sub_dim=4, seed=25),
                           emb.values[:32])
        index = build_index(model, emb, ids=np.arange(5, 65, dtype=np.uint64))

        def fail(*args, **kwargs):
            raise AssertionError("searched")

        monkeypatch.setattr(evaluation, "search_topk", fail)
        with pytest.raises(UnknownDocIdError, match="64"):
            retrieval_eval(model, emb, labels, k=5, index=index)

    @pytest.mark.parametrize("in_file", [False, True])
    def test_an_empty_test_split_is_rejected_before_indexing_or_reading(
            self, monkeypatch, tmp_path, in_file):
        emb, labels = synth_mixture(
            MixtureSpec(n_docs=60, dim=8, n_classes=3, separation=20.0,
                        noise_sigma=1.0, seed=26)
        )
        model = init_model(TrainConfig(n_codebooks=2, n_codewords=4, sub_dim=4, seed=27),
                           emb.values[:32])
        data = emb
        if in_file:
            write_embeddings(emb, tmp_path / "e.emb")
            data = EmbeddingFile(tmp_path / "e.emb")

        def fail(*args, **kwargs):
            raise AssertionError("indexed or read")

        monkeypatch.setattr(evaluation, "build_index", fail)
        monkeypatch.setattr(EmbeddingFile, "read", fail)
        with pytest.raises(InvalidConfigError, match=r"test split is empty.*\(1.0, 0.0, 0.0\)"):
            retrieval_eval(model, data, labels, k=5, ratios=(1.0, 0.0, 0.0))
