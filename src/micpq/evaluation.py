"""Evaluation harness: retrieval precision and codeword quality.

Retrieval quality follows the label-match protocol: queries come from a
held-out split, search the training split, and a retrieved document is
relevant when it shares the query's class label.  Codeword quality
treats each codebook's hard assignments as a clustering of the corpus
and scores it with optimal cluster-to-class matching, next to a K-means
baseline run per segment.

Reports serialize as line-delimited ``key=value`` text.  Wall-clock
timings are kept on the report object but excluded from the serialized
lines so reports are byte-for-byte reproducible.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import rng
from .dataio import EmbeddingFile, EmbeddingMatrix, LabelVector, atomic_write
from .encoder import forward_batch
from .errors import (
    ConfigMismatchError,
    InvalidConfigError,
    KNot2Error,
    LengthMismatchError,
    TooFewPointsError,
    UnknownDocIdError,
)
from .quantizer import hard_assign_books, squared_distances_books
from .retrieval import build_index, search_topk, search_topk_hamming
from .trainer import ModelState

DEFAULT_SPLIT_RATIOS = (0.8, 0.1, 0.1)
DEFAULT_SPLIT_SEED = 0


def split_indices(
    n_docs: int,
    ratios: tuple[float, float, float] = DEFAULT_SPLIT_RATIOS,
    seed: int = DEFAULT_SPLIT_SEED,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic (train, val, test) row indices for an n-doc corpus;
    a negative ``n_docs`` raises :class:`InvalidConfigError`."""
    if n_docs < 0:
        raise InvalidConfigError(f"n_docs must be >= 0, got {n_docs}")
    if len(ratios) != 3 or any(not r >= 0 for r in ratios) or not abs(sum(ratios) - 1.0) <= 1e-9:
        raise InvalidConfigError(f"split ratios must be 3 nonnegative values summing to 1, got {ratios}")
    perm = rng.spawn(seed, rng.STREAM_SPLIT).permutation(n_docs)
    n_train = int(ratios[0] * n_docs)
    n_val = int(ratios[1] * n_docs)
    return perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:]


def precision_at_k(
    results: list[np.ndarray],
    query_labels: np.ndarray,
    corpus_labels: dict[int, int] | np.ndarray,
    k: int,
) -> float:
    """Mean over queries of the fraction of top-min(k, returned) results
    sharing the query's label.  ``corpus_labels`` gives each doc id's
    label: a dict, or an array whose entry i is doc i's label."""
    if k < 1:
        raise InvalidConfigError("k must be >= 1")
    query_labels = np.asarray(query_labels)
    if len(results) != query_labels.shape[0]:
        raise LengthMismatchError(
            f"{len(results)} result lists for {query_labels.shape[0]} query labels"
        )
    fractions = []
    for ranked, label in zip(results, query_labels):
        top = np.asarray(ranked)[:k]
        if not len(top):
            raise InvalidConfigError("a query returned no results")
        if isinstance(corpus_labels, np.ndarray):
            known = (top >= 0) & (top < len(corpus_labels))
            found = corpus_labels[np.where(known, top, 0)]
        else:
            known = np.array([i in corpus_labels for i in top.tolist()])
            found = np.array([corpus_labels.get(i, -1) for i in top.tolist()])
        if not known.all():
            raise UnknownDocIdError(f"no label for retrieved doc id {top[~known][0]}")
        fractions.append(np.count_nonzero(found == label) / len(top))
    return float(np.mean(fractions))


def hungarian_accuracy(assignments: np.ndarray, labels: np.ndarray) -> float:
    """Clustering accuracy under the best one-to-one cluster-to-class map.

    The confusion matrix may be rectangular; unmatched clusters or
    classes simply contribute nothing (equivalent to zero-padding it
    square).
    """
    assignments = np.asarray(assignments)
    labels = np.asarray(labels)
    if assignments.shape != labels.shape or assignments.ndim != 1 or assignments.shape[0] == 0:
        raise LengthMismatchError(
            f"assignments {assignments.shape} and labels {labels.shape} must be equal-length vectors"
        )
    _, cluster_ids = np.unique(assignments, return_inverse=True)
    _, class_ids = np.unique(labels, return_inverse=True)
    counts = np.zeros((cluster_ids.max() + 1, class_ids.max() + 1), dtype=np.int64)
    np.add.at(counts, (cluster_ids, class_ids), 1)
    # Imported here so that only ``micpq eval --clustering`` pays scipy's slow import.
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(counts, maximize=True)
    return float(counts[rows, cols].sum() / labels.shape[0])


def kmeans(
    points: np.ndarray, k: int, max_iters: int = 300, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with distance-weighted (k-means++) seeding.

    Converges when assignments stop changing or after ``max_iters``.
    Empty clusters are repaired by re-seeding to the point farthest from
    its current center.  Deterministic given the seed.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n < k:
        raise TooFewPointsError(f"k-means needs at least {k} points, got {n}")
    gen = rng.spawn(seed)

    centers = np.empty((k, points.shape[1]))
    centers[0] = points[gen.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = gen.choice(n, p=d2 / total)
        else:
            idx = gen.integers(n)
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))

    assignments = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        dists = squared_distances_books(points, centers[None])[0]
        new_assignments = dists.argmin(axis=1)
        point_d2 = dists[np.arange(n), new_assignments]
        for j in range(k):
            members = new_assignments == j
            if members.any():
                centers[j] = points[members].mean(axis=0)
            else:
                far = int(point_d2.argmax())
                centers[j] = points[far]
                new_assignments[far] = j
                point_d2[far] = 0.0
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return centers, assignments


@dataclass
class CodewordQualityReport:
    """Per-codebook clustering accuracy, with a per-segment K-means baseline."""

    per_book_accuracy: np.ndarray
    kmeans_accuracy: np.ndarray

    @property
    def avg_accuracy(self) -> float:
        return float(self.per_book_accuracy.mean())

    @property
    def max_accuracy(self) -> float:
        return float(self.per_book_accuracy.max())

    @property
    def kmeans_avg_accuracy(self) -> float:
        return float(self.kmeans_accuracy.mean())

    @property
    def kmeans_max_accuracy(self) -> float:
        return float(self.kmeans_accuracy.max())

    def format_lines(self) -> list[str]:
        lines = [
            f"book_{m}_accuracy={acc:.6f}" for m, acc in enumerate(self.per_book_accuracy)
        ]
        lines += [
            f"kmeans_{m}_accuracy={acc:.6f}" for m, acc in enumerate(self.kmeans_accuracy)
        ]
        lines += [
            f"avg_accuracy={self.avg_accuracy:.6f}",
            f"max_accuracy={self.max_accuracy:.6f}",
            f"kmeans_avg_accuracy={self.kmeans_avg_accuracy:.6f}",
            f"kmeans_max_accuracy={self.kmeans_max_accuracy:.6f}",
        ]
        return lines


def evaluate_codeword_quality(
    model: ModelState,
    data: EmbeddingMatrix,
    labels: LabelVector,
    kmeans_seed: int = 0,
) -> CodewordQualityReport:
    """Score each codebook's hard assignments as a clustering of the data.

    Requires the model to have been trained with K equal to the number
    of ground-truth classes.
    """
    if labels.n_docs != data.n_docs:
        raise LengthMismatchError("labels and embeddings disagree on the document count")
    if model.books.n_codewords != labels.n_classes:
        raise ConfigMismatchError(
            f"model has K={model.books.n_codewords} codewords but data has "
            f"{labels.n_classes} classes"
        )
    refined = forward_batch(model.encoder, data.values)
    codes = hard_assign_books(refined, model.books.books)
    sub = model.books.sub_dim
    book_acc = np.empty(model.books.n_codebooks)
    km_acc = np.empty(model.books.n_codebooks)
    for m in range(model.books.n_codebooks):
        segment = refined[:, m * sub:(m + 1) * sub]
        book_acc[m] = hungarian_accuracy(codes[:, m], labels.labels)
        _, km_assigned = kmeans(segment, labels.n_classes, seed=kmeans_seed)
        km_acc[m] = hungarian_accuracy(km_assigned, labels.labels)
    return CodewordQualityReport(per_book_accuracy=book_acc, kmeans_accuracy=km_acc)


@dataclass
class EvalReport:
    """Retrieval precision for one run, optionally with codeword quality."""

    precision: float
    k: int
    n_queries: int
    n_corpus: int
    mode: str
    elapsed_seconds: float
    clustering: CodewordQualityReport | None = None

    def format_lines(self) -> list[str]:
        lines = [
            f"precision_at_{self.k}={self.precision:.6f}",
            f"k={self.k}",
            f"n_queries={self.n_queries}",
            f"n_corpus={self.n_corpus}",
            f"mode={self.mode}",
        ]
        if self.clustering is not None:
            lines += self.clustering.format_lines()
        return lines

    def write(self, path) -> None:
        with atomic_write(path, text=True) as f:
            for line in self.format_lines():
                f.write(line + "\n")


def retrieval_eval(
    model: ModelState,
    data: EmbeddingMatrix | EmbeddingFile,
    labels: LabelVector,
    k: int = 100,
    mode: str = "adc",
    ratios: tuple[float, float, float] = DEFAULT_SPLIT_RATIOS,
    split_seed: int = DEFAULT_SPLIT_SEED,
    index=None,
) -> EvalReport:
    """Split the corpus, search the training split with held-out queries,
    and report mean precision at k.  A given ``index`` is searched in place
    of one built from the training split; its codebooks must have the
    model's shape, and its doc ids are row numbers of ``labels``.

    The training split is indexed in row order.  An
    :class:`~micpq.dataio.EmbeddingFile` ``data`` is read only where it
    is used: the held-out queries, and the training split block by block
    as :func:`build_index` encodes it when no ``index`` is given.  Only
    those rows are checked for finiteness; the report equals that of the
    whole file read into an :class:`EmbeddingMatrix`.  An empty test split
    raises :class:`InvalidConfigError` before any index is built or row
    read."""
    if labels.n_docs != data.n_docs:
        raise LengthMismatchError("labels and embeddings disagree on the document count")
    if mode not in ("adc", "hamming"):
        raise InvalidConfigError(f"unknown search mode {mode!r}")
    if mode == "hamming" and model.books.n_codewords != 2:
        raise KNot2Error(f"hamming mode requires K=2, got K={model.books.n_codewords}")
    if index is not None and index.books.books.shape != model.books.books.shape:
        raise ConfigMismatchError(
            f"index codebooks {index.books.books.shape} do not match "
            f"checkpoint codebooks {model.books.books.shape}"
        )
    if index is not None and np.any(index.doc_ids >= labels.n_docs):
        raise UnknownDocIdError(
            f"index doc ids reach {int(index.doc_ids.max())}, but the label file "
            f"has {labels.n_docs} documents"
        )
    start = time.perf_counter()
    train_idx, _, test_idx = split_indices(data.n_docs, ratios, split_seed)
    if len(test_idx) == 0:
        raise InvalidConfigError(f"the test split is empty: split ratios {tuple(ratios)} "
                                 f"leave no query among {data.n_docs} documents")
    in_file = isinstance(data, EmbeddingFile)
    if index is None:
        train_idx = np.sort(train_idx)
        corpus = data.take(train_idx) if in_file else EmbeddingMatrix(data.values[train_idx])
        index = build_index(model, corpus, ids=train_idx)
    if in_file:  # only the query rows are read
        queries = data.take(test_idx).read()
        query_rows = range(len(test_idx))
    else:
        queries, query_rows = data.values, test_idx
    search = search_topk_hamming if mode == "hamming" else search_topk
    results = [
        np.array([doc for doc, _ in search(index, queries[q], model, k)]) for q in query_rows
    ]
    precision = precision_at_k(results, labels.labels[test_idx], labels.labels, k)
    return EvalReport(
        precision=precision,
        k=k,
        n_queries=len(test_idx),
        n_corpus=index.n_docs,
        mode=mode,
        elapsed_seconds=time.perf_counter() - start,
    )
