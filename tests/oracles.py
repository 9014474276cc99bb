"""Reference paths that only tests call: the exact expected contrastive
loss under stochastic hard assignment, Monte-Carlo samplers of the same
quantity, a two-view contrastive loss, MI and total loss over plain
arrays, and one segment's (or a corpus's) noise-free assignment
distribution.

:func:`expected_loss_oracle` enumerates every joint hard-assignment
outcome to compute the exact expected contrastive loss that the training
step's Gumbel-softmax estimator approximates; :func:`sample_hard_losses`
draws hard estimates of it and :func:`sample_soft_losses` the training
step's own soft ones, for convergence tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from micpq import rng
from micpq.dataio import checked_real
from micpq.encoder import EncoderParams, forward_batch
from micpq.errors import (
    DimMismatchError,
    MicpqError,
    NonFiniteInputError,
    NonPositiveTemperatureError,
)
from micpq.objectives import (
    ENTROPY_LOG_EPS,
    LossConfig,
    StepWorkspace,
    _softmax_rows,
    _step,
    _unit_rows,
)
from micpq.quantizer import (
    CodebookSet,
    diff_distances,
    gumbel_from_uniform,
    squared_distances_books,
    stable_softmax,
)

# draws per training step in sample_soft_losses: the step's logits hold
# (rows per draw * draws)^2 entries, so 64 draws of 4 rows ran 100,000
# draws in 1.7 s, 128 in 2.8 s and 256 in 5.7 s
SOFT_DRAWS_PER_STEP = 64


class RowNotNormalizedError(MicpqError):
    """A probability row does not sum to one."""


class TooLargeToEnumerateError(MicpqError):
    """Exact expectation requested for an instance too large to enumerate."""


def assign_probs(segment: np.ndarray, book: np.ndarray) -> np.ndarray:
    """Assignment distribution of one segment over a (K, sub_dim) book:
    p_k proportional to exp(-||segment - c_k||^2), with max-subtraction
    in the dtype of the inputs, floating when both are integer.  The
    reference for the batched step."""
    segment = checked_real(segment, (None,), DimMismatchError, "segment")
    book = checked_real(book, (None, len(segment)), DimMismatchError, "book",
                        finite=NonFiniteInputError)
    checked_real(segment, segment.shape, DimMismatchError, "segment", finite=NonFiniteInputError)
    book = book.astype(np.result_type(book, 1.0), copy=False)
    return stable_softmax(-diff_distances(segment, book))


def assignment_probabilities(model, values: np.ndarray) -> list[np.ndarray]:
    """Noise-free assignment probability rows per codebook over a corpus.

    Row x of list entry m is the distribution of document x's segment m
    over that book's codewords; feeding these rows to :func:`mi_term`
    gives corpus-level usage statistics.
    """
    refined = forward_batch(model.encoder, np.asarray(values)).astype(np.float64)
    d2 = squared_distances_books(refined, model.books.books.astype(np.float64))
    return list(stable_softmax(-d2))


@dataclass
class BatchViews:
    """Two views of a batch: concatenated soft codeword mixtures per doc."""

    view1: np.ndarray  # (B, D)
    view2: np.ndarray  # (B, D)

    def __post_init__(self) -> None:
        self.view1 = np.asarray(self.view1)
        self.view2 = np.asarray(self.view2)
        if self.view1.shape != self.view2.shape or self.view1.ndim != 2:
            raise DimMismatchError(
                f"views must be equal-shaped 2-D arrays, got "
                f"{self.view1.shape} and {self.view2.shape}"
            )


@dataclass
class MIStats:
    """Entropy decomposition of one codebook's assignment probabilities."""

    marginal: np.ndarray
    h_marginal: float
    h_conditional: float
    mi: float


def contrastive_losses(h_all: np.ndarray, tau_cl: float) -> np.ndarray:
    """(T,) cosine contrastive losses of a (T, 2B, D) stack of instances,
    first-view rows then second-view rows, by the training step's own
    unit rows and contrastive softmax."""
    if not tau_cl > 0:
        raise NonPositiveTemperatureError(f"tau_cl must be > 0, got {tau_cl}")
    h_all = np.asarray(h_all, dtype=np.float64)
    n_rows = h_all.shape[1]
    normed, logits = np.empty(h_all.shape), np.empty(h_all.shape[:2] + (n_rows,))
    norm, log_ratio = np.empty(h_all.shape[:2] + (1,)), np.empty(h_all.shape[:2])
    _unit_rows(h_all, normed, norm)
    _softmax_rows(normed, tau_cl, logits, log_ratio, 0, n_rows)
    return log_ratio.sum(axis=1) * (-1.0 / (n_rows // 2))


def contrastive_loss(views: BatchViews, tau_cl: float) -> float:
    """Two-view contrastive loss over a batch of codeword mixtures."""
    stacked = np.concatenate([views.view1, views.view2], axis=0)[None]
    return float(contrastive_losses(stacked, tau_cl)[0])


def mi_term(probs_batch: np.ndarray, alpha: float) -> MIStats:
    """Entropy decomposition of a batch of assignment probability rows.

    marginal = row mean; mi = H(marginal) - alpha * mean row entropy,
    with 0*log(0) taken as 0.
    """
    probs = np.asarray(probs_batch, dtype=np.float64)
    if probs.ndim != 2:
        raise DimMismatchError("probs batch must be 2-D")
    row_sums = probs.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6) or np.any(probs < 0):
        raise RowNotNormalizedError("every probability row must be >= 0 and sum to 1")
    marginal = probs.mean(axis=0)
    h_marginal = float(-(marginal * np.log(np.maximum(marginal, ENTROPY_LOG_EPS))).sum())
    h_conditional = float(
        -(probs * np.log(np.maximum(probs, ENTROPY_LOG_EPS))).sum() / probs.shape[0]
    )
    return MIStats(
        marginal=marginal,
        h_marginal=h_marginal,
        h_conditional=h_conditional,
        mi=h_marginal - alpha * h_conditional,
    )


def total_loss(views: BatchViews, probs_per_book: list[np.ndarray], cfg: LossConfig) -> float:
    """Contrastive loss minus mi_weight times the summed per-book MI."""
    mi_sum = sum(mi_term(p, cfg.alpha).mi for p in probs_per_book)
    return contrastive_loss(views, cfg.tau_cl) - cfg.mi_weight * mi_sum


# --- exact expectation oracle and Monte-Carlo samplers -------------------

def _slot_sqdists(refined1: np.ndarray, refined2: np.ndarray, books: CodebookSet) -> np.ndarray:
    """Squared distances per (view, doc, book, codeword): (2,B,M,K)."""
    views = np.concatenate(
        [np.asarray(refined1, dtype=np.float64), np.asarray(refined2, dtype=np.float64)]
    )
    d2 = squared_distances_books(views, books.books.astype(np.float64))
    return d2.reshape(books.n_codebooks, 2, -1, books.n_codewords).transpose(1, 2, 0, 3)


def _stack_hard_codes(codes: np.ndarray, books: CodebookSet) -> np.ndarray:
    """Codeword concatenations for (T,2,B,M) index draws: (T, 2B, D)."""
    h = books.books.astype(np.float64)[np.arange(books.n_codebooks), codes]
    return h.reshape(codes.shape[0], -1, books.dim)


def expected_loss_oracle(
    refined1: np.ndarray,
    refined2: np.ndarray,
    books: CodebookSet,
    tau_cl: float,
    max_outcomes: int = 250_000,
) -> float:
    """Exact expected contrastive loss under stochastic hard assignment.

    Enumerates every joint codeword outcome over all documents, views and
    codebooks, weighting each by the product of its per-slot assignment
    probabilities.  Only feasible for tiny instances; raises
    :class:`TooLargeToEnumerateError` beyond ``max_outcomes`` joint states.
    """
    probs = stable_softmax(-_slot_sqdists(refined1, refined2, books))  # (2, B, M, K)
    batch = probs.shape[1]
    n_books = books.n_codebooks
    n_words = books.n_codewords
    n_slots = 2 * batch * n_books
    n_outcomes = n_words**n_slots
    if n_outcomes > max_outcomes:
        raise TooLargeToEnumerateError(
            f"{n_outcomes} joint outcomes exceed the cap of {max_outcomes}"
        )
    radix = n_words ** np.arange(n_slots - 1, -1, -1, dtype=np.int64)
    codes = (np.arange(n_outcomes, dtype=np.int64)[:, None] // radix) % n_words
    weights = probs.reshape(n_slots, n_words)[np.arange(n_slots), codes].prod(axis=1)
    codes = codes.reshape(n_outcomes, 2, batch, n_books)
    losses = contrastive_losses(_stack_hard_codes(codes, books), tau_cl)
    return float(weights @ losses)


def sample_hard_losses(
    refined1: np.ndarray,
    refined2: np.ndarray,
    books: CodebookSet,
    tau_cl: float,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Contrastive losses of hard Gumbel-argmax assignment draws.

    Each draw picks ``argmax_k(-d^2_k + gumbel_k)`` per slot, which
    samples the assignment distribution exactly, so the mean converges
    to :func:`expected_loss_oracle`.
    """
    d2 = _slot_sqdists(refined1, refined2, books)
    noise = gumbel_from_uniform(rng.spawn(seed).random((n_samples,) + d2.shape))
    codes = np.argmax(-d2[None] + noise, axis=-1)
    return contrastive_losses(_stack_hard_codes(codes, books), tau_cl)


def step_soft(rows: np.ndarray, books: np.ndarray, gumbel: np.ndarray, tau_gumbel: float,
              shift: float = 0.0) -> StepWorkspace:
    """The workspace of one training step (``objectives._step``, no
    backward) whose 2B inputs are the (2B, D) float64 ``rows``, under
    (M, 2B, K) Gumbel noise ``gumbel``: ``soft`` holds its Gumbel-softmax
    weights and ``mixtures`` its codeword mixtures.  The encoder is the
    identity plus a bias ``shift``, against (M, K, sub_dim) ``books``
    shifted by it, so the distances are those of the rows to the books."""
    n_rows, dim = rows.shape
    n_books, n_words, sub = books.shape
    ws = StepWorkspace(n_rows // 2, dim, n_books, n_words, sub)
    _step(EncoderParams(np.eye(dim), np.full(dim, shift)), CodebookSet(books + shift),
          rows[:n_rows // 2], LossConfig(tau_gumbel=tau_gumbel), 0, (rows, gumbel), ws, None,
          False)
    return ws


def sample_soft_losses(
    refined1: np.ndarray,
    refined2: np.ndarray,
    books: CodebookSet,
    tau_cl: float,
    tau_gumbel: float,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Contrastive losses of Gumbel-softmax mixture draws at a fixed
    temperature, each draw's weights made by the training step itself.

    The 2B rows of ``SOFT_DRAWS_PER_STEP`` draws at a time pass through
    :func:`step_soft` with the draws' Gumbel noise (the noise of
    :func:`sample_hard_losses` at the same seed) and a shift of
    ``1 - min(rows)``, so every refined row passes the ReLU; the step's
    weights then mix the unshifted books."""
    LossConfig(tau_cl=tau_cl, tau_gumbel=tau_gumbel)  # both temperatures are checked first
    rows = np.concatenate(
        [np.asarray(refined1, dtype=np.float64), np.asarray(refined2, dtype=np.float64)]
    )
    per_draw, dim = rows.shape
    codewords = books.books.astype(np.float64)
    draws = rng.spawn(seed).random((n_samples, per_draw) + codewords.shape[:2])
    noise = gumbel_from_uniform(draws)  # (T, 2B, M, K): the slots of sample_hard_losses
    losses = np.empty(n_samples)
    for lo in range(0, n_samples, SOFT_DRAWS_PER_STEP):
        hi = min(lo + SOFT_DRAWS_PER_STEP, n_samples)
        gumbel = noise[lo:hi].reshape((-1,) + noise.shape[2:]).transpose(1, 0, 2)
        ws = step_soft(np.tile(rows, (hi - lo, 1)), codewords, gumbel, tau_gumbel,
                       shift=1.0 - rows.min())
        mixtures = np.matmul(ws.soft, codewords)  # (M, rows, sub)
        losses[lo:hi] = contrastive_losses(
            mixtures.transpose(1, 0, 2).reshape(hi - lo, per_draw, dim), tau_cl)
    return losses
