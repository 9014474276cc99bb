"""Training objectives: probabilistic contrastive loss plus a per-codebook
mutual-information regularizer, with exact gradients in closed form.

The loss pipeline for one mini-batch of B documents, run on both views
stacked as 2B rows and on all M codebooks at once:

1. two inverted-dropout views of every input embedding,
2. one encoder forward (affine + ReLU) over the 2B rows, read as (M, 2B,
   sub_dim) segments,
3. squared distances ``|s|^2 - 2 s.c + |c|^2`` to every codeword, and per
   segment a Gumbel-softmax mixture over codewords (fresh noise per view)
   which stands in for the stochastic hard assignment,
4. a cosine contrastive loss (NT-Xent) over the 2B mixtures, where the
   positive pair's similarity is shared by both views' terms,
5. minus ``mi_weight`` times the sum over codebooks of
   ``H(usage marginal) - alpha * H(assignment | document)``, computed
   from the noise-free assignment probabilities of all 2B rows.

:func:`loss_and_gradients` differentiates this composition by hand, in
reverse and batched like the forward.  The contrastive softmax gives the
logits' gradient ``G``; the unit rows ``N`` get ``(G + G^T) N / tau_cl``,
and each mixture gets that gradient minus its component along the row,
over the row's norm.  Then come the mixture weights and codewords, the
Gumbel-softmax Jacobian, the MI term through the plain softmax, the
squared distances, the segments and codewords, the ReLU and the affine
layer.  :func:`loss_values` runs the same forward without the backward.

:func:`expected_loss_oracle` enumerates every joint hard-assignment
outcome to compute the exact expected contrastive loss that the
Gumbel-softmax estimator approximates; the Monte-Carlo samplers draw
hard or soft estimates of the same quantity for convergence tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .encoder import DropoutConfig, EncoderParams, backward_batch, dropout_view, forward_batch
from .errors import (
    DimMismatchError,
    InvalidConfigError,
    NonPositiveTemperatureError,
    RowNotNormalizedError,
    TooLargeToEnumerateError,
    ZeroNormError,
)
from .quantizer import CodebookSet, gumbel_from_uniform, squared_distances_books, stable_softmax

ZERO_NORM_EPS = 1e-12
ENTROPY_LOG_EPS = 1e-12


@dataclass(frozen=True)
class LossConfig:
    """Hyper-parameters of the training objective."""

    tau_cl: float = 0.3
    tau_gumbel: float = 5.0
    alpha: float = 0.1
    mi_weight: float = 0.1
    p_drop: float = 0.3

    def __post_init__(self) -> None:
        if not self.tau_cl > 0:
            raise NonPositiveTemperatureError(f"tau_cl must be > 0, got {self.tau_cl}")
        if not self.tau_gumbel > 0:
            raise NonPositiveTemperatureError(
                f"tau_gumbel must be > 0, got {self.tau_gumbel}"
            )
        if self.alpha < 0 or self.mi_weight < 0:
            raise InvalidConfigError("alpha and mi_weight must be >= 0")
        if not 0.0 <= self.p_drop < 1.0:
            raise InvalidConfigError(f"p_drop must be in [0, 1), got {self.p_drop}")


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

    @property
    def batch_size(self) -> int:
        return self.view1.shape[0]


@dataclass
class MIStats:
    """Entropy decomposition of one codebook's assignment probabilities."""

    marginal: np.ndarray
    h_marginal: float
    h_conditional: float
    mi: float


@dataclass
class LossValues:
    total: float
    contrastive: float
    mi_per_book: np.ndarray


@dataclass
class ParamGrads:
    weight: np.ndarray
    bias: np.ndarray
    books: np.ndarray


def cosine_sim(h1: np.ndarray, h2: np.ndarray) -> float:
    """Cosine similarity; both vectors must have norm > 1e-12."""
    h1 = np.asarray(h1, dtype=np.float64)
    h2 = np.asarray(h2, dtype=np.float64)
    n1 = np.linalg.norm(h1)
    n2 = np.linalg.norm(h2)
    if n1 <= ZERO_NORM_EPS or n2 <= ZERO_NORM_EPS:
        raise ZeroNormError("cosine similarity undefined for (near-)zero vectors")
    return float(h1 @ h2 / (n1 * n2))


def _pair_masks(batch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(positive column per row, negative mask) for a 2B-row representation stack.

    Rows 0..B-1 are the first view, B..2B-1 the second.  Row r's positive
    column is its partner view of the same document; the negative mask
    is False on both views of the row's own document.
    """
    rows = np.arange(2 * batch_size)
    doc = rows % batch_size
    return (rows + batch_size) % (2 * batch_size), doc[:, None] != doc[None, :]


def _contrastive_forward(
    h_all: np.ndarray, tau_cl: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cosine contrastive loss of T instances of 2B representations.

    ``h_all`` has shape (T, 2B, D), first-view rows then second-view rows.
    Returns the (T,) losses, the unit rows, the (T, 2B, 1) row norms and
    each row's softmax weights over its positive and negative columns,
    (T, 2B, 2B) and zero elsewhere.
    """
    n_rows = h_all.shape[1]
    batch_size = n_rows // 2
    norm2 = (h_all * h_all).sum(axis=2, keepdims=True)
    if np.any(norm2 <= ZERO_NORM_EPS**2):
        raise ZeroNormError("contrastive loss undefined for (near-)zero representations")
    norm = np.sqrt(norm2)
    normed = h_all / norm
    logits = (normed @ normed.transpose(0, 2, 1)) * (1.0 / tau_cl)
    pos_col, neg_mask = _pair_masks(batch_size)
    rows = np.arange(n_rows)
    pos = logits[:, rows, pos_col]
    # shift by each row's largest allowed logit; 1/tau_cl would underflow
    shift = np.maximum(pos, logits.max(axis=2, where=neg_mask, initial=-np.inf))
    weights = np.exp(logits - shift[:, :, None], out=np.zeros_like(logits), where=neg_mask)
    e_pos = np.exp(pos - shift)
    denom = e_pos + weights.sum(axis=2)
    log_ratio = pos - (np.log(denom) + shift)
    weights[:, rows, pos_col] = e_pos
    weights /= denom[:, :, None]
    return log_ratio.sum(axis=1) * (-1.0 / batch_size), normed, norm, weights


def _contrastive_losses(h_all: np.ndarray, tau_cl: float) -> np.ndarray:
    """(T,) contrastive losses of a (T, 2B, D) stack of instances."""
    if not tau_cl > 0:
        raise NonPositiveTemperatureError(f"tau_cl must be > 0, got {tau_cl}")
    return _contrastive_forward(np.asarray(h_all, dtype=np.float64), tau_cl)[0]


def contrastive_loss(views: BatchViews, tau_cl: float) -> float:
    """Two-view contrastive loss over a batch of codeword mixtures."""
    stacked = np.concatenate([views.view1, views.view2], axis=0)[None]
    return float(_contrastive_losses(stacked, tau_cl)[0])


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


def _slot_probs(refined1: np.ndarray, refined2: np.ndarray, books: CodebookSet) -> np.ndarray:
    """Noise-free assignment probabilities per (view, doc, book): (2,B,M,K)."""
    return stable_softmax(-_slot_sqdists(refined1, refined2, books))


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
    probs = _slot_probs(refined1, refined2, books)
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
    losses = _contrastive_losses(_stack_hard_codes(codes, books), tau_cl)
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
    return _contrastive_losses(_stack_hard_codes(codes, books), tau_cl)


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
    temperature (the quantity the trainer's single-sample estimate uses)."""
    if not tau_gumbel > 0:
        raise NonPositiveTemperatureError(f"tau_gumbel must be > 0, got {tau_gumbel}")
    d2 = _slot_sqdists(refined1, refined2, books)
    noise = gumbel_from_uniform(rng.spawn(seed).random((n_samples,) + d2.shape))
    logits = -(d2[None] + noise) / tau_gumbel
    logits -= logits.max(axis=-1, keepdims=True)
    soft = np.exp(logits)
    soft /= soft.sum(axis=-1, keepdims=True)
    h = np.einsum("tibmk,mkd->tibmd", soft, books.books.astype(np.float64))
    return _contrastive_losses(h.reshape(n_samples, -1, books.dim), tau_cl)


# --- the training objective and its closed-form gradient ------------------

@dataclass
class _ForwardPass:
    """One mini-batch's loss values and the intermediates its backward reads.

    Rows are the 2B inputs, first views then second views; per-book arrays
    are (M, 2B, ...)."""

    values: LossValues
    inputs: np.ndarray     # (2B, d_in) dropout views
    refined: np.ndarray    # (2B, D) encoder outputs
    segments: np.ndarray   # (M, 2B, sub) view of ``refined``
    codewords: np.ndarray  # (M, K, sub) float64 books
    soft: np.ndarray       # (M, 2B, K) Gumbel-softmax weights
    probs: np.ndarray      # (M, 2B, K) noise-free assignment probabilities
    marginal: np.ndarray   # (M, K) mean of ``probs`` over the rows
    log_marginal: np.ndarray  # (M, K) log of the marginal, clamped at ENTROPY_LOG_EPS
    log_probs: np.ndarray  # (M, 2B, K) log of ``probs``, clamped likewise
    normed: np.ndarray     # (2B, D) unit-norm mixtures
    norm: np.ndarray       # (2B, 1) mixture norms
    weights: np.ndarray    # (2B, 2B) softmax of each row over its positive and negatives


def _forward(
    params: EncoderParams, books: CodebookSet, batch: np.ndarray, cfg: LossConfig, seed: int
) -> _ForwardPass:
    data = np.asarray(getattr(batch, "values", batch), dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 1:
        raise DimMismatchError("batch must be a non-empty 2-D array")
    if data.shape[1] != params.d_in:
        raise DimMismatchError(
            f"batch width {data.shape[1]} != encoder input width {params.d_in}"
        )
    if params.d_out != books.dim:
        raise DimMismatchError(
            f"encoder output width {params.d_out} != codebooks' total width {books.dim}"
        )
    batch_size, n_rows = data.shape[0], 2 * data.shape[0]
    n_books, n_words, sub = books.books.shape

    seeds = [rng.derive_seed(seed, s) for s in range(4)]
    inputs = np.concatenate(
        [dropout_view(data, DropoutConfig(cfg.p_drop, seeds[i])) for i in range(2)]
    )
    gumbel = np.concatenate([
        gumbel_from_uniform(rng.spawn(seeds[2 + i]).random((batch_size, n_books, n_words)))
        for i in range(2)
    ]).transpose(1, 0, 2)

    refined = forward_batch(params, inputs)
    segments = refined.reshape(n_rows, n_books, sub).transpose(1, 0, 2)
    codewords = books.books.astype(np.float64)
    d2 = squared_distances_books(refined, codewords)
    soft = stable_softmax((d2 + gumbel) * (-1.0 / cfg.tau_gumbel))
    probs = stable_softmax(-d2)
    mixtures = (soft @ codewords).transpose(1, 0, 2).reshape(n_rows, books.dim)
    losses, normed, norm, weights = _contrastive_forward(mixtures[None], cfg.tau_cl)

    marginal = probs.sum(axis=1) * (1.0 / n_rows)
    log_marginal = np.log(np.maximum(marginal, ENTROPY_LOG_EPS))
    log_probs = np.log(np.maximum(probs, ENTROPY_LOG_EPS))
    h_marginal = -(marginal * log_marginal).sum(axis=1)
    h_conditional = (probs * log_probs).reshape(n_books, -1).sum(axis=1) * (-1.0 / n_rows)
    mi_per_book = h_marginal - cfg.alpha * h_conditional
    contrastive = losses[0]
    values = LossValues(
        total=float(contrastive + (-cfg.mi_weight) * np.add.accumulate(mi_per_book)[-1]),
        contrastive=float(contrastive),
        mi_per_book=mi_per_book,
    )
    return _ForwardPass(
        values, inputs, refined, segments, codewords, soft, probs, marginal, log_marginal,
        log_probs, normed[0], norm[0], weights[0],
    )


def loss_values(
    params: EncoderParams,
    books: CodebookSet,
    batch: np.ndarray,
    cfg: LossConfig,
    seed: int,
) -> LossValues:
    """The loss values of :func:`loss_and_gradients`, bit for bit, without
    the backward pass."""
    return _forward(params, books, batch, cfg, seed).values


def loss_and_gradients(
    params: EncoderParams,
    books: CodebookSet,
    batch: np.ndarray,
    cfg: LossConfig,
    seed: int,
) -> tuple[LossValues, ParamGrads]:
    """Evaluate the full objective on one mini-batch and differentiate it.

    Runs dropout views -> encoder -> per-view Gumbel-softmax mixtures ->
    contrastive loss, plus the MI term on the noise-free assignment
    probabilities of both views, and returns exact gradients with respect
    to the encoder weights, bias and every codeword.  All noise (two
    dropout masks, two Gumbel blocks) is derived from ``seed``, so equal
    seeds give bit-identical results.
    """
    fwd = _forward(params, books, batch, cfg, seed)
    n_rows = fwd.inputs.shape[0]
    n_books, _, sub = fwd.codewords.shape
    soft, probs, codewords, segments = fwd.soft, fwd.probs, fwd.codewords, fwd.segments

    # contrastive loss -> logits -> unit rows -> mixtures
    batch_size = n_rows // 2
    pos_col, _ = _pair_masks(batch_size)
    grad_logits = fwd.weights
    grad_logits[np.arange(n_rows), pos_col] -= 1.0
    grad_logits *= 1.0 / batch_size
    grad_normed = (grad_logits + grad_logits.T) @ fwd.normed * (1.0 / cfg.tau_cl)
    radial = (fwd.normed * grad_normed).sum(axis=1, keepdims=True)
    grad_mix = ((grad_normed - fwd.normed * radial) / fwd.norm).reshape(n_rows, n_books, sub)
    grad_mix = grad_mix.transpose(1, 0, 2)
    grad_books = soft.transpose(0, 2, 1) @ grad_mix
    grad_soft = grad_mix @ codewords.transpose(0, 2, 1)

    # Gumbel softmax, and the MI term through the plain softmax, into d2
    grad_d2 = soft * (grad_soft - (soft * grad_soft).sum(axis=2, keepdims=True))
    grad_d2 *= -1.0 / cfg.tau_gumbel
    grad_marginal = fwd.log_marginal + (fwd.marginal > ENTROPY_LOG_EPS)
    grad_rows = fwd.log_probs + (probs > ENTROPY_LOG_EPS)
    grad_probs = (cfg.alpha * grad_rows - grad_marginal[:, None, :]) * (-cfg.mi_weight / n_rows)
    grad_d2 -= probs * (grad_probs - (probs * grad_probs).sum(axis=2, keepdims=True))

    # d2 = |s|^2 - 2 s.c + |c|^2 -> segments and codewords -> encoder
    grad_seg = 2.0 * (segments * grad_d2.sum(axis=2, keepdims=True) - grad_d2 @ codewords)
    grad_books += 2.0 * (
        codewords * grad_d2.sum(axis=1)[:, :, None] - grad_d2.transpose(0, 2, 1) @ segments
    )
    grad_refined = grad_seg.transpose(1, 0, 2).reshape(n_rows, n_books * sub)
    grad_weight, grad_bias = backward_batch(fwd.inputs, fwd.refined, grad_refined)
    return fwd.values, ParamGrads(weight=grad_weight, bias=grad_bias, books=grad_books)
