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
layer.

The noise of step 1 (two dropout masks, two Gumbel blocks) reads no
parameter: :func:`draw_noise` makes it from the batch and the step seed
alone, so a training loop can draw the next step's noise while this one
runs and hand it to :func:`loss_and_gradients` as ``noise``.  Steps 2-5
and the backward write their large arrays into a :class:`StepWorkspace`,
which a loop keeps from step to step.  The contrastive softmax drops
each row's own and partner columns by setting them to ``-inf`` before
its max and exp, which gives the bits of a masked max and exp.

The step's three phases run in row pieces on the CPUs that BLAS leaves
idle (:func:`~micpq.quantizer.split_rows`; README "Training" gives the
phases and the piece sizes).  A row's bits do not depend on the split.
Under default threading the step starts no thread; a split step without
a ``pool`` starts its own, and every one has ended when it returns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .encoder import DropoutConfig, EncoderParams, backward_batch, dropout_view, forward_batch
from .errors import (
    DimMismatchError,
    InvalidConfigError,
    NonPositiveTemperatureError,
    ZeroNormError,
)
from .quantizer import (
    CodebookSet,
    gumbel_from_uniform,
    split_rows,
    squared_distances_books,
    stable_softmax,
)

ZERO_NORM_EPS = 1e-12
ENTROPY_LOG_EPS = 1e-12
# numpy takes N @ N^T with syrk; its row pieces, taken with gemm, keep
# syrk's bits only at row counts that are a multiple of this
SYRK_PIECE_ALIGN = 8


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
class LossValues:
    total: float
    contrastive: float
    mi_per_book: np.ndarray


@dataclass
class ParamGrads:
    weight: np.ndarray
    bias: np.ndarray
    books: np.ndarray


def _partner_columns(batch_size: int) -> np.ndarray:
    """Each row's positive column in a 2B-row representation stack.

    Rows 0..B-1 are the first view, B..2B-1 the second; row r's positive
    is its partner view of the same document."""
    return (np.arange(2 * batch_size) + batch_size) % (2 * batch_size)


def _unit_rows(h: np.ndarray, normed: np.ndarray, norm: np.ndarray) -> None:
    """Write the rows of ``h`` (..., D) over their norms to ``normed`` and
    the norms to ``norm`` (..., 1)."""
    np.multiply(h, h, out=normed)
    norm2 = normed.sum(axis=-1, keepdims=True)
    if np.any(norm2 <= ZERO_NORM_EPS**2):
        raise ZeroNormError("contrastive loss undefined for (near-)zero representations")
    np.sqrt(norm2, out=norm)
    np.divide(h, norm, out=normed)


def _softmax_rows(normed, tau_cl: float, logits, log_ratio, start: int, stop: int) -> None:
    """Rows ``start:stop`` of the contrastive softmax of T instances of 2B
    unit rows ``normed`` (T, 2B, D): each row's weights over its positive
    and negative columns, zero elsewhere, in ``logits`` (T, 2B, 2B), and
    its log ratio of positive to denominator in ``log_ratio`` (T, 2B)."""
    batch_size = normed.shape[1] // 2
    np.matmul(normed[:, start:stop], normed.transpose(0, 2, 1), out=logits[:, start:stop])
    block = logits[:, start:stop]
    block *= 1.0 / tau_cl
    rows, own = np.arange(stop - start), np.arange(start, stop)
    pos_col = _partner_columns(batch_size)[start:stop]
    pos = block[:, rows, pos_col]
    # a row's own and partner columns leave the negatives' max and sum
    block[:, rows, own] = -np.inf
    block[:, rows, pos_col] = -np.inf
    # shift by each row's largest allowed logit; 1/tau_cl would underflow
    shift = np.maximum(pos, block.max(axis=2))
    block -= shift[:, :, None]
    weights = np.exp(block, out=block)
    e_pos = np.exp(pos - shift)
    denom = e_pos + weights.sum(axis=2)
    log_ratio[:, start:stop] = pos - (np.log(denom) + shift)
    weights[:, rows, pos_col] = e_pos
    weights /= denom[:, :, None]


class StepWorkspace:
    """The float64 arrays of one training step on ``batch_size`` documents.

    :func:`loss_and_gradients` writes its forward and backward arrays here
    instead of allocating them, so a training loop that keeps one
    workspace per batch size maps no new memory step after step.  The
    returned weight and bias gradients live here too, until the next step.  A
    workspace built with ``base``, one for at least as many documents,
    takes its arrays from the front of ``base``'s memory."""

    def __init__(
        self,
        batch_size: int,
        d_in: int,
        n_books: int,
        n_words: int,
        sub_dim: int,
        base: StepWorkspace | None = None,
    ) -> None:
        n_rows, d_out = 2 * batch_size, n_books * sub_dim
        per_book = (n_books, n_rows, n_words)
        shapes = {
            "refined": (n_rows, d_out),
            "mixtures": (n_rows, d_out),
            "normed": (n_rows, d_out),
            "grad": (n_rows, d_out),
            "logits": (1, n_rows, n_rows),
            "sym": (n_rows, max(n_rows, d_out)),  # G + G^T rows, then segment products
            "norm": (n_rows, 1),  # the mixtures' norms
            "log_ratio": (1, n_rows),
            "d2": per_book,  # the backward's gradient of the Gumbel-softmax weights, too
            "soft": per_book,
            "probs": per_book,
            "log_probs": per_book,
            "grad_d2": per_book,
            "grad_weight": (d_out, d_in),
            "grad_bias": (d_out,),
            "weight_t": (d_in, d_out),  # the encoder weight's float64 transpose
        }
        if base is not None and base.batch_size < batch_size:
            raise DimMismatchError(
                f"a workspace for {base.batch_size} documents cannot hold {batch_size}"
            )
        self.batch_size = batch_size
        self._memory = (
            base._memory if base is not None
            else {name: np.empty(math.prod(shape)) for name, shape in shapes.items()}
        )
        for name, shape in shapes.items():
            setattr(self, name, self._memory[name][:math.prod(shape)].reshape(shape))


def draw_noise(
    batch: np.ndarray, cfg: LossConfig, seed: int, inputs: np.ndarray, gumbel: np.ndarray
) -> None:
    """Draw one step's noise from ``seed``: the two inverted-dropout views
    of the (B, d_in) ``batch``, stacked into the (2B, d_in) ``inputs``, and
    the Gumbel noise of both views into the (M, 2B, K) ``gumbel``, whose
    (2B, M, K) transpose must be C-contiguous.  The noise reads no model
    parameter, so it can be drawn while another step runs."""
    batch_size = batch.shape[0]
    seeds = [rng.derive_seed(seed, s) for s in range(4)]
    by_row = gumbel.transpose(1, 0, 2)
    for i in range(2):
        view = slice(i * batch_size, (i + 1) * batch_size)
        dropout_view(batch, DropoutConfig(cfg.p_drop, seeds[i]), out=inputs[view])
        rng.spawn(seeds[2 + i]).random(out=by_row[view])
        gumbel_from_uniform(by_row[view], out=by_row[view])


def _step(
    params: EncoderParams,
    books: CodebookSet,
    batch: np.ndarray,
    cfg: LossConfig,
    seed: int,
    noise: tuple[np.ndarray, np.ndarray] | None,
    ws: StepWorkspace | None,
    pool,
    backward: bool,
) -> tuple[LossValues, ParamGrads | None]:
    """One mini-batch's loss values and, with ``backward``, gradients.  Rows
    are the 2B inputs, first views then second views; per-book arrays are (M, 2B, ...)."""
    data = np.asarray(getattr(batch, "values", batch))
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
    if ws is None:
        ws = StepWorkspace(batch_size, params.d_in, n_books, n_words, sub)
    elif ws.batch_size != batch_size:
        raise DimMismatchError(
            f"workspace for {ws.batch_size} documents given a batch of {batch_size}"
        )
    if noise is None:
        by_row = np.empty((n_rows, n_books, n_words))
        noise = np.empty((n_rows, params.d_in)), by_row.transpose(1, 0, 2)
        draw_noise(data, cfg, seed, *noise)
    inputs, gumbel = noise

    weight_t = None
    if params.weight.dtype != ws.weight_t.dtype:  # cast once, not in every matmul
        weight_t = ws.weight_t
        np.copyto(weight_t, params.weight.T)
    codewords = books.books.astype(np.float64)
    mixtures = ws.mixtures.reshape(n_rows, n_books, sub).transpose(1, 0, 2)

    def forward_rows(start, stop):
        rows = slice(start, stop)
        refined = forward_batch(params, inputs[rows], out=ws.refined[rows], weight_t=weight_t)
        d2 = squared_distances_books(refined, codewords, out=ws.d2[:, rows],
                                     scratch=ws.normed[rows])
        soft = np.add(d2, gumbel[:, rows], out=ws.soft[:, rows])
        soft *= -1.0 / cfg.tau_gumbel
        stable_softmax(soft, out=soft)
        probs = stable_softmax(np.negative(d2, out=ws.probs[:, rows]), out=ws.probs[:, rows])
        np.matmul(soft, codewords, out=mixtures[:, rows])
        _unit_rows(ws.mixtures[rows], ws.normed[rows], ws.norm[rows])
        log_probs = ws.log_probs[:, rows]
        np.log(np.maximum(probs, ENTROPY_LOG_EPS, out=log_probs), out=log_probs)
        np.multiply(probs, log_probs, out=ws.grad_d2[:, rows])  # the entropy terms

    split_rows(forward_rows, n_rows, pool)
    marginal = ws.probs.sum(axis=1) * (1.0 / n_rows)
    log_marginal = np.log(np.maximum(marginal, ENTROPY_LOG_EPS))
    h_marginal = -(marginal * log_marginal).sum(axis=1)
    h_conditional = ws.grad_d2.reshape(n_books, -1).sum(axis=1) * (-1.0 / n_rows)
    mi_per_book = h_marginal - cfg.alpha * h_conditional

    partner = _partner_columns(batch_size)

    def contrastive_rows(start, stop):
        _softmax_rows(ws.normed[None], cfg.tau_cl, ws.logits, ws.log_ratio, start, stop)
        grad_logits = ws.logits[0, start:stop]  # the weights become the logits' gradient
        grad_logits[np.arange(stop - start), partner[start:stop]] -= 1.0
        grad_logits *= 1.0 / batch_size

    if n_rows % SYRK_PIECE_ALIGN == 0:
        split_rows(contrastive_rows, n_rows, pool)
    else:  # one call, which numpy takes with syrk
        contrastive_rows(0, n_rows)
    contrastive = (ws.log_ratio.sum(axis=1) * (-1.0 / batch_size))[0]
    values = LossValues(
        total=float(contrastive + (-cfg.mi_weight) * np.add.accumulate(mi_per_book)[-1]),
        contrastive=float(contrastive),
        mi_per_book=mi_per_book,
    )
    if not backward:
        return values, None

    soft, probs, normed, grad_logits = ws.soft, ws.probs, ws.normed, ws.logits[0]
    segments = ws.refined.reshape(n_rows, n_books, sub).transpose(1, 0, 2)
    grad_mix = ws.grad.reshape(n_rows, n_books, sub).transpose(1, 0, 2)
    grad_marginal = log_marginal + (marginal > ENTROPY_LOG_EPS)

    def backward_rows(start, stop):
        rows = slice(start, stop)
        # logits -> unit rows -> mixtures, kept in grad for the codewords' gradient
        sym = np.add(grad_logits[rows], grad_logits.T[rows], out=ws.sym[rows, :n_rows])
        grad_normed = np.matmul(sym, normed, out=ws.grad[rows])
        grad_normed *= 1.0 / cfg.tau_cl
        scratch = np.multiply(normed[rows], grad_normed, out=ws.mixtures[rows])
        radial = scratch.sum(axis=1, keepdims=True)
        np.subtract(grad_normed, np.multiply(normed[rows], radial, out=scratch), out=grad_normed)
        grad_normed /= ws.norm[rows]
        grad_soft = np.matmul(grad_mix[:, rows], codewords.transpose(0, 2, 1), out=ws.d2[:, rows])

        # Gumbel softmax, and the MI term through the plain softmax, into d2
        soft_rows, probs_rows = soft[:, rows], probs[:, rows]
        grad_d2 = np.multiply(soft_rows, grad_soft, out=ws.grad_d2[:, rows])
        grad_soft -= grad_d2.sum(axis=2, keepdims=True)
        np.multiply(soft_rows, grad_soft, out=grad_d2)
        grad_d2 *= -1.0 / cfg.tau_gumbel
        grad_probs = ws.log_probs[:, rows]  # the gradient of the row entropies, then of probs
        grad_probs += probs_rows > ENTROPY_LOG_EPS
        grad_probs *= cfg.alpha
        grad_probs -= grad_marginal[:, None, :]
        grad_probs *= -cfg.mi_weight / n_rows
        scratch = np.multiply(probs_rows, grad_probs, out=ws.d2[:, rows])
        grad_probs -= scratch.sum(axis=2, keepdims=True)
        grad_d2 -= np.multiply(probs_rows, grad_probs, out=grad_probs)

        # d2 = |s|^2 - 2 s.c + |c|^2 -> segments, by row: over (M, n, sub) views it is slower
        shape = (stop - start, n_books, sub)
        np.matmul(grad_d2, codewords, out=mixtures[:, rows])
        seg = ws.mixtures[rows].reshape(shape)
        product = np.multiply(ws.refined[rows].reshape(shape), grad_d2.sum(axis=2).T[:, :, None],
                              out=ws.sym[rows, :n_books * sub].reshape(shape))
        np.subtract(product, seg, out=seg)
        seg *= 2.0

    split_rows(backward_rows, n_rows, pool)
    grad_d2 = ws.grad_d2
    grad_books = soft.transpose(0, 2, 1) @ grad_mix
    grad_books += 2.0 * (
        codewords * grad_d2.sum(axis=1)[:, :, None] - grad_d2.transpose(0, 2, 1) @ segments
    )

    def weight_rows(start, stop):
        ws.grad_bias[start:stop] = backward_batch(
            inputs, ws.refined[:, start:stop], ws.mixtures[:, start:stop],
            out=ws.grad_weight[start:stop],
        )[1]

    split_rows(weight_rows, ws.grad_weight.shape[0], pool)
    return values, ParamGrads(weight=ws.grad_weight, bias=ws.grad_bias, books=grad_books)


def loss_and_gradients(
    params: EncoderParams,
    books: CodebookSet,
    batch: np.ndarray,
    cfg: LossConfig,
    seed: int,
    *,
    noise: tuple[np.ndarray, np.ndarray] | None = None,
    workspace: StepWorkspace | None = None,
    pool=None,
) -> tuple[LossValues, ParamGrads]:
    """Evaluate the full objective on one mini-batch and differentiate it.

    Runs dropout views -> encoder -> per-view Gumbel-softmax mixtures ->
    contrastive loss, plus the MI term on the noise-free assignment
    probabilities of both views, and returns exact gradients with respect
    to the encoder weights, bias and every codeword.  All noise (two
    dropout masks, two Gumbel blocks) is derived from ``seed``, so equal
    seeds give bit-identical results.

    ``noise``, when given, is the ``(inputs, gumbel)`` pair that
    :func:`draw_noise` filled from ``batch`` and ``seed``, drawn ahead of
    time.  ``workspace`` holds the step's arrays; without one a fresh
    :class:`StepWorkspace` is built.  ``pool``, a thread pool, runs the
    row pieces of the step's three phases and of the weight gradient
    (:func:`~micpq.quantizer.split_rows`); without one, a call split into
    pieces makes its own threads.
    """
    return _step(params, books, batch, cfg, seed, noise, workspace, pool, True)
