"""Mini-batch training loop: Adam over the contrastive + MI objective.

Every stochastic choice (encoder init, codebook init, per-epoch shuffle,
per-step dropout masks and Gumbel noise) is derived from the single
config seed through the named streams in :mod:`micpq.rng`, so a training
run is a deterministic function of (config, data).

Checkpoint files carry magic ``MICPQCKP``: version u32 | d_in u32 |
d_out u32 | M u32 | K u32 | sub_dim u32 | step u64, followed by the
little-endian float32 arrays weight, bias, books and the Adam first and
second moments of each, in that order.  Parameters and moments are kept
in float32 in memory, so the round-trip is bit-exact.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import dataio, rng
from .dataio import EmbeddingFile, EmbeddingMatrix, atomic_write, check_file_size, read_header
from .encoder import EncoderParams, forward_batch, init_encoder
from .errors import DimMismatchError, InvalidConfigError, NonFiniteGradientError
from .objectives import (
    LossConfig,
    ParamGrads,
    StepWorkspace,
    draw_noise,
    loss_and_gradients,
)
from .quantizer import (
    MAX_CODEWORDS,
    PIECE_ROWS,
    SPLIT_UPDATE_SIZE,
    CodebookSet,
    bits_per_index,
    code_runs,
    encode_rows,
    encode_workers,
    init_codebooks,
    is_pow2,
    packed_code_nbytes,
    split_rows,
    unpack_runs,
)

# A file whose rows take at most this many bytes is read whole when
# training starts.  Streamed, the 1.0-1.5 MB splits of the 200k benchmark
# corpora (2% and 3% of 200,200 x 64) made ``micpq train`` about 7%
# slower, to save less memory than a step's workspace holds (10-12 MB at
# batch size 256).
HOLD_BYTES = 1 << 22
MAGIC_CHECKPOINT = b"MICPQCKP"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<IIIIIIQ")  # version, d_in, d_out, M, K, sub_dim, step
# Adam's decay rates and denominator guard: Kingma & Ba's defaults
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def default_gumbel_temperature(n_codebooks: int, n_codewords: int) -> float:
    """10 for 16-bit codes, 5 otherwise (also 5 when bits are undefined)."""
    if is_pow2(n_codewords) and n_codebooks * bits_per_index(n_codewords) == 16:
        return 10.0
    return 5.0


@dataclass(frozen=True)
class TrainConfig:
    n_codebooks: int
    n_codewords: int = 16
    sub_dim: int = 24
    learning_rate: float = 0.001
    batch_size: int = 256
    n_epochs: int = 100
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)
    checkpoint_path: str | None = None
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if self.n_codebooks < 1 or not 2 <= self.n_codewords <= MAX_CODEWORDS or self.sub_dim < 1:
            raise InvalidConfigError("need n_codebooks >= 1, n_codewords from 2 to "
                                     f"{MAX_CODEWORDS}, sub_dim >= 1")
        if not self.learning_rate > 0:
            raise InvalidConfigError("learning_rate must be > 0")
        if self.batch_size < 2 or self.n_epochs < 1:
            raise InvalidConfigError("need batch_size >= 2 and n_epochs >= 1")

    @property
    def d_out(self) -> int:
        return self.n_codebooks * self.sub_dim


@dataclass
class ModelState:
    """Encoder + codebooks plus their Adam moments and the step counter."""

    encoder: EncoderParams
    books: CodebookSet
    m_weight: np.ndarray
    v_weight: np.ndarray
    m_bias: np.ndarray
    v_bias: np.ndarray
    m_books: np.ndarray
    v_books: np.ndarray
    step: int = 0

    def __post_init__(self) -> None:
        """An encoder whose output width is not the books' total width, or a
        moment whose shape is not its parameter's, raises
        :class:`~micpq.errors.DimMismatchError`, and a step that is not an
        integer in [0, 2^64) :class:`InvalidConfigError`: no checkpoint
        could hold it."""
        if not isinstance(self.step, (int, np.integer)) or not 0 <= self.step < 1 << 64:
            raise InvalidConfigError(f"step must be an integer in [0, 2^64), got {self.step!r}")
        if self.encoder.d_out != self.books.dim:
            raise DimMismatchError(f"encoder output width {self.encoder.d_out} != the codebooks' "
                                   f"total width {self.books.dim}")
        arrays = dict(self._arrays())
        for name, moment in list(arrays.items())[3:]:  # m_weight, v_weight, ...
            if np.shape(moment) != arrays[name[2:]].shape:
                raise DimMismatchError(f"{name} of shape {np.shape(moment)} for a parameter "
                                       f"of shape {arrays[name[2:]].shape}")

    @property
    def sub_dim(self) -> int:
        return self.books.sub_dim

    def _arrays(self) -> list[tuple[str, np.ndarray]]:
        return [
            ("weight", self.encoder.weight),
            ("bias", self.encoder.bias),
            ("books", self.books.books),
            ("m_weight", self.m_weight),
            ("v_weight", self.v_weight),
            ("m_bias", self.m_bias),
            ("v_bias", self.v_bias),
            ("m_books", self.m_books),
            ("v_books", self.v_books),
        ]


@dataclass
class EpochRecord:
    epoch: int
    total_loss: float
    contrastive_loss: float
    mi_sum: float
    usage: np.ndarray  # (M, K) hard-assignment counts over the training data
    usage_entropy: float  # mean per-book entropy of the usage histogram, nats

    def format_line(self) -> str:
        usage = ";".join(",".join(str(c) for c in row) for row in self.usage)
        return (
            f"epoch={self.epoch} total={self.total_loss:.6f} "
            f"contrastive={self.contrastive_loss:.6f} mi_sum={self.mi_sum:.6f} "
            f"usage_entropy={self.usage_entropy:.6f} usage={usage}"
        )


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    def format_lines(self) -> list[str]:
        return [r.format_line() for r in self.records]

    def write(self, path) -> None:
        with atomic_write(path, text=True) as f:
            for line in self.format_lines():
                f.write(line + "\n")


def init_model(
    cfg: TrainConfig, warmup_batch: np.ndarray, codebook_init: str = "data"
) -> ModelState:
    """Build a fresh model.

    The encoder gets fan-scaled uniform weights; codebooks are sampled
    from the warmup batch's refined segments (``codebook_init="data"``,
    the default) or drawn from N(0, 0.1^2) (``"random"``, which is also
    the fallback when a book has fewer than K distinct warmup segments).
    """
    warmup = np.asarray(getattr(warmup_batch, "values", warmup_batch))
    if warmup.ndim != 2 or warmup.shape[0] < 1:
        raise InvalidConfigError("warmup batch must be a non-empty 2-D array")
    encoder = init_encoder(warmup.shape[1], cfg.d_out, cfg.seed)
    refined = forward_batch(encoder, warmup)
    books = init_codebooks(
        refined, cfg.n_codebooks, cfg.n_codewords, cfg.seed, strategy=codebook_init
    )
    return ModelState(
        encoder=encoder,
        books=books,
        m_weight=np.zeros_like(encoder.weight),
        v_weight=np.zeros_like(encoder.weight),
        m_bias=np.zeros_like(encoder.bias),
        v_bias=np.zeros_like(encoder.bias),
        m_books=np.zeros_like(books.books),
        v_books=np.zeros_like(books.books),
        step=0,
    )


def _adam_update(param, m, v, grad, lr, t, scratch):
    """Update ``param``, ``m`` and ``v`` in place; the arithmetic runs in
    float64 in three (3, >= param.size) ``scratch`` rows."""
    m64, v64, tmp = (row[:param.size].reshape(param.shape) for row in scratch)
    np.multiply(m, ADAM_BETA1, out=m64, dtype=np.float64)
    m64 += np.multiply(grad, 1.0 - ADAM_BETA1, out=tmp, dtype=np.float64)
    np.multiply(grad, 1.0 - ADAM_BETA2, out=tmp, dtype=np.float64)
    np.multiply(tmp, grad, out=tmp, dtype=np.float64)
    np.multiply(v, ADAM_BETA2, out=v64, dtype=np.float64)
    v64 += tmp
    m[...] = m64
    v[...] = v64
    m64 /= 1.0 - ADAM_BETA1**t  # m_hat
    v64 /= 1.0 - ADAM_BETA2**t  # v_hat
    np.sqrt(v64, out=v64)
    v64 += ADAM_EPS
    m64 *= lr
    m64 /= v64
    param[...] = np.subtract(param, m64, out=tmp, dtype=np.float64)


def adam_scratch(state: ModelState) -> np.ndarray:
    """Float64 scratch rows for :func:`adam_step` on ``state``'s parameters."""
    return np.empty((3, max(state.encoder.weight.size, state.books.books.size)))


def adam_step(
    state: ModelState,
    grads: ParamGrads,
    lr: float,
    *,
    scratch: np.ndarray | None = None,
    pool=None,
) -> ModelState:
    """One bias-corrected Adam update of encoder and codebooks, in place,
    with β1, β2 and ε from ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.

    ``scratch``, when given, is a float64 array of shape (3, n), n at
    least the largest parameter's size (:func:`adam_scratch`); the
    update's float64 arithmetic runs there instead of in fresh arrays.
    An encoder weight of at least ``quantizer.SPLIT_UPDATE_SIZE`` elements
    is updated in row pieces, each in its own columns of ``scratch``
    (:func:`~micpq.quantizer.split_rows` on ``pool``); the update is
    elementwise, so the bits do not depend on the pieces."""
    params = (
        ("weight", state.encoder.weight, state.m_weight, state.v_weight, grads.weight),
        ("bias", state.encoder.bias, state.m_bias, state.v_bias, grads.bias),
        ("books", state.books.books, state.m_books, state.v_books, grads.books),
    )
    for name, param, _, _, grad in params:
        if not np.all(np.isfinite(grad)):
            raise NonFiniteGradientError(
                f"non-finite gradient for {name} at step {state.step}"
            )
    for name, param, _, _, grad in params:
        if np.shape(grad) != param.shape:
            raise InvalidConfigError(
                f"{name} gradient of shape {np.shape(grad)} does not match the model's {param.shape}"
            )
    if scratch is None:
        scratch = adam_scratch(state)
    t = state.step + 1
    weight, m_weight, v_weight, grad_weight = params[0][1:]
    row = weight.shape[1]

    def weight_rows(start, stop):
        _adam_update(weight[start:stop], m_weight[start:stop], v_weight[start:stop],
                     grad_weight[start:stop], lr, t, scratch[:, start * row:stop * row])

    if weight.size >= SPLIT_UPDATE_SIZE:
        split_rows(weight_rows, len(weight), pool)
    else:  # a fan-out costs more than it saves
        weight_rows(0, len(weight))
    for _, param, m, v, grad in params[1:]:
        _adam_update(param, m, v, grad, lr, t, scratch)
    # revalidate: an update can overflow float32
    state.encoder = EncoderParams(state.encoder.weight, state.encoder.bias)
    state.books = CodebookSet(state.books.books)
    state.step = t
    return state


def usage_histogram(state: ModelState, data) -> np.ndarray:
    """(M, K) hard-assignment counts over a corpus, dropout disabled:
    an array, an :class:`~micpq.dataio.EmbeddingMatrix` or an
    :class:`~micpq.dataio.EmbeddingFile`, encoded by
    :func:`~micpq.quantizer.encode_rows` on up to W threads and counted
    from the (M, n) fields of its word planes."""
    planes = encode_rows(state.encoder, state.books.books, getattr(data, "values", data))
    n_books, n_words = state.books.n_codebooks, state.books.n_codewords
    runs = code_runs(planes, packed_code_nbytes(n_books, n_words))
    fields = unpack_runs(runs, n_books, n_words).T
    slots = fields + n_words * np.arange(n_books)[:, None]
    return np.bincount(slots.ravel(), minlength=n_books * n_words).reshape(n_books, n_words)


def usage_entropy(counts: np.ndarray) -> float:
    """Mean per-book entropy (nats) of usage histograms; 0*log(0) = 0."""
    counts = np.asarray(counts, dtype=np.float64)
    probs = counts / counts.sum(axis=1, keepdims=True)
    probs = np.maximum(probs, 1e-300)
    per_book = -(probs * np.log(probs) * (counts > 0)).sum(axis=1)
    return float(per_book.mean())


def _step_plan(cfg: TrainConfig, n_docs: int, first_perm: np.ndarray):
    """(epoch, step, batch rows, step seed) of every training step, in
    order.  Steps are counted across epochs; a trailing single document
    cannot form a contrastive batch and is skipped."""
    step = 0
    for epoch in range(cfg.n_epochs):
        perm = (
            first_perm
            if epoch == 0
            else rng.spawn(cfg.seed, rng.STREAM_SHUFFLE, epoch).permutation(n_docs)
        )
        for start in range(0, n_docs, cfg.batch_size):
            rows = perm[start:start + cfg.batch_size]
            if rows.shape[0] >= 2:
                yield epoch, step, rows, rng.derive_seed(cfg.seed, rng.STREAM_STEP, step)
                step += 1


def train(
    cfg: TrainConfig,
    data: EmbeddingMatrix | EmbeddingFile,
    on_epoch=None,
) -> tuple[ModelState, TrainLog]:
    """Run the full training loop and return the model and its log,
    deterministic given (cfg, data) and bit for bit the serial loop's at
    any thread count (README "Training" gives the mechanism).

    ``data`` is a matrix in memory or an
    :class:`~micpq.dataio.EmbeddingFile`, read whole when it holds at most
    ``HOLD_BYTES`` of rows, else streamed; every source gives the same
    bits.  ``on_epoch``, when given, is called with each finished
    EpochRecord.  Fewer than 2 documents raise :class:`InvalidConfigError`;
    a non-finite value raises its reader's
    :class:`~micpq.errors.NonFiniteValueError`, for the lowest bad row,
    before the first step; a non-finite gradient raises
    :class:`NonFiniteGradientError`.  One pool of max(1, W - 1) threads
    is started, W from :func:`~micpq.quantizer.encode_workers` (1 under
    default threading), and every thread ends before ``train`` returns or
    raises.
    """
    from concurrent.futures import ThreadPoolExecutor

    n_docs, d_in = data.n_docs, data.dim
    if n_docs < 2:
        raise InvalidConfigError("training needs at least 2 documents")
    if isinstance(data, EmbeddingFile) and n_docs * d_in * data.dtype.itemsize <= HOLD_BYTES:
        data = dataio.read_embeddings(data.path, data.rows)
    capacity = min(cfg.batch_size, n_docs)
    slots = [
        (
            np.empty((capacity, d_in), np.float32),
            np.empty((2 * capacity, d_in)),
            np.empty((2 * capacity, cfg.n_codebooks, cfg.n_codewords)),
        )
        for _ in range(2)
    ]
    in_file = isinstance(data, EmbeddingFile)

    def check():  # every row of the file read once, and checked, before the first step
        for start in range(0, n_docs, capacity):
            data.read(start, start + capacity, out=slots[1][0][:min(capacity, n_docs - start)])

    def gather(rows, out):
        if in_file:
            return data.take(rows).read(out=out)
        return np.take(data.values, rows, axis=0, out=out, mode="clip")

    def prepare(step, rows, seed):
        gathered, inputs, by_row = slots[step % 2]
        n = rows.shape[0]
        batch = gather(rows, gathered[:n])
        noise = inputs[:2 * n], by_row[:2 * n].transpose(1, 0, 2)
        draw_noise(batch, cfg.loss, seed, *noise)
        return batch, noise

    full = StepWorkspace(capacity, d_in, cfg.n_codebooks, cfg.n_codewords, cfg.sub_dim)
    workspaces = {capacity: full}  # the last batch of an epoch may be smaller
    log = TrainLog()
    sums, n_steps = np.zeros(3), 0
    first_perm = rng.spawn(cfg.seed, rng.STREAM_SHUFFLE, 0).permutation(n_docs)
    plan = _step_plan(cfg, n_docs, first_perm)
    # the most pieces any split call of a step takes; the calling thread runs one
    n_workers = encode_workers(max(2 * capacity, cfg.d_out) // PIECE_ROWS)
    with ThreadPoolExecutor(max_workers=max(1, n_workers - 1)) as pool:
        checked = pool.submit(check) if in_file else None
        try:  # the warm-up batch is step 0's, read into its buffer
            state = init_model(cfg, gather(first_perm[:capacity], slots[0][0]))
        finally:  # the check's error, naming the lowest bad row, comes first
            if checked is not None:
                checked.result()
        scratch = adam_scratch(state)
        following = next(plan)
        pending = pool.submit(prepare, *following[1:])
        while following is not None:
            epoch, step, _, step_seed = following
            batch, noise = pending.result()
            following = next(plan, None)
            if following is not None:
                pending = pool.submit(prepare, *following[1:])
            n = batch.shape[0]
            if n not in workspaces:
                workspaces[n] = StepWorkspace(
                    n, d_in, cfg.n_codebooks, cfg.n_codewords, cfg.sub_dim, base=full
                )
            try:
                step_values, grads = loss_and_gradients(
                    state.encoder, state.books, batch, cfg.loss, step_seed,
                    noise=noise, workspace=workspaces[n], pool=pool,
                )
                adam_step(state, grads, cfg.learning_rate, scratch=scratch, pool=pool)
            except NonFiniteGradientError as err:
                raise NonFiniteGradientError(f"epoch {epoch}, step {step}: {err}") from err
            sums += (step_values.total, step_values.contrastive, step_values.mi_per_book.sum())
            n_steps += 1
            if following is not None and following[0] == epoch:
                continue

            counts = usage_histogram(state, data)
            record = EpochRecord(
                epoch=epoch,
                total_loss=float(sums[0] / n_steps),
                contrastive_loss=float(sums[1] / n_steps),
                mi_sum=float(sums[2] / n_steps),
                usage=counts,
                usage_entropy=usage_entropy(counts),
            )
            sums, n_steps = np.zeros(3), 0
            log.records.append(record)
            if on_epoch is not None:
                on_epoch(record)
            if (
                cfg.checkpoint_path
                and cfg.checkpoint_every > 0
                and (epoch + 1) % cfg.checkpoint_every == 0
            ):
                save_checkpoint(state, cfg.checkpoint_path)

    if cfg.checkpoint_path:
        save_checkpoint(state, cfg.checkpoint_path)
    return state, log


def save_checkpoint(state: ModelState, path) -> None:
    """Write the model, Adam moments and step counter; bit-exact round-trip."""
    header = _HEADER.pack(
        CHECKPOINT_VERSION,
        state.encoder.d_in,
        state.encoder.d_out,
        state.books.n_codebooks,
        state.books.n_codewords,
        state.books.sub_dim,
        state.step,
    )
    with atomic_write(path) as f:
        f.write(MAGIC_CHECKPOINT)
        f.write(header)
        for _, arr in state._arrays():
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path) -> ModelState:
    """Read a checkpoint written by :func:`save_checkpoint`.  A header whose
    dimensions are zero, disagree or do not match the file's size is
    rejected with a :class:`~micpq.errors.MicpqError` before any payload
    is read."""
    with open(path, "rb") as f:
        d_in, d_out, n_books, n_words, sub_dim, step = read_header(
            f, MAGIC_CHECKPOINT, _HEADER, CHECKPOINT_VERSION
        )
        if min(d_in, d_out, n_books, sub_dim) < 1 or n_words < 2:
            raise InvalidConfigError(
                f"checkpoint dimensions d_in={d_in}, d_out={d_out}, M={n_books}, "
                f"K={n_words}, sub_dim={sub_dim} describe no model"
            )
        if d_out != n_books * sub_dim:
            raise InvalidConfigError(
                f"inconsistent checkpoint dimensions: d_out={d_out}, M*sub_dim={n_books * sub_dim}"
            )
        w, b, c = (d_out, d_in), (d_out,), (n_books, n_words, sub_dim)
        shapes = [w, b, c, w, w, b, b, c, c]
        check_file_size(f, 8 + _HEADER.size + 4 * sum(math.prod(shape) for shape in shapes))
        arrays = [np.fromfile(f, "<f4", math.prod(shape)).reshape(shape) for shape in shapes]
    weight, bias, books, mw, vw, mb, vb, mc, vc = arrays
    return ModelState(
        encoder=EncoderParams(weight, bias),
        books=CodebookSet(books),
        m_weight=mw,
        v_weight=vw,
        m_bias=mb,
        v_bias=vb,
        m_books=mc,
        v_books=vc,
        step=step,
    )
