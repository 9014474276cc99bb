"""The learnable refining map: one affine layer with ReLU.

Input embeddings of width ``d_in`` are mapped to nonnegative refined
vectors of width ``d_out = n_codebooks * sub_dim``, which downstream code
slices into equal-length segments, one per codebook.  Two stochastic
views of a document are produced by applying two independent inverted
dropout masks to the input embedding before the affine layer.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import DimMismatchError, InvalidConfigError, NonFiniteInputError


@dataclass
class EncoderParams:
    """Affine layer weights: ``relu(weight @ z + bias)``."""

    weight: np.ndarray  # (d_out, d_in)
    bias: np.ndarray    # (d_out,)

    def __post_init__(self) -> None:
        self.weight = np.ascontiguousarray(self.weight)
        self.bias = np.ascontiguousarray(self.bias)
        for name, array in (("weight", self.weight), ("bias", self.bias)):
            if array.dtype.kind not in "iuf":
                raise InvalidConfigError(f"{name} must be integer or floating, got {array.dtype}")
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise InvalidConfigError("weight must be 2-D and bias 1-D")
        if self.bias.shape[0] != self.weight.shape[0]:
            raise DimMismatchError(
                f"bias length {self.bias.shape[0]} != weight rows {self.weight.shape[0]}"
            )
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise NonFiniteInputError("encoder parameters must be finite")

    @property
    def d_in(self) -> int:
        return self.weight.shape[1]

    @property
    def d_out(self) -> int:
        return self.weight.shape[0]


@dataclass(frozen=True)
class DropoutConfig:
    p_drop: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_drop < 1.0:
            raise InvalidConfigError(f"p_drop must be in [0, 1), got {self.p_drop}")


def forward(params: EncoderParams, z: np.ndarray) -> np.ndarray:
    """Refine one embedding: the (d_out,) vector ``max(0, W z + b)``."""
    z = np.asarray(z)
    if z.ndim != 1 or z.shape[0] != params.d_in:
        raise DimMismatchError(f"expected input of length {params.d_in}, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise NonFiniteInputError("encoder input must be finite")
    return forward_batch(params, z[None])[0]


def forward_batch(
    params: EncoderParams,
    batch: np.ndarray,
    out: np.ndarray | None = None,
    weight_t: np.ndarray | None = None,
) -> np.ndarray:
    """Row-wise refinement of a batch, written to ``out`` when given.  Row
    i depends only on input row i up to BLAS rounding, which depends on
    the shape of the batch: one row refined alone can differ in its last
    bits from the same row inside a batch.

    ``weight_t``, when given, is ``params.weight.T`` as a C-contiguous
    array in the batch's dtype, read in place of the weight.  numpy casts
    a weight of another dtype to that layout inside the matmul, so the
    bits are those of the call without it; a caller that keeps one spares
    every call the cast."""
    batch = np.asarray(batch)
    if batch.ndim != 2 or batch.shape[1] != params.d_in:
        raise DimMismatchError(
            f"expected batch of width {params.d_in}, got shape {batch.shape}"
        )
    # in place: the peak holds one (n, d_out) array, not two
    out = np.matmul(batch, params.weight.T if weight_t is None else weight_t, out=out)
    out = out.astype(np.result_type(out, params.bias), copy=False)
    out += params.bias
    return np.maximum(out, 0, out=out)


def backward_batch(
    batch: np.ndarray,
    refined: np.ndarray,
    grad_refined: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of a scalar with respect to weight and bias, given its
    gradient with respect to ``refined = forward_batch(params, batch)``.
    The ReLU's subgradient at the kink is 0.  With ``out``, a (d_out, d_in)
    array, the weight gradient is written there and ``grad_refined`` is
    overwritten by the gradient before the ReLU."""
    grad_pre = np.multiply(grad_refined, refined > 0, out=None if out is None else grad_refined)
    return np.matmul(grad_pre.T, batch, out=out), grad_pre.sum(axis=0)


def dropout_view(z: np.ndarray, cfg: DropoutConfig, out: np.ndarray | None = None) -> np.ndarray:
    """Inverted dropout in float64: zero each coordinate with probability
    p_drop, scale survivors by 1/(1-p_drop).  Accepts a vector or a row
    batch.  With p_drop 0 and no ``out`` it returns ``z`` itself.

    ``out``, when given, is a C-contiguous float64 array of ``z``'s shape
    that does not overlap it; the uniform draws are made into it too, so
    nothing is allocated."""
    z = np.asarray(z)
    if cfg.p_drop == 0.0:
        if out is None:
            return z
        out[...] = z
        return out
    if out is None:
        out = np.empty(z.shape)
    rng.spawn(cfg.seed).random(out=out)
    # the keep mask as 1.0/0.0, which multiplies like the boolean mask
    np.greater_equal(out, cfg.p_drop, out=out)
    np.multiply(z, out, out=out)
    out /= 1.0 - cfg.p_drop
    return out


def init_encoder(d_in: int, d_out: int, seed: int) -> EncoderParams:
    """Fan-scaled uniform weight init, zero bias."""
    gen = rng.spawn(seed, rng.STREAM_ENCODER_INIT)
    scale = np.sqrt(6.0 / (d_in + d_out))
    weight = gen.uniform(-scale, scale, size=(d_out, d_in)).astype(np.float32)
    return EncoderParams(weight, np.zeros(d_out, dtype=np.float32))
