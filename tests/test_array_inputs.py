"""Every public entry point that takes an array returns a value for the
arrays its contract admits and raises a MicpqError for any other: never a
bare numpy exception, and never a silent cast of a value it should refuse."""
import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import micpq
from micpq.dataio import EmbeddingMatrix, LabelVector
from micpq.encoder import EncoderParams, forward
from micpq.errors import MicpqError
from micpq.quantizer import (
    CodebookSet,
    QuantCode,
    pack_codes,
    quantize_document,
    reconstruct,
    unpack_codes,
    unpack_codes_batch,
)
from micpq.retrieval import (
    DistanceLUT,
    RetrievalIndex,
    adc_distance,
    build_index,
    build_lut,
    hamming_distance,
    search_topk,
    search_topk_hamming,
)
from micpq.trainer import ModelState

from oracles import assign_probs


def _model(books: CodebookSet) -> ModelState:
    """A model whose encoder passes a books.dim-wide input straight through."""
    d = books.dim
    encoder = EncoderParams(np.eye(d, dtype=np.float32), np.zeros(d, np.float32))
    zeros = [np.zeros_like(a) for a in (encoder.weight, encoder.weight, encoder.bias,
                                        encoder.bias, books.books, books.books)]
    return ModelState(encoder, books, *zeros)


# M = 2, K = 4, sub_dim 1: a code is 4 bits, so a packed byte's high half is padding
BOOKS = CodebookSet(np.arange(8, dtype=np.float32).reshape(2, 4, 1) / 4)
MODEL = _model(BOOKS)
INDEX = RetrievalIndex(BOOKS, np.array([[0, 1], [3, 2], [1, 1]]))
BOOKS_K2 = CodebookSet(np.arange(4, dtype=np.float32).reshape(2, 2, 1))
MODEL_K2 = _model(BOOKS_K2)
INDEX_K2 = RetrievalIndex(BOOKS_K2, np.array([[0, 1], [1, 1], [0, 0]]))


def _real(a, shape, finite=False, dtype=None) -> bool:
    """Integer or floating values of ``shape`` (None: any length), finite
    after a cast to ``dtype`` when asked."""
    if a.dtype.kind not in "iuf" or a.ndim != len(shape):
        return False
    if any(n is not None and n != m for n, m in zip(shape, a.shape)):
        return False
    with np.errstate(all="ignore"):
        return not finite or bool(np.isfinite(a.astype(dtype or a.dtype)).all())


def _ints(a, stop) -> bool:
    """No integer or floating values, or integers in [0, stop)."""
    if a.size == 0:
        return a.dtype.kind in "iuf"
    return a.dtype.kind in "iu" and int(a.min()) >= 0 and int(a.max()) < stop


def _fields_below(rows, stop) -> bool:
    """Every little-endian 16-bit field of (n, 2M) byte values is < stop."""
    rows = rows.astype(np.int64)
    return bool((rows[:, 0::2] + 256 * rows[:, 1::2] < stop).all())


def _code(a, n_words, n_books=None) -> bool:
    """What QuantCode(a, n_words) takes: a vector (a scalar being one
    index) of integers in [0, K), of ``n_books`` indices when given."""
    return a.ndim <= 1 and _ints(a, n_words) and n_books in (None, a.size)


def _labels(a) -> bool:
    if a.ndim > 1 or not a.size or not _ints(a, 1 << 32):
        return False
    present = np.unique(a)
    return present.tolist() == list(range(len(present)))


def _bytes(a):
    return np.frombuffer(a, np.uint8) if isinstance(a, bytes) else a


# name: (call on the array, whether the contract admits the array)
TARGETS = {
    "EmbeddingMatrix": (EmbeddingMatrix,
                        lambda a: _real(a, (None, None), True, np.float32) and a.size > 0),
    "LabelVector": (LabelVector, _labels),
    "EncoderParams(weight)": (lambda a: EncoderParams(a, np.zeros(2)),
                              lambda a: _real(a, (2, None), True)),
    "EncoderParams(bias)": (lambda a: EncoderParams(np.ones((2, 3)), a),
                            lambda a: _real(a, (2,), True)),
    "CodebookSet": (CodebookSet, lambda a: _real(a, (None, None, None), True)
                    and a.shape[0] >= 1 and 2 <= a.shape[1] <= 1 << 16),
    "QuantCode": (lambda a: QuantCode(a, 4), lambda a: _code(a, 4)),
    "DistanceLUT": (DistanceLUT, lambda a: _real(a, (None, None))),
    "RetrievalIndex(codes=)": (lambda a: RetrievalIndex(BOOKS, a),
                               lambda a: a.ndim == 2 and a.shape[1] == 2 and _ints(a, 4)),
    "RetrievalIndex(packed=)": (lambda a: RetrievalIndex(BOOKS, packed=a),
                                lambda a: a.ndim == 1 and _ints(a, 16)),
    "RetrievalIndex(doc_ids=)": (lambda a: RetrievalIndex(BOOKS, np.zeros((3, 2), int), a),
                                 lambda a: a.size == 3 and a.ndim <= 1 and _ints(a, 1 << 64)),
    "forward": (lambda a: forward(MODEL.encoder, a), lambda a: _real(a, (2,), True)),
    "build_lut": (lambda a: build_lut(a, BOOKS), lambda a: _real(a, (2,))),
    "build_index": (lambda a: build_index(MODEL, a), lambda a: _real(a, (None, 2), True)),
    "assign_probs(segment)": (lambda a: assign_probs(a, BOOKS.books[0]),
                              lambda a: _real(a, (1,), True)),
    "assign_probs(book)": (lambda a: assign_probs(np.zeros(1), a),
                           lambda a: _real(a, (None, 1), True)),
    "quantize_document": (lambda a: quantize_document(a, BOOKS), lambda a: _real(a, (2,), True)),
    "reconstruct": (lambda a: reconstruct(BOOKS, QuantCode(a, 4)), lambda a: _code(a, 4, 2)),
    "reconstruct(code of K=16)": (lambda a: reconstruct(BOOKS, QuantCode(a, 16)),
                                  lambda a: False),
    "adc_distance": (lambda a: adc_distance(DistanceLUT(a), QuantCode([0, 1], 4)),
                     lambda a: _real(a, (2, 4))),
    "hamming_distance": (lambda a: hamming_distance(QuantCode(a, 2), QuantCode([0, 1], 2)),
                         lambda a: _code(a, 2, 2)),
    "pack_codes": (lambda a: pack_codes(a, 4),
                   lambda a: a.ndim == 1 and a.size > 0 and _ints(a, 4)),
    "unpack_codes": (lambda a: unpack_codes(a, 2, 4),
                     lambda a: _bytes(a).shape == (1,) and _ints(_bytes(a), 256)),
    "unpack_codes(M=8, K=16)": (lambda a: unpack_codes(a, 8, 16),
                                lambda a: _bytes(a).shape == (4,) and _ints(_bytes(a), 256)),
    "unpack_codes_batch(M=2, K=16)": (lambda a: unpack_codes_batch(a, 2, 16),
                                      lambda a: a.ndim == 2 and a.shape[1] == 1
                                      and _ints(a, 256)),
    "unpack_codes_batch(M=2, K=12)": (lambda a: unpack_codes_batch(a, 2, 12),
                                      lambda a: a.ndim == 2 and a.shape[1] == 4
                                      and _ints(a, 256) and _fields_below(a, 12)),
    "search_topk": (lambda a: search_topk(INDEX, a, MODEL, 2), lambda a: _real(a, (2,), True)),
    "search_topk_hamming": (lambda a: search_topk_hamming(INDEX_K2, a, MODEL_K2, 2),
                            lambda a: _real(a, (2,), True)),
}
FUZZED = {name.split("(")[0] for name in TARGETS}
# exports whose array arguments the property does not reach yet
NOT_YET_FUZZED = {
    "CodewordQualityReport", "DropoutConfig", "EvalReport", "LossConfig", "MixtureSpec",
    "ModelState", "TrainConfig", "TrainLog", "adam_step", "dropout_view",
    "evaluate_codeword_quality", "forward_batch", "hungarian_accuracy", "init_model", "kmeans",
    "load_checkpoint", "load_index", "loss_and_gradients", "loss_values", "precision_at_k",
    "read_embeddings", "read_labels", "retrieval_eval", "save_checkpoint", "save_index",
    "split_indices", "synth_mixture", "train", "write_embeddings", "write_labels",
}

_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
_ARRAYS = st.one_of(
    # any numpy dtype, with NaN, infinities and each integer type's extremes
    hnp.arrays(st.one_of(hnp.scalar_dtypes(), hnp.unicode_string_dtypes(max_len=2),
                         hnp.byte_string_dtypes(max_len=2)), _SHAPES),
    # small integers, which the integer checks can admit
    hnp.arrays(hnp.integer_dtypes() | hnp.unsigned_integer_dtypes(), _SHAPES,
               elements=st.integers(0, 4)),
    # Python objects: huge integers, floats and strings
    hnp.arrays(object, _SHAPES, elements=st.integers() | st.floats() | st.text(max_size=2)),
)


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_a_ragged_nest_of_sequences_raises_a_micpq_error(target):
    with pytest.raises(MicpqError):  # numpy raises a bare ValueError making it an array
        TARGETS[target][0]([[0, 1], [0]])


def test_every_callable_export_is_fuzzed_or_listed_as_not_yet():
    exports = {name for name in micpq.__all__ if callable(getattr(micpq, name))}
    assert not FUZZED & NOT_YET_FUZZED
    assert exports - NOT_YET_FUZZED <= FUZZED and NOT_YET_FUZZED <= exports


@settings(max_examples=400, derandomize=True, deadline=None)
@given(target=st.sampled_from(sorted(TARGETS)), values=_ARRAYS)
# each example failed before its entry point was checked: a bare numpy
# exception, or a value returned for input the contract refuses
@example(target="unpack_codes(M=8, K=16)", values=b"\x01")  # IndexError
@example(target="unpack_codes(M=8, K=16)", values=b"\x01" * 5)  # the fifth byte was ignored
@example(target="unpack_codes_batch(M=2, K=16)", values=np.full((1, 1), 300))  # [[12, 2]]
@example(target="unpack_codes_batch(M=2, K=16)", values=np.zeros(3, np.uint8))  # TypeError
@example(target="unpack_codes_batch(M=2, K=16)", values=np.array([["a"]]))  # ValueError
@example(target="unpack_codes_batch(M=2, K=12)", values=np.zeros((1, 4), np.uint8))  # K = 12
@example(target="LabelVector", values=np.array([0, 1.7]))  # kept as [0, 1]
@example(target="LabelVector", values=np.array([0, 1 + 1j]))  # a ComplexWarning only
@example(target="LabelVector", values=np.array(["a"]))  # ValueError
@example(target="QuantCode", values=np.zeros(0, complex))  # a ComplexWarning, then kept
@example(target="QuantCode", values=np.zeros(0, object))  # kept
@example(target="reconstruct(code of K=16)", values=np.array([0, 15]))  # IndexError
@example(target="adc_distance", values=np.ones((2, 3)))  # 2.0 for a code of K = 4
@example(target="build_lut", values=np.zeros((2, 1)))  # ValueError
@example(target="build_lut", values=np.array(["a", "b"]))  # UFuncTypeError
@example(target="build_lut", values=np.array([1j, 0]))  # the imaginary part was dropped
@example(target="DistanceLUT", values=np.array([["a"]]))  # a str table was kept
@example(target="build_index", values=np.array([["a", "b"]]))  # UFuncTypeError
@example(target="build_index", values=np.array([[1j, 0]]))  # encoded from the real part
def test_array_inputs_return_a_value_or_raise_a_micpq_error(target, values):
    call, admitted = TARGETS[target]
    try:
        call(values)
    except MicpqError:
        assert not admitted(values), f"{target} refused admitted input"
    else:
        assert admitted(values), f"{target} took input its contract refuses"
