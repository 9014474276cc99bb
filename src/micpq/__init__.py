"""micpq: contrastive product quantization for compact retrieval indexes.

Train an encoder and codebooks end to end on precomputed document
embeddings, compile a corpus into ``M * log2(K)``-bit codes, and answer
top-k queries through per-query distance lookup tables (or Hamming
distance in the one-bit-per-codebook extreme configuration).

The names below are imported from their modules on first use (PEP 562),
so ``import micpq.cli`` loads no numerical library before the command
line's ``--threads`` is applied.
"""

import importlib

_EXPORTS = {
    "dataio": (
        "EmbeddingMatrix LabelVector MixtureSpec read_embeddings read_labels "
        "synth_mixture write_embeddings write_labels"
    ),
    "encoder": "DropoutConfig EncoderParams dropout_view forward forward_batch",
    "evaluation": (
        "CodewordQualityReport EvalReport evaluate_codeword_quality hungarian_accuracy kmeans "
        "precision_at_k retrieval_eval split_indices"
    ),
    "objectives": "LossConfig loss_and_gradients",
    "quantizer": "CodebookSet QuantCode pack_codes quantize_document unpack_codes",
    "retrieval": (
        "DistanceLUT RetrievalIndex adc_distance build_index build_lut hamming_distance "
        "load_index save_index search_topk search_topk_hamming"
    ),
    "trainer": (
        "ModelState TrainConfig TrainLog adam_step init_model load_checkpoint "
        "save_checkpoint train"
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
