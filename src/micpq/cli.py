"""Command-line entry point: synth, train, index, search, eval.

Exit codes: 0 success, 1 an error raised by the library (bad data, a
failed file operation, a setting the library rejects), 2 usage error
(bad syntax, an unknown option or choice, a missing required option).
Each ``key=value`` line of an optional ``--config`` file (keys are the
flag names, dashes and underscores interchangeable) is read as a flag
placed right after the command name, so flags given on the command line
take precedence; one parse handles both.
Human-readable output goes to stdout, diagnostics to stderr, and
machine-readable artifacts only to files.

Heavy imports happen after argument parsing so that ``--threads`` can
cap the numeric libraries' thread pools via the environment.
"""
from __future__ import annotations

import argparse
import os
import sys

_TRUE_STRINGS = {"1", "true", "yes", "on"}

# dests whose flag spelling differs from the dest name
_FLAG_NAMES = {"mi_weight": "--lambda"}


def _flag(dest: str) -> str:
    return _FLAG_NAMES.get(dest, "--" + dest.replace("_", "-"))


def _split_ratios(text: str) -> tuple[float, float, float]:
    """--split-ratios converter: three nonnegative fractions summing to 1."""
    try:
        ratios = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from None
    if len(ratios) != 3 or any(not r >= 0 for r in ratios) or not abs(sum(ratios) - 1.0) <= 1e-9:
        raise argparse.ArgumentTypeError(
            f"need three nonnegative comma-separated fractions summing to 1, got {text!r}"
        )
    return ratios


_SHARED_OPTS = {
    "seed": (int, 0, "root random seed"),
    "threads": (int, None, "cap the BLAS and OpenMP thread pools (default: available "
                "parallelism); train, index and eval then use CPUs // that many worker "
                "threads"),
    "config": (str, None, "key=value lines read as flags placed before the command line's own"),
}

# dest -> (converter or tuple of choices, default, help); required options
# have default REQUIRED
_REQUIRED = object()
_MODES = ("adc", "hamming")
_SPLITS = ("train", "all")

_COMMAND_OPTS = {
    "synth": {
        "n": (int, _REQUIRED, "number of documents"),
        "dim": (int, _REQUIRED, "embedding width"),
        "classes": (int, _REQUIRED, "number of mixture components"),
        "sep": (float, 10.0, "inter-center distance scale"),
        "sigma": (float, 1.0, "within-class noise standard deviation"),
        "out": (str, _REQUIRED, "output directory for data.emb / data.lbl"),
    },
    "train": {
        "emb": (str, _REQUIRED, "embedding file to train on"),
        "M": (int, _REQUIRED, "number of codebooks"),
        "K": (int, 16, "codewords per codebook"),
        "sub_dim": (int, 24, "codeword width"),
        "lr": (float, 0.001, "Adam learning rate"),
        "batch_size": (int, 256, "mini-batch size"),
        "epochs": (int, 100, "training epochs"),
        "mi_weight": (float, 0.1, "weight of the mutual-information term"),
        "alpha": (float, 0.1, "conditional-entropy trade-off"),
        "tau_cl": (float, 0.3, "contrastive temperature"),
        "tau_gumbel": (float, None, "Gumbel-softmax temperature (default: 10 for 16-bit codes, else 5)"),
        "p_drop": (float, 0.3, "dropout rate for the two views"),
        "out": (str, _REQUIRED, "checkpoint output path"),
        "log": (str, None, "write per-epoch records to this file"),
        "split": (_SPLITS, "train", "train on this split"),
        "split_ratios": (_split_ratios, "0.8,0.1,0.1", "train,val,test fractions"),
        "split_seed": (int, 0, "seed of the deterministic split"),
        "checkpoint_every": (int, 0, "also checkpoint every N epochs"),
    },
    "index": {
        "ckpt": (str, _REQUIRED, "model checkpoint"),
        "emb": (str, _REQUIRED, "corpus embedding file"),
        "out": (str, _REQUIRED, "index output path"),
        "split": (_SPLITS, "train", "index this split"),
        "split_ratios": (_split_ratios, "0.8,0.1,0.1", "train,val,test fractions"),
        "split_seed": (int, 0, "seed of the deterministic split"),
    },
    "search": {
        "index": (str, _REQUIRED, "index file"),
        "ckpt": (str, _REQUIRED, "model checkpoint"),
        "queries": (str, _REQUIRED, "query embedding file"),
        "k": (int, 10, "results per query"),
        "mode": (_MODES, "adc", "distance mode"),
    },
    "eval": {
        "ckpt": (str, _REQUIRED, "model checkpoint"),
        "emb": (str, _REQUIRED, "corpus embedding file"),
        "labels": (str, _REQUIRED, "corpus label file"),
        "k": (int, 100, "retrieval depth for precision"),
        "mode": (_MODES, "adc", "distance mode"),
        "index": (str, None, "search a prebuilt index instead of encoding the train split"),
        "clustering": (bool, False, "also report per-codebook clustering accuracy"),
        "report": (str, None, "write the report to this file"),
        "split_ratios": (_split_ratios, "0.8,0.1,0.1", "train,val,test fractions"),
        "split_seed": (int, 0, "seed of the deterministic split"),
        "kmeans_seed": (int, 0, "seed of the K-means baseline"),
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="micpq",
        description="Train a contrastive product quantizer, compile compact "
        "codes and run top-k retrieval over them.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, opts in _COMMAND_OPTS.items():
        sub = subparsers.add_parser(command)
        for dest, (conv, default, help_text) in {**opts, **_SHARED_OPTS}.items():
            kind = {"required": True} if default is _REQUIRED else {"default": default}
            if conv is bool:
                kind["action"] = "store_true"
            elif isinstance(conv, tuple):
                kind["choices"] = conv
            else:
                kind["type"] = conv
            sub.add_argument(_flag(dest), dest=dest, help=help_text, **kind)
    return parser


def _with_config(parser, argv: list[str]) -> list[str]:
    """``argv`` with the lines of its ``--config`` file inserted right after
    the command name as flags, which the command line's own flags override.
    ``key=value`` becomes ``--key=value``; a boolean option becomes its bare
    flag when the value is true and is left out otherwise."""
    # finds --config F, --config=F and --conf F, as the full parse will
    find = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    find.add_argument("--config")
    try:
        path = find.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:
        return argv  # the full parse reports it
    if not path or argv[0] not in _COMMAND_OPTS:
        return argv
    opts = {**_COMMAND_OPTS[argv[0]], **_SHARED_OPTS}
    keys = {}  # checked here: argparse would take a prefix such as epoch= for --epochs
    for dest in opts.keys() - {"config"}:
        keys[dest] = keys[_flag(dest)[2:].replace("-", "_")] = dest
    try:
        with open(path) as f:
            lines = f.readlines()
    except (OSError, ValueError) as err:  # ValueError: not decodable text
        parser.error(f"cannot read config file: {err}")
    flags = []
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, raw = (part.strip() for part in line.partition("="))
        dest = keys.get(key.replace("-", "_")) if eq else None
        if dest is None:
            parser.error(f"{path}:{lineno}: expected key=value with a key among the "
                         f"{argv[0]} options, got {line!r}")
        if opts[dest][0] is not bool:
            flags.append(f"{_flag(dest)}={raw}")
        elif raw.lower() in _TRUE_STRINGS:
            flags.append(_flag(dest))
    return [argv[0], *flags, *argv[1:]]


def _set_thread_env(threads: int | None) -> None:
    if threads is None:
        return
    if threads < 1:
        raise ValueError("--threads must be >= 1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(threads)


def _split(path: str, which: str, ratios, split_seed: int):
    """(n_docs, rows) of an embedding file: its row count and an unread
    :class:`~micpq.dataio.EmbeddingFile` of one split's rows, in row order.
    The header and file size are checked before the split is computed
    from ``n_docs``."""
    import numpy as np

    from . import dataio
    from .evaluation import split_indices

    whole = dataio.EmbeddingFile(path)
    if which == "all":
        return whole.n_docs, whole
    return whole.n_docs, whole.take(np.sort(split_indices(whole.n_docs, ratios, split_seed)[0]))


def _cmd_synth(args) -> int:
    from . import dataio

    spec = dataio.MixtureSpec(
        n_docs=args.n,
        dim=args.dim,
        n_classes=args.classes,
        separation=args.sep,
        noise_sigma=args.sigma,
        seed=args.seed,
    )
    embeddings, labels = dataio.synth_mixture(spec)
    os.makedirs(args.out, exist_ok=True)
    emb_path, lbl_path = dataio.default_paths(args.out)
    dataio.write_embeddings(embeddings, emb_path)
    dataio.write_labels(labels, lbl_path)
    print(f"wrote {embeddings.n_docs} x {embeddings.dim} embeddings to {emb_path}")
    print(f"wrote {labels.n_docs} labels ({labels.n_classes} classes) to {lbl_path}")
    return 0


def _banner(n_codebooks: int, n_codewords: int, sub_dim: int) -> str:
    from .quantizer import bits_per_index, is_pow2

    if is_pow2(n_codewords):
        bits = n_codebooks * bits_per_index(n_codewords)
        return f"micpq train: {bits}-bit codes (M={n_codebooks}, K={n_codewords}, sub_dim={sub_dim})"
    return (
        f"micpq train: {n_codebooks} sub-indices per doc "
        f"(M={n_codebooks}, K={n_codewords} not a power of two, sub_dim={sub_dim})"
    )


def _cmd_train(args) -> int:
    from . import trainer
    from .objectives import LossConfig

    n_docs, data = _split(args.emb, args.split, args.split_ratios, args.split_seed)
    tau_gumbel = args.tau_gumbel
    if tau_gumbel is None:
        tau_gumbel = trainer.default_gumbel_temperature(args.M, args.K)
    cfg = trainer.TrainConfig(
        n_codebooks=args.M,
        n_codewords=args.K,
        sub_dim=args.sub_dim,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        n_epochs=args.epochs,
        seed=args.seed,
        loss=LossConfig(
            tau_cl=args.tau_cl,
            tau_gumbel=tau_gumbel,
            alpha=args.alpha,
            mi_weight=args.mi_weight,
            p_drop=args.p_drop,
        ),
        checkpoint_path=args.out,
        checkpoint_every=args.checkpoint_every,
    )
    print(_banner(args.M, args.K, args.sub_dim))
    print(
        f"config: lr={args.lr} batch_size={args.batch_size} epochs={args.epochs} "
        f"lambda={args.mi_weight} alpha={args.alpha} tau_cl={args.tau_cl} "
        f"tau_gumbel={tau_gumbel} p_drop={args.p_drop} seed={args.seed}"
    )
    print(f"training on {data.n_docs} of {n_docs} documents (split={args.split})")
    _, log = trainer.train(
        cfg, data, on_epoch=lambda record: print(record.format_line(), flush=True)
    )
    if args.log:
        log.write(args.log)
    print(f"checkpoint written to {args.out}", file=sys.stderr)
    return 0


def _cmd_index(args) -> int:
    from . import retrieval, trainer

    model = trainer.load_checkpoint(args.ckpt)
    _, split = _split(args.emb, args.split, args.split_ratios, args.split_seed)
    index = retrieval.build_index(model, split, ids=split.rows)
    retrieval.save_index(index, args.out)
    print(
        f"indexed {index.n_docs} documents "
        f"({index.payload_nbytes} code payload bytes) to {args.out}"
    )
    return 0


def _cmd_search(args) -> int:
    from . import dataio, retrieval, trainer

    index = retrieval.load_index(args.index)
    model = trainer.load_checkpoint(args.ckpt)
    queries = dataio.read_embeddings(args.queries)
    search = retrieval.search_topk_hamming if args.mode == "hamming" else retrieval.search_topk
    for qi in range(queries.n_docs):
        for rank, (doc_id, dist) in enumerate(
            search(index, queries.values[qi], model, args.k), start=1
        ):
            shown = f"{int(dist)}" if args.mode == "hamming" else f"{dist:.6f}"
            print(f"{qi}\t{rank}\t{doc_id}\t{shown}")
    return 0


def _cmd_eval(args) -> int:
    from . import dataio, evaluation, retrieval, trainer

    model = trainer.load_checkpoint(args.ckpt)
    # only the clustering scores need every row in memory
    data = (dataio.read_embeddings if args.clustering else dataio.EmbeddingFile)(args.emb)
    labels = dataio.read_labels(args.labels, expected_n_docs=data.n_docs)
    report = evaluation.retrieval_eval(
        model,
        data,
        labels,
        k=args.k,
        mode=args.mode,
        ratios=args.split_ratios,
        split_seed=args.split_seed,
        index=retrieval.load_index(args.index) if args.index else None,
    )
    if args.clustering:
        report.clustering = evaluation.evaluate_codeword_quality(
            model, data, labels, kmeans_seed=args.kmeans_seed
        )
    for line in report.format_lines():
        print(line)
    print(f"evaluated in {report.elapsed_seconds:.2f}s", file=sys.stderr)
    if args.report:
        report.write(args.report)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_with_config(parser, argv))
    try:
        _set_thread_env(args.threads)
    except ValueError as err:
        parser.error(str(err))
    from .errors import MicpqError

    run = {"synth": _cmd_synth, "train": _cmd_train, "index": _cmd_index,
           "search": _cmd_search, "eval": _cmd_eval}[args.command]
    try:
        return run(args)
    except (MicpqError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
