"""The benchmark's workloads and one run of a workload.

A run has four phases, all in one process apart from the ``micpq``
commands it starts one at a time:

1. set-up: generate the seeded corpus and write the input files, at
   least MIN_SETUPS times and for MIN_PHASE_S (``setup_s`` is their median);
2. library: read, train, checkpoint, build and save the index, then a
   window of single top-100 queries interleaved with index and
   checkpoint loads, then ``evaluation.retrieval_eval``;
3. CLI: ``micpq train -> index -> search -> eval`` on the same files;
4. checks: the outputs of phases 2 and 3 against the references in
   :mod:`checks`.
"""
from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from micpq import dataio, encoder, evaluation, objectives, quantizer, retrieval, trainer

import checks
from hostspeed import HostSpeed, at_reference_speed
from tracer import Tracer, count_python_calls

K_TOP = 100
SUB_DIM = 24
MIN_SETUPS = 3
MIN_QUERIES = 214       # 200 of them warm, so p95 has ten samples beyond it
QUERIES_PER_LOAD = 16   # one index load and one checkpoint load per this many queries
CLI_QUERIES = 16        # queries answered by ``micpq search``
CHECKED_QUERIES = 32    # queries checked against the brute-force reference
CLI_TIMEOUT_S = 150
MIN_PHASE_S = 1.0       # set-ups and evals repeat until they have run this long
MIN_BUILD_S = 2.5       # index builds (build_index + save_index) repeat until they have run this long
CLI_PEAK = Path(__file__).resolve().parent / "cli_peak.py"


@dataclass(frozen=True)
class Workload:
    n_docs: int
    dim: int
    n_classes: int
    separation: float
    sigma: float
    n_codebooks: int
    n_codewords: int
    mode: str
    epochs: int
    train_ratios: tuple[float, float, float]  # the model trains on this split's train part
    index_ratios: tuple[float, float, float]  # indexed: its train part; queries: its test part
    cli_eval_ratios: tuple[float, float, float]  # ``micpq eval``: same train part, fewer queries


WORKLOADS = {
    # 32-bit codes on BERT-base width; training is most of the run.
    "train-m8k16": Workload(
        n_docs=5000, dim=768, n_classes=20, separation=0.35, sigma=1.0,
        n_codebooks=8, n_codewords=16, mode="adc", epochs=5,
        train_ratios=(0.8, 0.1, 0.1), index_ratios=(0.8, 0.1, 0.1),
        cli_eval_ratios=(0.8, 0.1, 0.1),
    ),
    # Brief training on 2% of the corpus, then a 199,999-document index
    # and 201 held-out queries (51 of them for ``micpq eval``); many
    # overlapping classes give diverse codes.
    "search-adc-200k": Workload(
        n_docs=200_200, dim=64, n_classes=100, separation=1.0, sigma=1.0,
        n_codebooks=8, n_codewords=16, mode="adc", epochs=3,
        train_ratios=(0.02, 0.0, 0.98), index_ratios=(0.999, 0.0, 0.001),
        cli_eval_ratios=(0.999, 0.00075, 0.00025),
    ),
    # 16-bit codes, one bit per codebook, ranked by Hamming distance.
    "extreme-hamming-200k": Workload(
        n_docs=200_200, dim=64, n_classes=20, separation=1.0, sigma=1.0,
        n_codebooks=16, n_codewords=2, mode="hamming", epochs=2,
        train_ratios=(0.03, 0.0, 0.97), index_ratios=(0.999, 0.0, 0.001),
        cli_eval_ratios=(0.999, 0.00075, 0.00025),
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_docs_per_s": "docs/s",
    "index_build_docs_per_s": "docs/s",
    "index_load_ms": "ms",
    "query_ms_p50": "ms",
    "query_ms_p95": "ms",
    "eval_queries_per_s": "queries/s",
    "precision_at_100": "fraction",
    "index_bytes_per_doc": "B",
    "peak_rss_mb": "MiB",
    "pipeline_s": "s",
}

PER_LAYER_UNITS = {
    "dataio.synth_mixture_s": "s",
    "dataio.write_embeddings_s": "s",
    "dataio.read_embeddings_s": "s",
    "encoder.forward_batch_ms_per_1k": "ms",
    "quantizer.hard_assign_batch_ms_per_1k": "ms",
    "quantizer.pack_codes_batch_ms": "ms",
    "quantizer.unpack_codes_batch_ms": "ms",
    "objectives.loss_and_gradients_ms": "ms",
    "objectives.py_calls_per_step": "count",
    "trainer.adam_step_ms": "ms",
    "trainer.usage_histogram_ms": "ms",
    "trainer.save_checkpoint_ms": "ms",
    "trainer.load_checkpoint_ms": "ms",
    "retrieval.build_index_docs_per_s": "docs/s",
    "retrieval.save_index_ms": "ms",
    "retrieval.load_index_ms": "ms",
    "retrieval.resident_codes_bytes": "B",
    "retrieval.resident_packed_bytes": "B",
    "retrieval.resident_ids_bytes": "B",
    "retrieval.refine_ms": "ms",
    "retrieval.build_lut_us": "us",
    "retrieval.adc_distances_ms": "ms",
    "retrieval.select_ms": "ms",
    "retrieval.search_topk_hamming_ms": "ms",
    "retrieval.py_calls_per_query": "count",
    "retrieval.distinct_codes": "count",
    "retrieval.kth_tie_group": "count",
    "evaluation.retrieval_eval_s": "s",
    "evaluation.precision_at_k_ms": "ms",
    "cli.train_s": "s",
    "cli.index_s": "s",
    "cli.search_s": "s",
    "cli.eval_s": "s",
}

SEARCHES = ("retrieval.search_topk", "retrieval.search_topk_hamming")


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public functions wherever micpq looks them up."""
    def everywhere(module, attr):
        return [(module, attr)] + [
            (m, attr) for m in (encoder, quantizer, objectives, trainer, retrieval, evaluation)
            if m is not module and getattr(m, attr, None) is getattr(module, attr, None)
        ]

    for module, names in (
        (dataio, ("synth_mixture", "write_embeddings", "read_embeddings")),
        (encoder, ("forward_batch",)),
        (quantizer, ("hard_assign_batch", "pack_codes_batch", "unpack_codes_batch")),
        (objectives, ("loss_and_gradients",)),
        (trainer, ("train", "adam_step", "usage_histogram", "save_checkpoint", "load_checkpoint")),
        (retrieval, ("build_index", "save_index", "load_index", "build_lut", "adc_distances",
                     "search_topk", "search_topk_hamming")),
        (evaluation, ("retrieval_eval", "precision_at_k")),
    ):
        prefix = module.__name__.rsplit(".", 1)[1]
        for name in names:
            tracer.wrap(f"{prefix}.{name}", *everywhere(module, name))


def resident_bytes(obj, depth: int = 2) -> int:
    """Bytes of the numpy arrays an object holds, one level of nested objects deep."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif depth > 1 and hasattr(value, "__dict__"):
            total += resident_bytes(value, depth - 1)
    return total


def _array_nbytes(obj, attr: str) -> int:
    value = getattr(obj, attr, None)
    return value.nbytes if isinstance(value, np.ndarray) else 0


def _index_arrays(index) -> dict:
    codes = getattr(index, "codes", None)
    if codes is None:
        codes = checks.unpack_codes(index.packed, index.books.n_codebooks, index.books.n_codewords)
    return {"books": index.books.books, "doc_ids": index.doc_ids, "codes": codes}


def _ratios_flag(ratios) -> str:
    return ",".join(repr(r) for r in ratios)


class ProgramFailed(RuntimeError):
    """A micpq call raised or a micpq command exited with an error."""


class Run:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool, root: Path):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.work = root / "perfbench" / "_work" / f"{name}-seed{seed}-{os.getpid()}"
        self.speed = HostSpeed()
        self.tracer = Tracer(lambda s: self.speed.scaled(s.start, s.seconds)) if trace else None
        self.attempted = 0
        self.failed = 0
        # (start, seconds) of the timed operations, read at the end of the run
        self.spans: dict[str, list[tuple[float, float]]] = {}
        self.cli_out: dict[str, str] = {}
        self.cli_probe: dict[str, tuple[float, float]] = {}  # (probe total, probe) per command
        self.peak_rss_kib = 0

    # --- bookkeeping -------------------------------------------------------

    def op(self, fn, *args, timed: str | None = None, **kwargs):
        """One counted operation of the program; its span is kept under
        ``timed`` when given."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as err:
            self.failed += 1
            raise ProgramFailed(f"{getattr(fn, '__name__', fn)}: {err!r}") from err
        if timed is not None:
            self.spans.setdefault(timed, []).append((start, time.perf_counter() - start))
        return result

    def seconds_of(self, name: str) -> list[float]:
        """Durations of the spans kept under ``name``, at reference host speed."""
        if name.startswith("cli."):
            (_, seconds), = self.spans[name]
            return [at_reference_speed(seconds, *self.cli_probe[name[4:]])]
        return [self.speed.scaled(start, sec) for start, sec in self.spans[name]]

    def path(self, name: str) -> str:
        return str(self.work / name)

    def cli(self, command: str, *args: str) -> None:
        def run():
            proc = subprocess.run(
                [sys.executable, str(CLI_PEAK), command, *args, "--seed", str(self.seed)],
                cwd=self.root, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return proc.stdout, proc.stderr

        # The child probes host speed itself; this process stays idle meanwhile.
        with self.speed.paused():
            self.cli_out[command], stderr = self.op(run, timed=f"cli.{command}")
        report = dict(field.split("=") for field in stderr.strip().splitlines()[-1].split())
        self.peak_rss_kib = max(self.peak_rss_kib, int(report["peak_rss_kib"]))
        self.cli_probe[command] = (float(report["probe_total_s"]), float(report["probe_s"]))

    # --- phases -----------------------------------------------------------

    def setup(self) -> None:
        w = self.w
        spec = dataio.MixtureSpec(w.n_docs, w.dim, w.n_classes, w.separation, w.sigma, self.seed)

        def make_inputs():
            emb, labels = dataio.synth_mixture(spec)
            _, _, test = evaluation.split_indices(w.n_docs, w.index_ratios)
            dataio.write_embeddings(emb, self.path("corpus.emb"))
            dataio.write_labels(labels, self.path("corpus.lbl"))
            queries = dataio.EmbeddingMatrix(emb.values[test[:CLI_QUERIES]])
            dataio.write_embeddings(queries, self.path("queries.emb"))
            return emb.values, test

        start = time.perf_counter()
        while time.perf_counter() - start < MIN_PHASE_S or len(self.spans.get("setup", ())) < MIN_SETUPS:
            self.values, self.test = self.op(make_inputs, timed="setup")

    def library(self) -> None:
        w = self.w
        data = self.op(dataio.read_embeddings, self.path("corpus.emb"))
        train_rows = np.sort(evaluation.split_indices(w.n_docs, w.train_ratios)[0])
        self.index_rows = np.sort(evaluation.split_indices(w.n_docs, w.index_ratios)[0])
        self.cfg = trainer.TrainConfig(
            n_codebooks=w.n_codebooks, n_codewords=w.n_codewords, sub_dim=SUB_DIM,
            n_epochs=w.epochs, seed=self.seed,
            loss=objectives.LossConfig(
                tau_gumbel=trainer.default_gumbel_temperature(w.n_codebooks, w.n_codewords)
            ),
        )
        train_data = dataio.EmbeddingMatrix(data.values[train_rows])
        self.n_trained = len(train_rows) * w.epochs
        model, self.train_log = self.op(trainer.train, self.cfg, train_data, timed="train")
        self.op(trainer.save_checkpoint, model, self.path("lib.ckpt"))
        self.batch = train_data.values[: self.cfg.batch_size]

        corpus = dataio.EmbeddingMatrix(data.values[self.index_rows])
        ids = self.index_rows.astype(np.uint64)
        start = time.perf_counter()
        while time.perf_counter() - start < MIN_BUILD_S or "build" not in self.spans:
            self.built = self.op(retrieval.build_index, model, corpus, ids=ids, timed="build")
            self.op(retrieval.save_index, self.built, self.path("lib.idx"), timed="save")

        self.query_window()

        labels = self.op(dataio.read_labels, self.path("corpus.lbl"))
        start = time.perf_counter()
        while time.perf_counter() - start < MIN_PHASE_S or "eval" not in self.spans:
            self.report = self.op(
                evaluation.retrieval_eval, self.model, data, labels, k=K_TOP, mode=w.mode,
                ratios=w.index_ratios, index=self.index, timed="eval",
            )

    def query_window(self) -> None:
        """Single queries over the held-out split, cycling, for at least
        ``seconds`` and at least MIN_QUERIES queries and one full pass."""
        search = retrieval.search_topk_hamming if self.w.mode == "hamming" else retrieval.search_topk
        queries = self.values[self.test]
        self.model = self.op(trainer.load_checkpoint, self.path("lib.ckpt"))
        self.index = self.op(retrieval.load_index, self.path("lib.idx"))
        self.first_pass = [None] * len(queries)
        n = 0
        deadline = time.perf_counter() + self.seconds
        while n < max(MIN_QUERIES, len(queries)) or time.perf_counter() < deadline:
            for i in range(QUERIES_PER_LOAD):
                q = n % len(queries)
                # the first query after a load runs on cold caches; latency is kept for warm ones
                timed = "query" if i else None
                ranked = self.op(search, self.index, queries[q], self.model, K_TOP, timed=timed)
                if self.first_pass[q] is None:
                    self.first_pass[q] = ranked
                n += 1
            self.index = self.op(retrieval.load_index, self.path("lib.idx"), timed="load")
            self.model = self.op(trainer.load_checkpoint, self.path("lib.ckpt"))

    def command_line(self) -> None:
        w = self.w
        self.cli(
            "train", "--emb", self.path("corpus.emb"), "--M", str(w.n_codebooks),
            "--K", str(w.n_codewords), "--sub-dim", str(SUB_DIM), "--epochs", str(w.epochs),
            "--split-ratios", _ratios_flag(w.train_ratios),
            "--out", self.path("cli.ckpt"), "--log", self.path("cli.log"),
        )
        self.cli(
            "index", "--ckpt", self.path("cli.ckpt"), "--emb", self.path("corpus.emb"),
            "--split-ratios", _ratios_flag(w.index_ratios), "--out", self.path("cli.idx"),
        )
        self.cli(
            "search", "--index", self.path("cli.idx"), "--ckpt", self.path("cli.ckpt"),
            "--queries", self.path("queries.emb"), "--k", str(K_TOP), "--mode", w.mode,
        )
        self.cli(
            "eval", "--ckpt", self.path("cli.ckpt"), "--emb", self.path("corpus.emb"),
            "--labels", self.path("corpus.lbl"), "--k", str(K_TOP), "--mode", w.mode,
            "--index", self.path("cli.idx"),
            "--split-ratios", _ratios_flag(w.cli_eval_ratios), "--report", self.path("cli_eval.txt"),
        )

    def check(self) -> None:
        w = self.w
        built = _index_arrays(self.built)
        lib_file = checks.parse_index_file(self.path("lib.idx"))
        checks.check_same_index(lib_file, built, "saved library index")
        checks.check_same_index(_index_arrays(self.index), built, "loaded library index")
        checks.check_same_index(checks.parse_index_file(self.path("cli.idx")), built, "CLI index")

        model = checks.parse_checkpoint_file(self.path("lib.ckpt"))
        books = lib_file["books"]
        checks.check_nearest_codes(
            model["weight"], model["bias"], self.values[self.index_rows], books, lib_file["codes"]
        )

        checked = [tuple(zip(*r)) for r in self.first_pass[:CHECKED_QUERIES]]
        refined = checks.refine(
            model["weight"], model["bias"], self.values[self.test[:CHECKED_QUERIES]]
        )
        tols = [checks.rounding_tolerance(q, books) for q in refined]
        doc_ids = lib_file["doc_ids"]
        if w.mode == "hamming":
            query_codes = [checks.hamming_query_codes(q, books, t) for q, t in zip(refined, tols)]
            checks.check_hamming(checked, query_codes, lib_file["packed"], doc_ids, K_TOP)
            ref = [np.bitwise_count(lib_file["packed"] ^ qc[0]).sum(axis=1) for qc in query_codes]
            tols = [0.0] * len(ref)
        else:
            ref = checks.reference_distances(refined, books, lib_file["codes"])
            checks.check_adc(checked, ref, tols, doc_ids, K_TOP)
        self.tie_groups = [checks.kth_tie_group(d, K_TOP, t) for d, t in zip(ref, tols)]
        self.distinct_codes = len(np.unique(lib_file["codes"], axis=0))

        labels = checks.parse_labels_file(self.path("corpus.lbl"))
        ranked_ids = {row: [doc for doc, _ in r] for row, r in zip(self.test, self.first_pass)}

        def precision(rows):
            return checks.recompute_precision([ranked_ids[r] for r in rows], labels[rows], labels, K_TOP)

        checks.check_precision(self.report.precision, precision(self.test), 1e-12, "library eval")
        with open(self.path("cli_eval.txt")) as f:
            report = dict(line.split("=", 1) for line in f.read().split())
        _, _, cli_test = evaluation.split_indices(w.n_docs, w.cli_eval_ratios)
        checks.check_precision(
            float(report[f"precision_at_{K_TOP}"]), precision(cli_test), 5e-7 + 1e-12, "CLI eval"
        )

        records = self.train_log.records
        checks.check_training(
            [r.contrastive_loss for r in records], [r.total_loss for r in records], "library train"
        )
        with open(self.path("cli.log")) as f:
            checks.check_training(*checks.parse_train_log(f.read()), "CLI train")

        checks.check_cli_search(
            checks.parse_search_output(self.cli_out["search"]),
            checked[:CLI_QUERIES], hamming=w.mode == "hamming",
        )

    # --- metrics ------------------------------------------------------------

    def end_to_end(self, scaled: bool = True) -> dict[str, float]:
        """End-to-end metrics, at reference host speed unless ``scaled`` is false."""
        def seconds(name):
            return self.seconds_of(name) if scaled else [sec for _, sec in self.spans[name]]

        query = seconds("query")
        n_docs = len(self.index_rows)
        return {
            "setup_s": statistics.median(seconds("setup")),
            "train_docs_per_s": self.n_trained / seconds("train")[0],
            "index_build_docs_per_s": n_docs * len(self.spans["build"]) / (
                sum(seconds("build")) + sum(seconds("save"))),
            "index_load_ms": statistics.median(seconds("load")) * 1e3,
            "query_ms_p50": statistics.median(query) * 1e3,
            "query_ms_p95": float(np.percentile(query, 95)) * 1e3,
            "eval_queries_per_s": self.report.n_queries * len(self.spans["eval"]) / sum(
                seconds("eval")),
            "precision_at_100": self.report.precision,
            "index_bytes_per_doc": resident_bytes(self.index) / n_docs,
            "peak_rss_mb": self.peak_rss_kib / 1024,
            "pipeline_s": sum(sum(seconds(f"cli.{c}")) for c in ("train", "index", "search", "eval")),
        }

    def per_layer(self) -> dict[str, float]:
        t = self.tracer
        with self.speed.paused():
            _, step_calls = count_python_calls(
                objectives.loss_and_gradients, self.model.encoder, self.model.books, self.batch,
                self.cfg.loss, self.seed,
            )
            search = retrieval.search_topk_hamming if self.w.mode == "hamming" else retrieval.search_topk
            _, query_calls = count_python_calls(
                search, self.index, self.values[self.test[0]], self.model, K_TOP
            )
        build = t.select("retrieval.build_index")
        return {
            "dataio.synth_mixture_s": t.median_ms("dataio.synth_mixture") / 1e3,
            "dataio.write_embeddings_s": t.total_s("dataio.write_embeddings") / len(self.spans["setup"]),
            "dataio.read_embeddings_s": t.total_s("dataio.read_embeddings"),
            "encoder.forward_batch_ms_per_1k": t.ms_per_1k_rows(
                "encoder.forward_batch", {"retrieval.build_index"}),
            "quantizer.hard_assign_batch_ms_per_1k": t.ms_per_1k_rows(
                "quantizer.hard_assign_batch", {"retrieval.build_index", "trainer.usage_histogram"}),
            "quantizer.pack_codes_batch_ms": t.median_ms("quantizer.pack_codes_batch"),
            "quantizer.unpack_codes_batch_ms": t.median_ms("quantizer.unpack_codes_batch"),
            "objectives.loss_and_gradients_ms": t.median_ms("objectives.loss_and_gradients"),
            "objectives.py_calls_per_step": step_calls,
            "trainer.adam_step_ms": t.median_ms("trainer.adam_step"),
            "trainer.usage_histogram_ms": t.median_ms("trainer.usage_histogram"),
            "trainer.save_checkpoint_ms": t.median_ms("trainer.save_checkpoint"),
            "trainer.load_checkpoint_ms": t.median_ms("trainer.load_checkpoint"),
            "retrieval.build_index_docs_per_s": sum(s.rows for s in build) / sum(
                t.duration(s) for s in build),
            "retrieval.save_index_ms": t.median_ms("retrieval.save_index"),
            "retrieval.load_index_ms": t.median_ms("retrieval.load_index"),
            "retrieval.resident_codes_bytes": _array_nbytes(self.index, "codes"),
            "retrieval.resident_packed_bytes": _array_nbytes(self.index, "packed"),
            "retrieval.resident_ids_bytes": _array_nbytes(self.index, "doc_ids"),
            "retrieval.refine_ms": t.median_ms("encoder.forward_batch", SEARCHES),
            "retrieval.build_lut_us": t.median_ms("retrieval.build_lut", SEARCHES) * 1e3,
            "retrieval.adc_distances_ms": t.median_ms("retrieval.adc_distances", SEARCHES),
            "retrieval.select_ms": t.median_self_ms("retrieval.search_topk"),
            "retrieval.search_topk_hamming_ms": t.median_ms("retrieval.search_topk_hamming"),
            "retrieval.py_calls_per_query": query_calls,
            "retrieval.distinct_codes": self.distinct_codes,
            "retrieval.kth_tie_group": float(np.median(self.tie_groups)),
            "evaluation.retrieval_eval_s": t.median_ms("evaluation.retrieval_eval") / 1e3,
            "evaluation.precision_at_k_ms": t.median_ms("evaluation.precision_at_k"),
            "cli.train_s": self.seconds_of("cli.train")[0],
            "cli.index_s": self.seconds_of("cli.index")[0],
            "cli.search_s": self.seconds_of("cli.search")[0],
            "cli.eval_s": self.seconds_of("cli.eval")[0],
        }


def run(name: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    """One run of a workload; returns the result object the benchmark prints."""
    r = Run(name, seed, seconds, trace, root)
    r.work.mkdir(parents=True, exist_ok=True)
    correct = True
    metrics: dict[str, float] = {}
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    try:
        if r.tracer is not None:
            instrument(r.tracer)
        with r.speed.sampling():
            r.setup()
            r.library()
            r.command_line()
        if r.tracer is not None:
            r.tracer.restore()
        try:
            r.check()
        except (checks.CheckFailed, LookupError, ValueError) as err:
            print(f"check failed: {err}", file=sys.stderr)
            correct = False
        metrics = r.per_layer() if trace else r.end_to_end()
        unscaled = r.end_to_end(scaled=False)
        print(f"host probe median {r.speed.median_probe_s() * 1e3:.4f} ms; unscaled: "
              + " ".join(f"{k}={v:.6g}" for k, v in unscaled.items()), file=sys.stderr)
        if trace:
            print("end-to-end while traced: " + " ".join(
                f"{k}={v:.6g}" for k, v in r.end_to_end().items()), file=sys.stderr)
    except ProgramFailed as err:
        print(f"program failed: {err}", file=sys.stderr)
        correct = False
    finally:
        if r.tracer is not None:
            r.tracer.restore()
        shutil.rmtree(r.work, ignore_errors=True)
    return {
        "correct": correct,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
