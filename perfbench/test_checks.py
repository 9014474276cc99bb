"""Each benchmark check accepts micpq's real output and rejects a
deliberately corrupted copy of it.

    python3 -m pytest perfbench/test_checks.py
"""
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from micpq import dataio, retrieval, trainer  # noqa: E402

K = 20


def _setup(tmp_path, n_codebooks, n_codewords):
    emb, labels = dataio.synth_mixture(dataio.MixtureSpec(600, 16, 5, 1.0, 1.0, seed=3))
    cfg = trainer.TrainConfig(n_codebooks=n_codebooks, n_codewords=n_codewords, sub_dim=4, seed=5)
    model = trainer.init_model(cfg, emb.values[:256])
    rows = np.arange(20, 600)
    index = retrieval.build_index(model, dataio.EmbeddingMatrix(emb.values[rows]), ids=rows.astype(np.uint64))
    retrieval.save_index(index, tmp_path / "x.idx")
    trainer.save_checkpoint(model, tmp_path / "x.ckpt")
    search = retrieval.search_topk_hamming if n_codewords == 2 else retrieval.search_topk
    results = [tuple(zip(*search(index, emb.values[q], model, K))) for q in range(8)]
    parsed = checks.parse_index_file(tmp_path / "x.idx")
    ckpt = checks.parse_checkpoint_file(tmp_path / "x.ckpt")
    refined = checks.refine(ckpt["weight"], ckpt["bias"], emb.values[:8])
    return {
        "emb": emb, "labels": labels, "index": index, "model": model, "rows": rows,
        "results": results, "file": parsed, "ckpt": ckpt, "refined": refined,
        "path": tmp_path / "x.idx",
    }


@pytest.fixture(scope="module")
def adc(tmp_path_factory):
    return _setup(tmp_path_factory.mktemp("adc"), 4, 16)


@pytest.fixture(scope="module")
def hamming(tmp_path_factory):
    return _setup(tmp_path_factory.mktemp("hamming"), 8, 2)


def _corrupt(results, q, ids=None, dists=None):
    out = list(results)
    out[q] = (tuple(ids if ids is not None else results[q][0]),
              tuple(dists if dists is not None else results[q][1]))
    return out


# --- ADC ---------------------------------------------------------------------

def _check_adc(s, results):
    books = s["file"]["books"]
    ref = checks.reference_distances(s["refined"], books, s["file"]["codes"])
    tols = [checks.rounding_tolerance(q, books) for q in s["refined"]]
    checks.check_adc(results, ref, tols, s["file"]["doc_ids"], K)


def test_adc_accepts_program_results(adc):
    _check_adc(adc, adc["results"])


def _distinct_ranks(results, q):
    """Two ranks of query q whose distances clearly differ."""
    dists = np.array(results[q][1])
    return 0, int(np.flatnonzero(dists > dists[0] * 1.01 + 1e-3)[0])


@pytest.mark.parametrize("corruption", ["swap", "distance", "foreign_id", "short", "duplicate"])
def test_adc_rejects_corrupted_results(adc, corruption):
    ids, dists = map(list, adc["results"][3])
    if corruption == "swap":
        a, b = _distinct_ranks(adc["results"], 3)
        ids[a], ids[b] = ids[b], ids[a]
    elif corruption == "distance":
        dists[5] *= 1.001
    elif corruption == "foreign_id":
        outside = sorted(set(adc["rows"].tolist()) - set(ids))
        ids[2] = outside[-1]
    elif corruption == "short":
        ids, dists = ids[:-1], dists[:-1]
    else:
        ids[4] = ids[3]
    with pytest.raises(checks.CheckFailed):
        _check_adc(adc, _corrupt(adc["results"], 3, ids, dists))


# --- Hamming -----------------------------------------------------------------

def _check_hamming(s, results):
    books = s["file"]["books"]
    codes = [checks.hamming_query_codes(q, books, checks.rounding_tolerance(q, books))
             for q in s["refined"]]
    checks.check_hamming(results, codes, s["file"]["packed"], s["file"]["doc_ids"], K)


def test_hamming_accepts_program_results(hamming):
    _check_hamming(hamming, hamming["results"])


@pytest.mark.parametrize("corruption", ["distance", "tie_order", "foreign_id"])
def test_hamming_rejects_corrupted_results(hamming, corruption):
    ids, dists = map(list, hamming["results"][2])
    if corruption == "distance":
        dists[7] += 1
    elif corruption == "tie_order":
        r = next(r for r in range(1, len(ids)) if dists[r] == dists[r - 1])
        ids[r], ids[r - 1] = ids[r - 1], ids[r]
    else:
        outside = sorted(set(hamming["rows"].tolist()) - set(ids))
        ids[-1] = outside[-1]
    with pytest.raises(checks.CheckFailed):
        _check_hamming(hamming, _corrupt(hamming["results"], 2, ids, dists))


# --- stored codes, index round trip ---------------------------------------------

def _check_nearest(s, codes):
    ckpt = s["ckpt"]
    checks.check_nearest_codes(
        ckpt["weight"], ckpt["bias"], s["emb"].values[s["rows"]], s["file"]["books"], codes
    )


def test_nearest_codes_accepts_stored_codes(adc):
    _check_nearest(adc, adc["file"]["codes"])


def test_nearest_codes_rejects_a_changed_code(adc):
    codes = adc["file"]["codes"].copy()
    codes[17, 2] = (codes[17, 2] + 1) % 16
    with pytest.raises(checks.CheckFailed):
        _check_nearest(adc, codes)


def test_same_index_accepts_loaded_index(adc):
    loaded = retrieval.load_index(adc["path"])
    index = adc["index"]
    built = {"books": index.books.books, "doc_ids": index.doc_ids, "codes": index.codes}
    checks.check_same_index(adc["file"], built, "file")
    checks.check_same_index(
        {"books": loaded.books.books, "doc_ids": loaded.doc_ids, "codes": loaded.codes}, built, "load")


@pytest.mark.parametrize("key", ["books", "doc_ids", "codes"])
def test_same_index_rejects_a_changed_array(adc, key):
    changed = {k: np.array(v, copy=True) for k, v in adc["file"].items() if k != "packed"}
    changed[key].flat[11] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_same_index(changed, adc["file"], "changed")


def test_index_parser_rejects_trailing_bytes(tmp_path):
    emb, _ = dataio.synth_mixture(dataio.MixtureSpec(40, 8, 2, 1.0, 1.0, seed=1))
    model = trainer.init_model(trainer.TrainConfig(n_codebooks=2, n_codewords=4, sub_dim=2), emb.values)
    retrieval.save_index(retrieval.build_index(model, emb), tmp_path / "y.idx")
    with open(tmp_path / "y.idx", "ab") as f:
        f.write(b"\0")
    with pytest.raises(checks.CheckFailed):
        checks.parse_index_file(tmp_path / "y.idx")


# --- precision, training, CLI output ------------------------------------------------

def test_precision_matches_recomputation_and_rejects_a_wrong_value(adc):
    labels = adc["labels"].labels
    ids = [r[0] for r in adc["results"]]
    value = checks.recompute_precision(ids, labels[:8], labels, K)
    hits = [np.mean([labels[i] == labels[q] for i in ids[q]]) for q in range(8)]
    checks.check_precision(float(np.mean(hits)), value, 1e-12, "ok")
    with pytest.raises(checks.CheckFailed):
        checks.check_precision(value + 0.01, value, 1e-12, "off")
    with pytest.raises(checks.CheckFailed):
        checks.check_precision(float("nan"), value, 1e-12, "nan")


def test_training_check_accepts_falling_loss_and_rejects_bad_runs():
    checks.check_training([3.0, 2.5, 2.0], [2.9, 2.4, 1.9], "ok")
    for contrastive, totals in (([3.0, 3.1], [3.0, 3.0]), ([3.0, float("nan")], [3.0, 2.0]),
                                ([3.0, 2.0], [float("inf"), 2.0]), ([3.0], [3.0])):
        with pytest.raises(checks.CheckFailed):
            checks.check_training(contrastive, totals, "bad")


def test_train_log_parser_reads_micpq_log_lines(tmp_path):
    emb, _ = dataio.synth_mixture(dataio.MixtureSpec(64, 8, 2, 5.0, 1.0, seed=1))
    cfg = trainer.TrainConfig(n_codebooks=2, n_codewords=4, sub_dim=2, n_epochs=2, batch_size=32)
    _, log = trainer.train(cfg, emb)
    log.write(tmp_path / "t.log")
    contrastive, totals = checks.parse_train_log((tmp_path / "t.log").read_text())
    assert contrastive == pytest.approx([r.contrastive_loss for r in log.records], abs=1e-6)
    assert totals == pytest.approx([r.total_loss for r in log.records], abs=1e-6)


def _cli_text(results, hamming=False):
    return "\n".join(
        f"{q}\t{rank}\t{doc}\t{int(d) if hamming else format(d, '.6f')}"
        for q, (ids, dists) in enumerate(results)
        for rank, (doc, d) in enumerate(zip(ids, dists), start=1)
    )


@pytest.mark.parametrize("corruption", [None, "id", "distance", "missing_query"])
def test_cli_search_check(adc, corruption):
    results = adc["results"][:4]
    text = _cli_text(results)
    lines = text.splitlines()
    if corruption == "id":
        q, rank, doc, dist = lines[3].split("\t")
        lines[3] = "\t".join((q, rank, str(int(doc) + 1), dist))
    elif corruption == "distance":
        q, rank, doc, dist = lines[5].split("\t")
        lines[5] = "\t".join((q, rank, doc, f"{float(dist) + 1e-5:.6f}"))
    elif corruption == "missing_query":
        lines = [line for line in lines if not line.startswith("3\t")]
    parsed = checks.parse_search_output("\n".join(lines))
    if corruption is None:
        checks.check_cli_search(parsed, results, hamming=False)
    else:
        with pytest.raises(checks.CheckFailed):
            checks.check_cli_search(parsed, results, hamming=False)
