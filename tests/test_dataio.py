import os
import stat
import struct
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from micpq import dataio
from micpq.cli import main
from micpq.dataio import (
    FORMAT_VERSION,
    MAGIC_EMBEDDINGS,
    MAGIC_LABELS,
    EmbeddingFile,
    EmbeddingMatrix,
    LabelVector,
    MixtureSpec,
    non_finite_at,
    read_embeddings,
    read_labels,
    synth_mixture,
    write_embeddings,
    write_labels,
)
from micpq.errors import (
    BadMagicError,
    FileFormatError,
    IndexOutOfRangeError,
    InvalidSpecError,
    LengthMismatchError,
    MicpqError,
    NonContiguousClassesError,
    NonFiniteValueError,
    TruncatedFileError,
)
from micpq.evaluation import retrieval_eval
from micpq.retrieval import build_index, save_index
from micpq.trainer import TrainConfig, save_checkpoint, train


class TestEmbeddingFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        values = np.arange(6, dtype=np.float32).reshape(2, 3) * 0.5 - 1.0
        path = tmp_path / "m.emb"
        write_embeddings(EmbeddingMatrix(values), path)
        loaded = read_embeddings(path)
        assert loaded.values.dtype == np.float32
        assert np.array_equal(loaded.values, values)

    def test_single_cell_file_is_28_bytes(self, tmp_path):
        # 8 magic + 4 version + 8 n_docs + 4 dim + 1 float payload
        path = tmp_path / "one.emb"
        write_embeddings(EmbeddingMatrix(np.zeros((1, 1), dtype=np.float32)), path)
        assert path.stat().st_size == 28

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"XXXXXXXX" + b"\x00" * 20)
        with pytest.raises(BadMagicError):
            read_embeddings(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.emb"
        write_embeddings(
            EmbeddingMatrix(np.ones((10, 5), dtype=np.float32)), path
        )
        full = path.read_bytes()
        path.write_bytes(full[: 24 + 5 * 5 * 4])  # only 5 of 10 rows
        with pytest.raises(TruncatedFileError) as err:
            read_embeddings(path)
        assert "byte" in str(err.value)

    def test_nan_refused_at_write_time(self, tmp_path):
        values = np.ones((2, 2), dtype=np.float32)
        matrix = EmbeddingMatrix(values)
        matrix.values[1, 1] = np.nan  # corrupt after validation
        with pytest.raises(NonFiniteValueError):
            write_embeddings(matrix, tmp_path / "nan.emb")

    def test_nonfinite_payload_rejected_on_read(self, tmp_path):
        path = tmp_path / "inf.emb"
        write_embeddings(EmbeddingMatrix(np.ones((2, 2), dtype=np.float32)), path)
        raw = bytearray(path.read_bytes())
        raw[24:28] = np.array([np.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(NonFiniteValueError) as err:
            read_embeddings(path)
        assert "byte 24" in str(err.value)



class TestEmbeddingMatrix:
    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.float16, np.float64])
    def test_integer_and_floating_values_are_kept_as_float32(self, dtype):
        values = np.arange(6).reshape(2, 3).astype(dtype)
        matrix = EmbeddingMatrix(values)
        assert matrix.values.dtype == np.float32
        assert np.array_equal(matrix.values, values)

    @pytest.mark.parametrize("dtype", [np.complex64, np.bool_, np.str_, object])
    def test_other_dtypes_are_refused(self, dtype):
        # complex lost its imaginary part and bool became 0/1; str raised a bare ValueError
        with pytest.raises(InvalidSpecError, match="integer or floating"):
            EmbeddingMatrix(np.ones((2, 3)).astype(dtype))


class TestLabelVector:
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.uint64])
    def test_integer_labels_are_kept_as_uint32(self, dtype):
        labels = LabelVector(np.array([2, 0, 1, 0], dtype))
        assert labels.labels.dtype == np.uint32 and labels.labels.tolist() == [2, 0, 1, 0]

    # 1.7 was kept as 1, 1j dropped with a ComplexWarning, "a" raised a bare
    # ValueError, and 2^32 was kept as 0; -1 wrapped to 2^32 - 1
    @pytest.mark.parametrize("labels", [[0, 1.7], [0, 1 + 1j], ["a"], [1, 0, 1 << 32], [0, -1]])
    def test_labels_that_are_not_class_ids_are_refused(self, labels):
        with pytest.raises(NonContiguousClassesError, match=r"integers in \[0, 4294967296\)"):
            LabelVector(np.array(labels))

    @pytest.mark.parametrize("labels", [np.zeros((2, 2), int), np.zeros(0, int)])
    def test_labels_that_are_not_a_non_empty_vector_are_refused(self, labels):
        with pytest.raises(InvalidSpecError, match="1-D and non-empty"):
            LabelVector(labels)


class TestNonFiniteAt:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_first_bad_value_is_the_whole_mask_first(self, dtype):
        gen = np.random.default_rng(3)
        for _ in range(60):
            values = gen.normal(size=(40, 7)).astype(dtype)
            values[gen.integers(0, 40, 3), gen.integers(0, 7, 3)] = 3e38  # sums that overflow
            n_bad = int(gen.integers(0, 4))
            values[gen.integers(0, 40, n_bad), gen.integers(0, 7, n_bad)] = gen.choice(
                [np.nan, np.inf, -np.inf], n_bad)
            mask = ~np.isfinite(values)
            expected = divmod(int(np.flatnonzero(mask)[0]), 7) if mask.any() else None
            assert non_finite_at(values) == expected
            if expected is not None and dtype == np.float32:
                with pytest.raises(NonFiniteValueError,
                                   match=f"flat position {expected[0] * 7 + expected[1]}$"):
                    EmbeddingMatrix(values)


class TestRowSelectiveRead:
    """read_embeddings(path, rows) reads only the runs of the payload that
    hold the rows asked for and keeps, in the order asked, only those."""

    N_DOCS, DIM = 10, 3

    def _file(self, tmp_path):
        path = tmp_path / "r.emb"
        values = np.arange(self.N_DOCS * self.DIM, dtype=np.float32).reshape(self.N_DOCS, -1)
        write_embeddings(EmbeddingMatrix(values / 7), path)
        return path

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    @pytest.mark.parametrize("block_rows", [1, 3, 11])
    @pytest.mark.parametrize("rows", [[0, 2, 3, 9], [9, 0, 5, 1], [4, 4, 1, 4, 9, 1],
                                      list(range(10))], ids=["sorted", "unsorted", "repeated", "all"])
    def test_equals_whole_read_indexed(self, tmp_path, monkeypatch, block_rows, rows, dtype):
        path = self._file(tmp_path)
        monkeypatch.setattr(dataio, "READ_BYTES", block_rows * self.DIM * 4)
        got = read_embeddings(path, np.array(rows, dtype))
        assert got.values.dtype == np.float32
        assert np.array_equal(got.values, read_embeddings(path).values[rows])

    @pytest.mark.parametrize("rows", [[-1], [0, 10], [2**40]])
    def test_row_outside_the_file_rejected(self, tmp_path, rows):
        with pytest.raises(IndexOutOfRangeError):
            read_embeddings(self._file(tmp_path), np.array(rows))

    @pytest.mark.parametrize("rows", [np.ones(10, bool), np.array([1.0, 2.0]), np.ones((2, 2), int)],
                             ids=["mask", "float", "matrix"])
    def test_rows_that_are_not_a_vector_of_row_numbers_rejected(self, tmp_path, rows):
        with pytest.raises(InvalidSpecError):
            read_embeddings(self._file(tmp_path), rows)

    def test_only_requested_rows_are_checked_for_finiteness(self, tmp_path, monkeypatch):
        path = self._file(tmp_path)
        raw = bytearray(path.read_bytes())
        offset = 24 + (7 * self.DIM + 2) * 4  # row 7, column 2
        raw[offset:offset + 4] = np.array([np.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        monkeypatch.setattr(dataio, "READ_BYTES", 2 * self.DIM * 4)
        assert read_embeddings(path, np.array([8, 0, 6])).n_docs == 3
        with pytest.raises(NonFiniteValueError) as err:
            read_embeddings(path, np.array([1, 7, 3]))
        assert f"byte {offset}" in str(err.value)

    @pytest.mark.parametrize("run_bytes", [0, 1 << 20], ids=["run-by-run", "window"])
    def test_a_non_finite_value_names_the_lowest_bad_row(self, tmp_path, monkeypatch, run_bytes):
        path = self._file(tmp_path)
        raw = bytearray(path.read_bytes())
        for row in (2, 8):
            raw[24 + row * self.DIM * 4:24 + row * self.DIM * 4 + 4] = b"\xff\xff\xff\x7f"  # NaN
        path.write_bytes(bytes(raw))
        monkeypatch.setattr(dataio, "RUN_BYTES", run_bytes)
        with pytest.raises(NonFiniteValueError, match=f"byte {24 + 2 * self.DIM * 4} "):
            read_embeddings(path, np.array([8, 0, 2, 9]))

    def test_hostile_header_rejected_before_rows_are_used(self, tmp_path):
        path = tmp_path / "huge.emb"
        path.write_bytes(MAGIC_EMBEDDINGS + struct.pack("<IQI", FORMAT_VERSION, 2**60, 1))
        with pytest.raises(TruncatedFileError):
            read_embeddings(path, np.array([-1]))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.one_of(
            st.lists(st.integers(0, 39), min_size=1, max_size=60),  # sparse, any order, repeats
            st.tuples(st.integers(0, 39), st.integers(1, 40), st.randoms()).map(
                lambda t: t[2].sample(range(t[0], min(t[0] + t[1], 40)), min(t[1], 40 - t[0]))
            ),  # dense: a shuffled run
            st.sets(st.integers(0, 39), min_size=30).map(sorted),  # dense with holes
            st.randoms().map(lambda r: r.sample(range(4000), 256)),  # a sparse random batch
        ),
        read_rows=st.integers(1, 12),
        run_rows=st.integers(0, 40),
    )
    def test_runs_equal_the_whole_read_indexed(self, tmp_path, rows, read_rows, run_rows):
        path = tmp_path / "runs.emb"
        if not path.exists():
            values = np.random.default_rng(19).normal(size=(4000, 3)).astype(np.float32)
            write_embeddings(EmbeddingMatrix(values), path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "READ_BYTES", read_rows * 3 * 4)
            patch.setattr(dataio, "RUN_BYTES", run_rows * 3 * 4)
            got = read_embeddings(path, np.array(rows))
        whole = read_embeddings(path).values[rows]
        assert got.values.dtype == np.float32 and got.values.flags.c_contiguous
        assert got.values.tobytes() == whole.tobytes()

    def test_reads_only_the_runs_that_hold_wanted_rows(self, tmp_path, monkeypatch):
        path = tmp_path / "big.emb"
        write_embeddings(EmbeddingMatrix(np.ones((1000, 4), np.float32)), path)
        offsets = _spy_on_reads(monkeypatch)
        monkeypatch.setattr(dataio, "READ_BYTES", 32 * 16)
        assert read_embeddings(path, np.array([900, 5, 6, 20, 25, 5])).n_docs == 6
        # rows 5-25 lie in one 32-row window, where they are dense: one read
        # spans them; row 900 is read alone
        assert offsets == [24 + 5 * 16, 24 + 900 * 16]

    def test_a_sparse_pick_reads_each_run_into_place(self, tmp_path, monkeypatch):
        path = tmp_path / "wide.emb"
        values = np.random.default_rng(23).normal(size=(4000, 256)).astype(np.float32)
        write_embeddings(EmbeddingMatrix(values), path)
        rows = np.random.default_rng(24).choice(4000, 256, replace=False)
        offsets = _spy_on_reads(monkeypatch)
        out = np.empty((256, 256), np.float32)
        assert read_embeddings(path, rows, out=out).values is out
        assert out.tobytes() == values[rows].tobytes()
        # 1 KiB rows about 15 rows apart: a read per row, in file order
        assert offsets == (24 + np.sort(rows) * 1024).tolist()

    def test_out_must_fit_the_rows(self, tmp_path):
        path = self._file(tmp_path)
        for out in (np.empty((2, self.DIM), np.float32), np.empty((3, self.DIM)),
                    np.empty((self.DIM, 3), np.float32).T):
            with pytest.raises(InvalidSpecError):
                read_embeddings(path, np.array([1, 2, 3]), out=out)

    def test_every_row_is_checked_once(self, tmp_path, monkeypatch):
        path = self._file(tmp_path)
        checked = []
        monkeypatch.setattr(dataio, "non_finite_at",
                            lambda values: checked.append(len(values)) or non_finite_at(values))
        read_embeddings(path)
        assert checked == [self.N_DOCS]
        checked.clear()
        monkeypatch.setattr(dataio, "READ_BYTES", 2 * self.DIM * 4)
        assert read_embeddings(path, np.array([9, 0, 5, 5, 1])).n_docs == 5
        assert sum(checked) == 5


class TestEmbeddingFile:
    """An EmbeddingFile reads its rows only when asked, through read_embeddings."""

    def test_take_and_read_equal_the_whole_read_indexed(self, tmp_path):
        values = np.random.default_rng(20).normal(size=(30, 5)).astype(np.float32)
        write_embeddings(EmbeddingMatrix(values), tmp_path / "f.emb")
        whole = EmbeddingFile(tmp_path / "f.emb")
        assert (whole.n_docs, whole.dim, whole.shape) == (30, 5, (30, 5))
        taken = whole.take(np.array([7, 3, 3, 29, 0])).take(np.array([4, 1, 2]))
        assert taken.n_docs == 3 and np.array_equal(taken.rows, [0, 3, 3])
        assert np.array_equal(taken.read(), values[[0, 3, 3]])
        assert np.array_equal(whole.read(10, 12), values[10:12])

    def test_opening_checks_header_and_rows_only(self, tmp_path):
        path = tmp_path / "f.emb"
        write_embeddings(EmbeddingMatrix(np.ones((4, 2), np.float32)), path)
        raw = bytearray(path.read_bytes())
        raw[24:28] = np.array([np.nan], dtype="<f4").tobytes()  # row 0
        path.write_bytes(bytes(raw))
        source = EmbeddingFile(path, np.array([3, 1]))
        assert np.array_equal(source.read(), np.ones((2, 2), np.float32))
        with pytest.raises(NonFiniteValueError, match="byte 24 "):
            EmbeddingFile(path).read()
        with pytest.raises(IndexOutOfRangeError):
            EmbeddingFile(path, np.array([4]))
        path.write_bytes(bytes(raw[:-1]))
        with pytest.raises(TruncatedFileError):
            EmbeddingFile(path)


def _spy_on_reads(monkeypatch) -> list[int]:
    """The file offsets of the reads ``read_embeddings`` makes from now on:
    ``os.preadv`` for a dense window, ``os.pread`` for each other run."""
    offsets, pread, preadv = [], os.pread, os.preadv

    def spy_pread(fd, size, offset):
        offsets.append(offset)
        return pread(fd, size, offset)

    def spy_preadv(fd, buffers, offset):
        offsets.append(offset)
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(dataio.os, "pread", spy_pread)
    monkeypatch.setattr(dataio.os, "preadv", spy_preadv)
    return offsets


class TestLabelFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "l.lbl"
        write_labels(LabelVector(np.array([0, 1, 0], dtype=np.uint32)), path)
        assert np.array_equal(read_labels(path).labels, [0, 1, 0])

    def test_gap_in_class_ids_rejected(self):
        with pytest.raises(NonContiguousClassesError):
            LabelVector(np.array([0, 2], dtype=np.uint32))

    def test_length_mismatch_against_embeddings(self, tmp_path):
        path = tmp_path / "l.lbl"
        write_labels(LabelVector(np.array([0, 1, 1], dtype=np.uint32)), path)
        with pytest.raises(LengthMismatchError):
            read_labels(path, expected_n_docs=2)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lbl"
        path.write_bytes(b"NOTLABEL" + b"\x00" * 16)
        with pytest.raises(BadMagicError):
            read_labels(path)


class TestHostileHeaders:
    """Headers whose declared payload the file does not hold are rejected
    by size before any payload read."""

    def _crafted_embeddings(self, tmp_path):
        path = tmp_path / "huge.emb"
        path.write_bytes(MAGIC_EMBEDDINGS + struct.pack("<IQI", FORMAT_VERSION, 2**60, 1))
        return path

    def test_embeddings_declaring_2_to_60_docs(self, tmp_path):
        with pytest.raises(TruncatedFileError):
            read_embeddings(self._crafted_embeddings(tmp_path))

    def test_labels_declaring_2_to_61_docs(self, tmp_path):
        path = tmp_path / "huge.lbl"
        path.write_bytes(MAGIC_LABELS + struct.pack("<IQ", FORMAT_VERSION, 2**61))
        with pytest.raises(TruncatedFileError):
            read_labels(path)

    def test_trailing_byte_rejected(self, tmp_path):
        emb, lbl = tmp_path / "x.emb", tmp_path / "x.lbl"
        write_embeddings(EmbeddingMatrix(np.ones((3, 2), dtype=np.float32)), emb)
        write_labels(LabelVector(np.array([0, 1, 0], dtype=np.uint32)), lbl)
        for path, read in ((emb, read_embeddings), (lbl, read_labels)):
            path.write_bytes(path.read_bytes() + b"\0")
            with pytest.raises(FileFormatError):
                read(path)

    def test_cli_train_on_crafted_embeddings_is_runtime_error(self, tmp_path, capsys):
        code = main(["train", "--emb", str(self._crafted_embeddings(tmp_path)), "--M", "2",
                     "--K", "4", "--out", str(tmp_path / "m.ckpt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_cli_index_on_crafted_embeddings_is_runtime_error(self, tmp_path, capsys):
        emb, _ = synth_mixture(
            MixtureSpec(n_docs=20, dim=1, n_classes=2, separation=5.0, noise_sigma=1.0, seed=3)
        )
        state, _ = train(TrainConfig(n_codebooks=2, n_codewords=4, sub_dim=2, batch_size=8,
                                     n_epochs=1, seed=2), emb)
        save_checkpoint(state, tmp_path / "m.ckpt")
        code = main(["index", "--ckpt", str(tmp_path / "m.ckpt"),
                     "--emb", str(self._crafted_embeddings(tmp_path)),
                     "--out", str(tmp_path / "m.idx")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "m.idx").exists()


_FUZZ = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])
_EMB_PAYLOAD_AT, _LBL_PAYLOAD_AT = 24, 20  # magic | version, n_docs(, dim) | payload
_ROWS = st.lists(st.integers(-2, (1 << 63) - 1), max_size=4)


def _embedding_bytes(tmp_path):
    """A 6 x 4 embedding file."""
    values = np.random.default_rng(6).normal(size=(6, 4)).astype(np.float32)
    write_embeddings(EmbeddingMatrix(values), tmp_path / "src.emb")
    return (tmp_path / "src.emb").read_bytes()


def _label_bytes(tmp_path):
    """A 7-document label file over 3 classes."""
    write_labels(LabelVector(np.array([0, 1, 2, 0, 1, 2, 0], dtype=np.uint32)),
                 tmp_path / "src.lbl")
    return (tmp_path / "src.lbl").read_bytes()


def _read_or_micpq_error(read, path, *args):
    """What ``read(path, *args)`` returns, or None when it raised a
    MicpqError; any other exception fails the test."""
    try:
        return read(path, *args)
    except MicpqError:
        return None


class TestLoaderFuzz:
    """Malformed or hostile embedding and label files, read whole or by
    rows, give a matrix or a MicpqError: never a MemoryError, an
    OverflowError or another traceback."""

    @pytest.mark.parametrize("region", ["magic", "header", "payload"])
    @pytest.mark.parametrize("rows", [None, [5, 0, 2]])
    @_FUZZ
    @given(data=st.data())
    def test_embedding_truncation_in_every_region_raises(self, tmp_path, region, rows, data):
        raw = _embedding_bytes(tmp_path)
        lo, hi = {"magic": (0, 8), "header": (8, _EMB_PAYLOAD_AT),
                  "payload": (_EMB_PAYLOAD_AT, len(raw))}[region]
        (tmp_path / "cut.emb").write_bytes(raw[:data.draw(st.integers(lo, hi - 1))])
        with pytest.raises(MicpqError):
            read_embeddings(tmp_path / "cut.emb", rows)

    @pytest.mark.parametrize("region", ["magic", "header", "payload"])
    @_FUZZ
    @given(data=st.data())
    def test_label_truncation_in_every_region_raises(self, tmp_path, region, data):
        raw = _label_bytes(tmp_path)
        lo, hi = {"magic": (0, 8), "header": (8, _LBL_PAYLOAD_AT),
                  "payload": (_LBL_PAYLOAD_AT, len(raw))}[region]
        (tmp_path / "cut.lbl").write_bytes(raw[:data.draw(st.integers(lo, hi - 1))])
        with pytest.raises(MicpqError):
            read_labels(tmp_path / "cut.lbl")

    @_FUZZ
    @given(flips=st.lists(st.tuples(st.integers(0, _EMB_PAYLOAD_AT - 1), st.integers(1, 255)),
                          min_size=1, max_size=3, unique_by=lambda flip: flip[0]),
           rows=st.none() | _ROWS)
    def test_flipped_embedding_header_bytes_raise_or_describe_the_same_bytes(
            self, tmp_path, flips, rows):
        # n_docs and dim can change and keep their product (6 x 4 read as 4 x 6,
        # say): such a file loads, and writing it again gives its bytes
        raw = bytearray(_embedding_bytes(tmp_path))
        for at, mask in flips:
            raw[at] ^= mask
        (tmp_path / "flip.emb").write_bytes(bytes(raw))
        loaded = _read_or_micpq_error(read_embeddings, tmp_path / "flip.emb", rows)
        if loaded is not None and rows is None:
            write_embeddings(loaded, tmp_path / "again.emb")
            assert (tmp_path / "again.emb").read_bytes() == bytes(raw)

    @_FUZZ
    @given(flips=st.lists(st.tuples(st.integers(0, _LBL_PAYLOAD_AT - 1), st.integers(1, 255)),
                          min_size=1, max_size=3, unique_by=lambda flip: flip[0]))
    def test_flipped_label_header_bytes_raise(self, tmp_path, flips):
        raw = bytearray(_label_bytes(tmp_path))
        for at, mask in flips:
            raw[at] ^= mask
        (tmp_path / "flip.lbl").write_bytes(bytes(raw))
        with pytest.raises(MicpqError):
            read_labels(tmp_path / "flip.lbl")

    @_FUZZ
    @given(n_docs=st.integers(0, (1 << 64) - 1), dim=st.integers(0, (1 << 32) - 1),
           rows=st.none() | _ROWS)
    @example(n_docs=(1 << 62), dim=4, rows=[0])
    def test_oversized_embedding_counts_raise(self, tmp_path, n_docs, dim, rows):
        raw = bytearray(_embedding_bytes(tmp_path))
        raw[12:24] = struct.pack("<QI", n_docs, dim)
        (tmp_path / "big.emb").write_bytes(bytes(raw))
        if n_docs * dim != 24:  # 6 x 4 values in the payload
            with pytest.raises(MicpqError):
                read_embeddings(tmp_path / "big.emb", rows)

    @_FUZZ
    @given(n_docs=st.integers(0, (1 << 64) - 1), expected=st.none() | st.integers(0, 9))
    @example(n_docs=0, expected=None)
    def test_oversized_label_counts_raise(self, tmp_path, n_docs, expected):
        raw = bytearray(_label_bytes(tmp_path))
        raw[12:20] = struct.pack("<Q", n_docs)
        (tmp_path / "big.lbl").write_bytes(bytes(raw))
        if n_docs != 7:
            with pytest.raises(MicpqError):
                read_labels(tmp_path / "big.lbl", expected)

    @_FUZZ
    @given(n_docs=st.integers(0, (1 << 64) - 1), dim=st.integers(0, (1 << 32) - 1),
           payload=st.binary(max_size=64), rows=st.none() | _ROWS)
    # empty matrices, whose size check passes with no payload at any count
    @example(n_docs=0, dim=(1 << 32) - 1, payload=b"", rows=None)
    @example(n_docs=(1 << 64) - 1, dim=0, payload=b"", rows=None)
    def test_any_embedding_file_loads_or_raises_a_micpq_error(self, tmp_path, n_docs, dim,
                                                              payload, rows):
        path = tmp_path / "any.emb"
        path.write_bytes(MAGIC_EMBEDDINGS + struct.pack("<IQI", FORMAT_VERSION, n_docs, dim)
                         + payload)
        loaded = _read_or_micpq_error(read_embeddings, path, rows)
        if loaded is not None:
            assert loaded.values.shape == (n_docs if rows is None else len(rows), dim)

    @_FUZZ
    @given(n_docs=st.integers(0, (1 << 64) - 1), payload=st.binary(max_size=64))
    @example(n_docs=2, payload=b"\xff" * 8)  # class ids 2^32 - 1
    def test_any_label_file_loads_or_raises_a_micpq_error(self, tmp_path, n_docs, payload):
        path = tmp_path / "any.lbl"
        path.write_bytes(MAGIC_LABELS + struct.pack("<IQ", FORMAT_VERSION, n_docs) + payload)
        loaded = _read_or_micpq_error(read_labels, path)
        if loaded is not None:
            assert loaded.n_docs == n_docs == len(payload) // 4


class TestSynthMixture:
    def test_separated_classes_have_smaller_within_distances(self):
        spec = MixtureSpec(n_docs=4, dim=2, n_classes=2, separation=10.0,
                           noise_sigma=0.1, seed=7)
        emb, labels = synth_mixture(spec)
        assert np.array_equal(labels.labels, [0, 1, 0, 1])
        v = emb.values.astype(np.float64)
        within = [np.linalg.norm(v[0] - v[2]), np.linalg.norm(v[1] - v[3])]
        between = [
            np.linalg.norm(v[i] - v[j]) for i in (0, 2) for j in (1, 3)
        ]
        assert max(within) < min(between)

    def test_zero_separation_shares_one_center(self):
        spec = MixtureSpec(n_docs=4000, dim=3, n_classes=2, separation=0.0,
                           noise_sigma=1.0, seed=3)
        emb, labels = synth_mixture(spec)
        means = [emb.values[labels.labels == c].mean(axis=0) for c in (0, 1)]
        # same center, so class-conditional means agree up to sampling noise
        np.testing.assert_allclose(means[0], means[1], atol=0.15)

    def test_deterministic(self):
        spec = MixtureSpec(n_docs=50, dim=8, n_classes=3, separation=5.0,
                           noise_sigma=0.5, seed=99)
        emb1, lbl1 = synth_mixture(spec)
        emb2, lbl2 = synth_mixture(spec)
        assert np.array_equal(emb1.values, emb2.values)
        assert np.array_equal(lbl1.labels, lbl2.labels)

    def test_round_robin_counts_differ_by_at_most_one(self):
        spec = MixtureSpec(n_docs=10, dim=2, n_classes=3, separation=1.0,
                           noise_sigma=1.0, seed=0)
        _, labels = synth_mixture(spec)
        counts = np.bincount(labels.labels)
        assert counts.max() - counts.min() <= 1

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidSpecError):
            MixtureSpec(n_docs=2, dim=2, n_classes=3, separation=1.0,
                        noise_sigma=1.0, seed=0)
        with pytest.raises(InvalidSpecError):
            MixtureSpec(n_docs=2, dim=2, n_classes=2, separation=-1.0,
                        noise_sigma=1.0, seed=0)
        with pytest.raises(InvalidSpecError):
            MixtureSpec(n_docs=2, dim=2, n_classes=2, separation=1.0,
                        noise_sigma=0.0, seed=0)

    def test_exact_nearest_neighbor_is_class_pure_when_well_separated(self):
        # upstream sanity oracle for the retrieval tests
        spec = MixtureSpec(n_docs=300, dim=16, n_classes=4, separation=20.0,
                           noise_sigma=1.0, seed=5)
        emb, labels = synth_mixture(spec)
        v = emb.values.astype(np.float64)
        d2 = ((v[:, None, :] - v[None, :, :]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        nearest = d2.argmin(axis=1)
        assert np.all(labels.labels[nearest] == labels.labels)


class _HalfWrite:
    """A file whose first write stores half its data and then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        self.f.flush()
        raise OSError("disk full")


@pytest.fixture(scope="module")
def writers():
    """Each of micpq's six file writers, as a function of the target path."""
    emb, labels = synth_mixture(
        MixtureSpec(n_docs=40, dim=4, n_classes=2, separation=5.0, noise_sigma=1.0, seed=1)
    )
    state, log = train(TrainConfig(n_codebooks=2, n_codewords=4, sub_dim=2, batch_size=16,
                                   n_epochs=1, seed=2), emb)
    index = build_index(state, emb)
    report = retrieval_eval(state, emb, labels, k=3)
    return {
        "embeddings": lambda path: write_embeddings(emb, path),
        "labels": lambda path: write_labels(labels, path),
        "checkpoint": lambda path: save_checkpoint(state, path),
        "log": log.write,
        "index": lambda path: save_index(index, path),
        "report": report.write,
    }


class TestAtomicWrites:
    """A writer replaces its target in one step, so a write that fails
    part-way leaves the previous file as it was and no temporary file."""

    @pytest.mark.parametrize(
        "name", ["embeddings", "labels", "checkpoint", "log", "index", "report"]
    )
    def test_failed_write_keeps_the_previous_file(self, writers, name, tmp_path, monkeypatch):
        target = tmp_path / "out"
        target.write_bytes(b"previous contents\n")
        monkeypatch.setattr(dataio, "open", lambda *a, **kw: _HalfWrite(open(*a, **kw)),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            writers[name](target)
        assert target.read_bytes() == b"previous contents\n"
        assert os.listdir(tmp_path) == ["out"]

        monkeypatch.undo()
        writers[name](target)
        assert target.read_bytes() != b"previous contents\n"
        assert os.listdir(tmp_path) == ["out"]

    def test_symlink_target_is_replaced_and_link_kept(self, writers, tmp_path):
        real = tmp_path / "real.txt"
        real.write_text("old\n")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        writers["report"](link)
        assert link.is_symlink()
        assert real.read_text().startswith("precision_at_3=")

    def test_pipe_is_written_in_place(self, writers, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        writers["report"](fifo)
        reader.join(timeout=10)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert received and received[0].startswith(b"precision_at_3=")
