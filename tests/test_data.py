import codecs
import csv
import struct
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcel import data as datamod
from mcel.data import (
    LabeledDataset,
    check_fractions,
    check_noise_fractions,
    check_pairs,
    gen_blobs,
    inject_pairwise_noise,
    load_csv,
    load_idx,
    split,
    standardize,
)
from mcel.errors import DataFormatError, DimensionError


def save_csv(data, path):
    """Write a dataset in the load_csv format (label column last)."""
    names = data.feature_names or tuple(f"f{i}" for i in range(data.dim))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["label"])
        for x, y in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in x] + [int(y)])


class TestLoadCsv:
    def test_hand_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x,y,label\n1,2,cat\n3,4,dog\n5,6,cat\n")
        data, mapping = load_csv(path, "label")
        assert np.array_equal(data.features, [[1, 2], [3, 4], [5, 6]])
        assert list(data.labels) == [0, 1, 0]
        assert mapping == {"cat": 0, "dog": 1}
        assert data.feature_names == ("x", "y")

    def test_missing_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,label\n1,2,a\n3,b\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_csv(path, "label")

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,label\n1,huh,a\n")
        with pytest.raises(DataFormatError, match="line 2.*'y'"):
            load_csv(path, "label")

    def test_non_numeric_cell_after_a_middle_label(self, tmp_path):
        path = tmp_path / "mid.csv"
        path.write_text("x,label,y,z\n1,a,2,3\n4,b,5,6\n")
        data, mapping = load_csv(path, "label")
        assert np.array_equal(data.features, [[1, 2, 3], [4, 5, 6]])
        assert mapping == {"a": 0, "b": 1} and data.feature_names == ("x", "y", "z")
        path.write_text("x,label,y,z\n1,a,2,3\n4,b,5,6\n7,c,8,oops\n")
        want = r"mid.csv: line 4: non-numeric value 'oops' in column 'z'$"
        with pytest.raises(DataFormatError, match=want):
            load_csv(path, "label")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_csv(path, "label")

    @pytest.mark.parametrize("text", ["label\n0\n1\n", "label\n"], ids=["rows", "header-only"])
    def test_no_feature_column(self, tmp_path, text):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        want = r"labels.csv: no feature column besides 'label'$"
        with pytest.raises(DataFormatError, match=want):
            load_csv(path, "label")

    def test_non_finite_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        for cell in ("nan", "inf", "-inf", "1e999"):
            path.write_text(f"x,y,label\n1,2,a\n3,{cell},b\n")
            want = r"bad.csv: line 3: non-finite value -?(nan|inf) in column 'y'"
            with pytest.raises(DataFormatError, match=want):
                load_csv(path, "label")

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x,label\n1,a\n2,b\xff\n")
        with pytest.raises(DataFormatError, match="bad.csv: line 3, byte 4"):
            load_csv(path, "label")

    def test_round_trip_large(self, tmp_path):
        data = gen_blobs(4, 2500, 3, seed=11)
        path = tmp_path / "big.csv"
        save_csv(data, path)
        loaded, _ = load_csv(path, "label")
        assert np.array_equal(loaded.features, data.features)
        assert np.array_equal(loaded.labels, data.labels)


def write_idx_pair(tmp_path, pixels, labels, image_magic=0x803, label_magic=0x801):
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(struct.pack(">IIII", image_magic, n, rows, cols) + pixels.tobytes())
    lab.write_bytes(struct.pack(">II", label_magic, len(labels)) + bytes(labels))
    return img, lab


class TestLoadIdx:
    def test_minimal_pair(self, tmp_path):
        pixels = np.array(
            [[[0, 255], [128, 64]], [[255, 0], [0, 255]]], dtype=np.uint8
        )
        img, lab = write_idx_pair(tmp_path, pixels, [1, 0])
        data = load_idx(img, lab)
        assert data.features.shape == (2, 4)
        assert np.allclose(data.features[0], [0.0, 1.0, 128 / 255, 64 / 255])
        assert data.features[1, 0] == 1.0 and data.features[1, 1] == 0.0
        assert list(data.labels) == [1, 0]

    def test_wrong_label_magic(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, pixels, [0], label_magic=0x803)
        with pytest.raises(DataFormatError, match="label magic"):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        pixels = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, pixels, [0])
        with pytest.raises(DataFormatError, match="count"):
            load_idx(img, lab)

    def test_truncated(self, tmp_path):
        pixels = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, pixels, [0, 1])
        img.write_bytes(img.read_bytes()[:-3])
        with pytest.raises(DataFormatError, match="offset"):
            load_idx(img, lab)

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_trailing_bytes_rejected(self, tmp_path, which):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
        path, offset = (img, 16 + 8) if which == "images" else (lab, 8 + 2)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00")
        with pytest.raises(DataFormatError,
                           match=rf"{path.name}: 3 bytes of trailing data at offset {offset}$"):
            load_idx(img, lab)

    def test_oversized_header(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0])
        img.write_bytes(struct.pack(">IIII", 0x803, 2**31, 2**31, 2**31) + bytes(4))
        with pytest.raises(DataFormatError, match="needs"):
            load_idx(img, lab)

    def test_zero_count(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((0, 2, 2)), [])
        with pytest.raises(DataFormatError, match="empty"):
            load_idx(img, lab)

    def test_class_gap(self, tmp_path):
        # k is the largest label + 1, so labels 0 and 2 leave class 1 empty
        img, lab = write_idx_pair(tmp_path, np.zeros((4, 2, 2)), [0, 2, 0, 2])
        with pytest.raises(DataFormatError, match=r"lab\.idx: no sample has label 1"):
            load_idx(img, lab)


def read_bytes_as(loader, *files):
    """Run loader on temporary files holding the given bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, raw in enumerate(files):
            paths.append(Path(tmp) / f"f{i}")
            paths[-1].write_bytes(raw)
        return loader(*paths)


def apply_edits(raw, edits):
    raw = bytearray(raw)
    for offset, value in edits:
        raw[offset % len(raw):offset % len(raw) + len(value)] = value
    return bytes(raw)


IDX_IMAGES = struct.pack(">IIII", 0x803, 3, 2, 2) + bytes(range(0, 240, 20))
IDX_LABELS = struct.pack(">II", 0x801, 3) + bytes([0, 2, 1])
CSV_TEXT = b"x,y,label\n1.5,-2,cat\n3,4e-3,dog\n0.25,7,cat\n"
# tokens a mutation may write: bad numbers, CSV syntax and bytes that are not UTF-8
TOKENS = [b"nan", b"inf", b"-inf", b"1e999", b",", b"\n", b'"', b"\x00", b"\xff", b"\xc3",
          b"\r", b"\r\n", b" ", b"_", b'""', b"\n\n", b"\x1c", b"#"]


def load_idx_or_reject(images, labels):
    """Load an IDX pair; a clean load must be a consistent dataset."""
    try:
        data = read_bytes_as(load_idx, images, labels)
    except DataFormatError:
        return
    assert data.n >= 1 and data.dim >= 1
    assert np.all((data.features >= 0.0) & (data.features <= 1.0))
    assert np.all(np.bincount(data.labels, minlength=data.k) > 0)


def csv_outcome(path):
    """A clean load's feature bytes, labels, mapping and names, or the error message."""
    try:
        data, mapping = load_csv(path, "label")
    except DataFormatError as exc:
        return str(exc)
    assert np.all(np.isfinite(data.features))
    assert len(data.feature_names) == data.dim and data.k == len(mapping)
    return (data.features.tobytes(), data.features.shape, data.labels.tolist(), mapping,
            data.feature_names)


def load_csv_or_reject(raw):
    """load_csv's outcome on the bytes, which must equal the outcome with
    numpy's reader refused, so that the csv module reads the file."""
    def both_ways(path):
        fast = csv_outcome(path)
        with mock.patch.object(datamod, "_loadtxt_rows", side_effect=ValueError):
            return fast, csv_outcome(path)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fast, slow = read_bytes_as(both_ways, raw)
    assert fast == slow and caught == []  # the reader warns of nothing
    return fast


class TestReaderProperties:
    def test_every_idx_truncation(self):
        for cut in range(len(IDX_IMAGES)):
            with pytest.raises(DataFormatError):
                read_bytes_as(load_idx, IDX_IMAGES[:cut], IDX_LABELS)
        for cut in range(len(IDX_LABELS)):
            with pytest.raises(DataFormatError):
                read_bytes_as(load_idx, IDX_IMAGES, IDX_LABELS[:cut])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.booleans(),  # which file: images or labels
                st.sampled_from([4, 8, 12]),  # a size word
                st.integers(0, 8) | st.integers(0, 2**32 - 1),  # near the true sizes, or any
            ).map(lambda e: (e[0], e[1], struct.pack(">I", e[2])))
            | st.tuples(st.booleans(), st.integers(0, 27), st.binary(min_size=1, max_size=1)),
            min_size=1, max_size=4,
        )
    )
    def test_idx_mutations(self, edits):
        images = apply_edits(IDX_IMAGES, [(o, v) for is_img, o, v in edits if is_img])
        labels = apply_edits(IDX_LABELS, [(o, v) for is_img, o, v in edits if not is_img])
        load_idx_or_reject(images, labels)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=3, max_size=3))
    def test_idx_label_mutations(self, values):
        # any label bytes: a load has a sample of every class below k
        labels = IDX_LABELS[:8] + bytes(values)
        try:
            data = read_bytes_as(load_idx, IDX_IMAGES, labels)
        except DataFormatError as exc:
            assert "no sample has label" in str(exc)
            assert set(range(max(values))) - set(values)
            return
        assert data.k == max(values) + 1 and np.all(np.bincount(data.labels, minlength=data.k) > 0)

    def test_every_csv_truncation(self):
        for cut in range(len(CSV_TEXT)):
            load_csv_or_reject(CSV_TEXT[:cut])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, len(CSV_TEXT) - 1),
                st.sampled_from(TOKENS) | st.binary(min_size=1, max_size=2),
            ),
            min_size=1, max_size=4,
        )
    )
    def test_csv_mutations(self, edits):
        load_csv_or_reject(apply_edits(CSV_TEXT, edits))

    def test_numpy_reads_a_clean_file(self):
        quoted = b'x,"y",label\r\n"1.5",-2,"c""a#t"\r\n3,4e-3,"dog,\n too"\r\n'
        for raw in (CSV_TEXT, quoted):
            with mock.patch.object(datamod, "_csv_module_rows", side_effect=AssertionError):
                fast = read_bytes_as(csv_outcome, raw)
            assert fast == load_csv_or_reject(raw)
        assert fast[3] == {'c"a#t': 0, "dog,\n too": 1}

    def test_byte_order_mark(self):
        # Excel's "CSV UTF-8" export and Notepad start a file with one
        raw = codecs.BOM_UTF8 + b"label,x\ncat,1\ndog,2\n"
        with mock.patch.object(datamod, "_csv_module_rows", side_effect=AssertionError):
            fast = read_bytes_as(csv_outcome, raw)
        assert fast == load_csv_or_reject(raw)  # the csv module reads it alike
        assert fast[2:] == ([0, 1], {"cat": 0, "dog": 1}, ("x",))
        # a byte number counts the mark's 3 bytes
        assert load_csv_or_reject(codecs.BOM_UTF8 + b"label,x\xff\n").endswith(
            "line 1, byte 11: not UTF-8")

    def test_csv_module_cases(self, capsys):
        head, row = b"x,y,label\n", b"1,2,a\n"
        for raw, lineno in ((head + row + b"\n" + row, 3), (head + row + b"\r\n", 3),
                            (head + row + row + b"\r", 4)):
            assert load_csv_or_reject(raw).endswith(f"line {lineno}: expected 3 cells, got 0")
        assert np.frombuffer(load_csv_or_reject(head + b"1_0,2,a\n")[0])[0] == 10.0
        assert load_csv_or_reject(head + b"1\x1c,2,a\n").endswith(
            "line 2: non-numeric value '1\\x1c' in column 'x'")
        # the earliest fault wins over a bad byte beyond the decoder's read-ahead
        long_row = b"1,2," + b"a" * 10_000 + b"\n"
        assert load_csv_or_reject(head + b"1,a\n" + long_row + b"1,\xff,a\n").endswith(
            "line 2: expected 3 cells, got 2")
        assert load_csv_or_reject(head).endswith(": no data rows")
        assert capsys.readouterr().err == ""

    def test_the_earliest_fault_is_named_at_its_physical_line(self):
        head = b'x,label\n1,"a\nb"\n'  # a quoted cell over lines 2 and 3
        assert load_csv_or_reject(head + b"2,c,d\n").endswith("line 4: expected 2 cells, got 3")
        assert load_csv_or_reject(head + b"2x,c\n").endswith(
            "line 4: non-numeric value '2x' in column 'x'")
        assert load_csv_or_reject(head + b"nan,c\n").endswith(
            "line 4: non-finite value nan in column 'x'")
        assert load_csv_or_reject(b"x,label\nnan,a\n1,b\nabc,c\n").endswith(
            "line 2: non-finite value nan in column 'x'")


class TestGenBlobs:
    def test_degenerate_spread(self):
        centers = np.array([[0.0, 0.0], [5.0, 5.0]])
        data = gen_blobs(2, 3, 2, centers=centers, spread=1e-9, seed=0)
        for c in range(2):
            assert np.allclose(data.features[data.labels == c], centers[c], atol=1e-6)

    def test_deterministic(self):
        a = gen_blobs(3, 10, 2, seed=42)
        b = gen_blobs(3, 10, 2, seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_sample_means(self):
        per_class = 10_000
        centers = np.array([[0.0, 0.0], [4.0, -4.0]])
        data = gen_blobs(2, per_class, 2, centers=centers, spread=1.0, seed=5)
        for c in range(2):
            mean = data.features[data.labels == c].mean(axis=0)
            assert np.all(np.abs(mean - centers[c]) < 3.0 / np.sqrt(per_class))

    def test_bad_centers(self):
        with pytest.raises(Exception):
            gen_blobs(3, 5, 2, centers=np.zeros((2, 2)), seed=0)

    @pytest.mark.parametrize("k,per_class,dim,given,seed", [
        (2, 1, 1, False, 0), (3, 1, 4, True, 1), (4, 7, 2, False, 2), (5, 13, 3, True, 3),
        (3, 50, 8, False, 11), (6, 9, 5, True, 12345),
    ])
    def test_bit_equal_to_one_draw_per_class(self, k, per_class, dim, given, seed):
        # the reference draws each class's block in turn from one seed stream
        rng = np.random.default_rng(seed)
        if given:
            centers = np.arange(k * dim, dtype=float).reshape(k, dim) - 2.5
        else:
            centers = rng.uniform(-5.0, 5.0, size=(k, dim))
        want = np.concatenate([centers[c] + 0.7 * rng.standard_normal((per_class, dim))
                               for c in range(k)])
        data = gen_blobs(k, per_class, dim, centers=centers if given else None,
                         spread=0.7, seed=seed)
        assert data.features.tobytes() == want.tobytes()
        assert data.labels.tolist() == [c for c in range(k) for _ in range(per_class)]
        assert data.k == k

    @pytest.mark.parametrize("spread", [0.0, -1.0, float("nan"), float("inf")])
    def test_spread_must_be_positive(self, spread):
        with pytest.raises(ValueError, match="spread > 0"):
            gen_blobs(3, 4, 2, spread=spread)


NAMES = ("x0", "x1", "x2")


def named_blobs(k=4, per_class=30, seed=0):
    """Blobs carrying feature names, as a CSV load gives them."""
    blobs = gen_blobs(k, per_class, len(NAMES), seed=seed)
    return LabeledDataset(blobs.features, blobs.labels, k, NAMES)


class TestLabeledDataset:
    @pytest.mark.parametrize("features,labels,error,message", [
        (np.zeros(3), [0, 1, 0], DimensionError,
         r"features must be n x d with n, d >= 1, got \(3,\)"),
        (np.zeros((3, 0)), [0, 1, 0], DimensionError,
         r"features must be n x d with n, d >= 1, got \(3, 0\)"),
        (np.zeros((3, 2)), [0, 1], DimensionError, "labels length must match feature rows"),
        (np.zeros((3, 2)), [0, 2, 1], ValueError, r"labels must lie in \[0, 2\)"),
        (np.zeros((3, 2)), [0, -1, 1], ValueError, r"labels must lie in \[0, 2\)"),
    ], ids=["1-D", "no-feature", "label-count", "label-past-k", "negative-label"])
    def test_faults_are_raised_where_a_dataset_is_made(self, features, labels, error,
                                                       message):
        with pytest.raises(error, match=f"^{message}$"):
            LabeledDataset(features, np.array(labels), 2)


class TestDerivedDatasetsKeepTheirFields:
    def test_split(self):
        for part in split(named_blobs(), (0.6, 0.2, 0.2), seed=3):
            assert (part.k, part.feature_names) == (4, NAMES)

    def test_split_keeps_k_of_a_class_missing_from_a_part(self):
        # k is the data's class count, not the count of classes a part holds
        _, val, test = split(named_blobs(per_class=2), (0.75, 0.125, 0.125), seed=0)
        assert (val.k, test.k) == (4, 4)
        assert len(set(val.labels.tolist())) < 4

    def test_inject_pairwise_noise(self):
        noisy, _ = inject_pairwise_noise(named_blobs(), ((0, 1), (2, 3)), 0.5, 1)
        assert (noisy.k, noisy.feature_names) == (4, NAMES)

    def test_standardize(self):
        train, val, test = split(named_blobs(), (0.6, 0.2, 0.2), seed=3)
        for part in standardize(train, val, test)[:3]:
            assert (part.k, part.feature_names) == (4, NAMES)


class TestNoise:
    def test_noop(self):
        data = gen_blobs(4, 20, 2, seed=0)
        noisy, mask = inject_pairwise_noise(data, ((0, 1), (2, 3)), 0.0, 0)
        assert np.array_equal(noisy.labels, data.labels)
        assert not mask.any()

    def test_total_swap(self):
        data = gen_blobs(2, 20, 2, seed=0)
        noisy, mask = inject_pairwise_noise(data, ((0, 1),), 1.0, 0)
        assert np.array_equal(noisy.labels, 1 - data.labels)
        assert mask.all()

    def test_statistical_fraction(self):
        data = gen_blobs(2, 1000, 2, seed=1)
        noisy, mask = inject_pairwise_noise(data, ((0, 1),), 0.3, 3)
        for c in range(2):
            flipped = int(mask[data.labels == c].sum())
            # binomial(1000, 0.3) 99% interval
            assert 262 <= flipped <= 338

    def test_features_untouched_and_mask_matches(self):
        data = gen_blobs(4, 50, 3, seed=2)
        noisy, mask = inject_pairwise_noise(data, ((0, 2),), 0.5, 7)
        assert noisy.features is data.features or np.array_equal(
            noisy.features, data.features
        )
        diff = noisy.labels != data.labels
        assert np.array_equal(diff, mask)
        # classes outside the pair never change
        assert not diff[(data.labels == 1) | (data.labels == 3)].any()

    # the parser and run_noise_experiment run these rules; inject_pairwise_noise trusts them
    def test_fraction_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match=r"noise fraction 1.5 outside \[0, 1\]"):
            check_noise_fractions((0.5, 1.5))

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValueError, match="more than one pair"):
            check_pairs(((0, 1), (1, 2)), 3)


class TestSplit:
    def test_all_train(self):
        # every part needs samples, so a fraction of 0 is rejected
        data = gen_blobs(3, 10, 2, seed=0)
        for fractions, part in (((1.0, 0.0, 0.0), 1), ((0.85, 0.15, 0.0), 2),
                                ((0.85, 0.0, 0.15), 1)):
            with pytest.raises(ValueError, match=f"split part {part} received zero samples"):
                split(data, fractions, seed=0)

    def test_deterministic(self):
        data = gen_blobs(3, 50, 2, seed=0)
        a = split(data, (0.8, 0.1, 0.1), seed=9)
        b = split(data, (0.8, 0.1, 0.1), seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)

    def test_sizes(self):
        data = gen_blobs(2, 500, 2, seed=0)
        train, val, test = split(data, (0.8, 0.1, 0.1), seed=0)
        assert (train.n, val.n, test.n) == (800, 100, 100)

    def test_bad_fractions(self):
        # a NaN share fails every test of the rule; TrainConfig runs it, split trusts it
        for fractions in ((0.5, 0.2, 0.2), (0.5, 0.5, 0.5), (0.7, 0.3), (-0.1, 0.6, 0.5),
                          (np.nan, 0.5, 0.5), (1, 0, np.nan), (np.inf, 0, 0)):
            with pytest.raises(ValueError, match="split fractions must be three numbers >= 0 "
                                                 "that sum to 1, got "):
                check_fractions(fractions)


class TestStandardize:
    def test_fixed_point(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((500, 3))
        feats = (feats - feats.mean(axis=0)) / feats.std(axis=0)
        data = LabeledDataset(feats, np.zeros(500, dtype=int), 1)
        out, mean, std = standardize(data)
        assert np.mean(np.abs(out.features - data.features)) <= 1e-12

    def test_constant_feature(self):
        feats = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        data = LabeledDataset(feats, np.zeros(10, dtype=int), 1)
        out, mean, std = standardize(data)
        assert np.allclose(out.features[:, 0], 0.0)
        assert std[0] == 1.0

    def test_train_statistics_only(self):
        train = gen_blobs(2, 100, 2, seed=0)
        val = gen_blobs(2, 30, 2, seed=1)
        out_train, out_val, mean, std = standardize(train, val)
        assert np.max(np.abs(out_train.features.mean(axis=0))) <= 1e-12
        assert np.allclose(out_train.features.std(axis=0), 1.0, atol=1e-12)
        # transform parameters depend on train alone
        other_val = gen_blobs(2, 30, 2, seed=99)
        _, _, mean2, std2 = standardize(train, other_val)
        assert np.array_equal(mean, mean2) and np.array_equal(std, std2)

    @pytest.mark.parametrize("names,column", [(("a", "b"), "'b'"), (None, "1")],
                             ids=["named", "unnamed"])
    def test_overflowing_feature_names_its_column(self, names, column):
        feats = np.column_stack([np.arange(4.0), [1e200, -1e200, 1e200, -1e200]])
        data = LabeledDataset(feats, np.zeros(4, dtype=int), 1, names)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is the error, not a warning
            with pytest.raises(DataFormatError, match=f"^feature column {column}: the values "
                                                      "overflow float64"):
                standardize(data)
