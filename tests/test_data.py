"""Dataset generators, JSON round-trip, IDX parsing."""

import json
import struct

import numpy as np
import pytest

from advparam.data import (
    IdxFormatError,
    LabeledDataset,
    atomic_open,
    dataset_from_json,
    dataset_to_json,
    gen_blobs,
    gen_subspace_task,
    load_dataset,
    read_idx,
    save_dataset,
    write_csv,
)


def test_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(np.array([[0.5, 1.2]]), np.array([0]))  # out of [0,1]
    with pytest.raises(ValueError):
        LabeledDataset(np.array([[0.5, 0.5]]), np.array([0, 1]))  # length mismatch
    for shape in [(0, 3), (2, 0)]:  # no samples, no features
        with pytest.raises(ValueError, match=rf"empty dataset: X has shape \({shape[0]}, {shape[1]}\)"):
            LabeledDataset(np.zeros(shape), np.zeros(shape[0], dtype=int))
    ds = LabeledDataset(np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([1, 0]))
    assert len(ds) == 2 and ds.n_features == 2 and ds.n_classes == 2


@pytest.mark.parametrize("n_features", [0, -1])
def test_gen_blobs_refuses_a_feature_count_below_1(n_features):
    with pytest.raises(ValueError, match="need n_samples >= n_classes >= 2 and n_features >= 1"):
        gen_blobs(10, n_features, 2, seed=0)


@pytest.mark.parametrize("labels", [[0.5, 1.7], [0.0, np.nan], [1e30, 0.0], [0.0, -np.inf]])
def test_dataset_refuses_non_integral_labels(labels):
    with pytest.raises(ValueError, match="labels must be integers"):
        LabeledDataset([[0.1], [0.2]], labels)


def test_dataset_accepts_integral_float_labels():
    ds = LabeledDataset([[0.1], [0.2]], [1.0, 0.0])
    assert ds.y.dtype == np.int64 and ds.y.tolist() == [1, 0]


@pytest.mark.parametrize("existing", [False, True])
def test_atomic_open_leaves_nothing_behind_on_error(tmp_path, existing):
    path = tmp_path / "out.json"
    if existing:
        path.write_text("old content\n")
    with pytest.raises(RuntimeError):
        with atomic_open(str(path)) as f:
            f.write("partial")
            f.flush()
            raise RuntimeError("writer died mid-write")
    assert [p.name for p in tmp_path.iterdir()] == (["out.json"] if existing else [])
    if existing:
        assert path.read_text() == "old content\n"


def test_atomic_open_replaces_the_file_with_the_same_bytes(tmp_path):
    path = tmp_path / "ds.json"
    path.write_text("old")
    ds = gen_blobs(12, 3, 2, seed=0)
    save_dataset(ds, str(path))
    with atomic_open(str(tmp_path / "rows.csv"), newline="") as f:
        f.write("a,b\r\n")
    assert [p.name for p in sorted(tmp_path.iterdir())] == ["ds.json", "rows.csv"]
    assert path.read_bytes() == (dataset_to_json(ds) + "\n").encode()
    assert (tmp_path / "rows.csv").read_bytes() == b"a,b\r\n"


def test_write_csv_writes_the_header_then_each_row(tmp_path):
    """The one CSV writer of report.csv and eval.csv: csv.writer's quoting
    and \\r\\n line ends, through atomic_open."""
    path = tmp_path / "out.csv"
    write_csv(str(path), ["a", "b"], iter([["1", "x,y"], ["nan", ""]]))
    assert path.read_bytes() == b'a,b\r\n1,"x,y"\r\nnan,\r\n'
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_gen_blobs_basic():
    ds = gen_blobs(90, 5, 3, seed=0)
    assert len(ds) == 90 and ds.n_features == 5
    assert ds.X.min() >= 0 and ds.X.max() <= 1
    counts = np.bincount(ds.y)
    assert counts.sum() == 90 and counts.min() == 30
    # determinism
    ds2 = gen_blobs(90, 5, 3, seed=0)
    np.testing.assert_array_equal(ds.X, ds2.X)
    np.testing.assert_array_equal(ds.y, ds2.y)
    assert not np.array_equal(ds.X, gen_blobs(90, 5, 3, seed=1).X)


def test_gen_blobs_separable_by_nearest_center():
    # at the default spread a nearest-centroid rule should fit almost perfectly
    ds = gen_blobs(120, 8, 3, seed=5)
    cents = np.stack([ds.X[ds.y == c].mean(axis=0) for c in range(3)])
    d = np.linalg.norm(ds.X[:, None, :] - cents[None], axis=2)
    acc = (d.argmin(axis=1) == ds.y).mean()
    assert acc >= 0.97


def test_gen_subspace_exact_rank_and_range():
    for n, d in [(12, 3), (16, 5), (8, 2)]:
        ds = gen_subspace_task(60, n, d, 3, seed=2)
        assert ds.X.min() > 0.0 and ds.X.max() < 1.0  # no clipping needed
        sv = np.linalg.svd(ds.X, compute_uv=False)
        assert sv[d - 1] > 1e-6
        assert sv[d] < 1e-10  # exact membership in a d-dimensional span
        centered = ds.X - ds.X.mean(axis=0)
        svc = np.linalg.svd(centered, compute_uv=False)
        assert svc[d - 1] > 1e-8 and svc[d] < 1e-10
        assert ds.meta["intrinsic_dim"] == d


def test_gen_subspace_validation():
    with pytest.raises(ValueError):
        gen_subspace_task(50, 4, 7, 2, seed=0)
    with pytest.raises(ValueError):
        gen_subspace_task(1, 4, 2, 2, seed=0)


def test_dataset_json_round_trip(tmp_path):
    ds = gen_blobs(20, 4, 2, seed=3)
    path = tmp_path / "ds.json"
    save_dataset(ds, str(path))
    ds2 = load_dataset(str(path))
    np.testing.assert_array_equal(ds.X, ds2.X)
    np.testing.assert_array_equal(ds.y, ds2.y)
    assert ds2.name == "blobs"
    with pytest.raises(ValueError):
        dataset_from_json(json.dumps({"version": 1, "X": [[0.1]]}))  # no y


@pytest.mark.parametrize("field,value", [
    ("X", {"a": 1}), ("y", {"a": 1}), ("X", [[0.1], ["0.5", {}]]), ("y", [0, 10**30]),
    ("y", [0.5, 1.7]), ("y", [True, False]), ("y", "01"), ("name", 3), ("meta", [1]),
], ids=["X-object", "y-object", "X-entry-object", "label-beyond-int64", "float-labels",
        "bool-labels", "y-string", "name-number", "meta-list"])
def test_dataset_loader_refuses_wrong_types(field, value):
    doc = {"version": 1, "X": [[0.1], [0.9]], "y": [0, 1], field: value}
    with pytest.raises(ValueError):
        dataset_from_json(json.dumps(doc))


# --- IDX ------------------------------------------------------------------------


def _idx_pair(tmp_path, pixels, labels, rows=2, cols=2, img_magic=0x803, lab_magic=0x801,
              declared_n=None):
    n = declared_n if declared_n is not None else len(labels)
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labs.idx"
    ip.write_bytes(struct.pack(">IIII", img_magic, n, rows, cols) + bytes(pixels))
    lp.write_bytes(struct.pack(">II", lab_magic, n) + bytes(labels))
    return str(ip), str(lp)


def test_read_idx_values(tmp_path):
    # frozen: pixel bytes 0,255,128,64 map to 0, 1, 128/255, 64/255
    ip, lp = _idx_pair(tmp_path, [0, 255, 128, 64], [3])
    ds = read_idx(ip, lp)
    assert ds.X.shape == (1, 4)
    np.testing.assert_allclose(
        ds.X[0], [0.0, 1.0, 128 / 255, 64 / 255], rtol=0, atol=0
    )
    assert ds.X[0, 2] == pytest.approx(0.5019607843137255, abs=0)
    assert ds.X[0, 3] == pytest.approx(0.25098039215686274, abs=0)
    assert ds.y[0] == 3
    assert ds.meta == {"rows": 2, "cols": 2}


def test_read_idx_row_major_flattening(tmp_path):
    ip, lp = _idx_pair(tmp_path, list(range(8)), [0, 1])
    ds = read_idx(ip, lp)
    np.testing.assert_allclose(ds.X[1] * 255, [4, 5, 6, 7])


def test_read_idx_bad_magic(tmp_path):
    ip, lp = _idx_pair(tmp_path, [0] * 4, [0], img_magic=0x802)
    with pytest.raises(IdxFormatError) as ei:
        read_idx(ip, lp)
    assert ei.value.offset == 0
    ip, lp = _idx_pair(tmp_path, [0] * 4, [0], lab_magic=0x803)
    with pytest.raises(IdxFormatError):
        read_idx(ip, lp)


def test_read_idx_truncated_payload(tmp_path):
    ip, lp = _idx_pair(tmp_path, [0] * 3, [0])  # promises 4 pixels, has 3
    with pytest.raises(IdxFormatError) as ei:
        read_idx(ip, lp)
    assert ei.value.offset == 19  # end of actual data, inside promised range


def test_read_idx_count_mismatch(tmp_path):
    ip = tmp_path / "i.idx"
    lp = tmp_path / "l.idx"
    ip.write_bytes(struct.pack(">IIII", 0x803, 2, 1, 2) + bytes([0, 1, 2, 3]))
    lp.write_bytes(struct.pack(">II", 0x801, 3) + bytes([0, 1, 2]))
    with pytest.raises(IdxFormatError) as ei:
        read_idx(str(ip), str(lp))
    assert "2 images vs 3 labels" in str(ei.value)
