import re
import struct

import numpy as np
import pytest

from dreglab.data import (
    Dataset,
    dynamic_binarize,
    load_idx,
    read_idx,
    split,
    synthetic_dataset,
)
from reference.support import write_idx


def idx3_bytes(dims, payload):
    return struct.pack(">I3I", 0x00000803, *dims) + payload


def test_load_hand_built_idx3(tmp_path):
    payload = bytes(range(256)) * 6 + bytes(32)  # 2 * 28 * 28 = 1568
    path = tmp_path / "imgs.idx3"
    path.write_bytes(idx3_bytes((2, 28, 28), payload))
    d = load_idx(path)
    assert d.images.shape == (2, 784)
    assert d.images[0, 0] == 0.0
    assert d.images[0, 255] == 1.0
    assert d.images[0, 128] == 128.0 / 255.0


def test_load_idx_rejects_label_file(tmp_path):
    path = tmp_path / "labels.idx1"
    path.write_bytes(struct.pack(">II", 0x00000801, 1) + bytes([3]))
    with pytest.raises(ValueError, match="IDX3"):
        load_idx(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">I", 0xDEADBEEF) + bytes(100))
    with pytest.raises(ValueError, match="bad IDX magic"):
        read_idx(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(struct.pack(">I", 0x00000803) + b"\x00\x00")
    with pytest.raises(ValueError, match="truncated"):
        read_idx(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "cut.idx"
    path.write_bytes(idx3_bytes((2, 28, 28), bytes(1000)))
    with pytest.raises(ValueError, match="truncated"):
        read_idx(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "long.idx"
    path.write_bytes(idx3_bytes((1, 2, 2), bytes(5)))
    with pytest.raises(ValueError, match="trailing"):
        read_idx(path)


def test_dimension_overflow(tmp_path):
    path = tmp_path / "huge.idx"
    path.write_bytes(idx3_bytes((2**31, 2**31, 28), b""))
    with pytest.raises(ValueError, match="dimension overflow"):
        read_idx(path)


@pytest.mark.parametrize("dims", [(0, 8, 8), (2, 0, 8), (2, 8, 0)])
def test_empty_image_dimensions_are_named(tmp_path, dims):
    # a zero IDX dimension is named with the path, not left to NumPy's
    # reshape or reduction message, and so is the (n, 0) matrix it would give
    path = tmp_path / "empty.idx"
    path.write_bytes(idx3_bytes(dims, b""))
    with pytest.raises(ValueError, match=re.escape(f"{path}: empty IDX image dimensions {dims}")):
        load_idx(path)
    images = np.empty((dims[0], dims[1] * dims[2]))
    with pytest.raises(ValueError, match=r"non-empty \(n, obs\)|at least one pixel, got shape"):
        Dataset(images=images)


def test_roundtrip_is_byte_stable(tmp_path):
    raw = np.random.default_rng(0).integers(0, 256, size=(3, 4, 5), dtype=np.uint8)
    first = tmp_path / "a.idx"
    second = tmp_path / "b.idx"
    write_idx(first, raw)
    d = load_idx(first)
    back = np.rint(d.images * 255.0).astype(np.uint8).reshape(3, 4, 5)
    assert np.array_equal(back, raw)
    write_idx(second, back)
    assert first.read_bytes() == second.read_bytes()


def test_dataset_validation():
    with pytest.raises(ValueError, match="0, 1"):
        Dataset(images=np.array([[1.5]]))
    with pytest.raises(ValueError, match="non-empty"):
        Dataset(images=np.empty((0, 3)))


def test_dataset_rejects_non_finite_intensities():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            Dataset(images=np.array([[0.2, bad]]))


def test_binarize_endpoints():
    d = Dataset(images=np.array([[0.0, 1.0, 0.3]]))
    for epoch in range(20):
        b = dynamic_binarize(d, seed=5, epoch=epoch)
        assert b[0, 0] == 0.0 and b[0, 1] == 1.0
        assert b[0, 2] in (0.0, 1.0)


def test_binarize_determinism():
    d = Dataset(images=np.full((4, 6), 0.5))
    assert np.array_equal(dynamic_binarize(d, 3, 7), dynamic_binarize(d, 3, 7))
    assert not np.array_equal(dynamic_binarize(d, 3, 7), dynamic_binarize(d, 3, 8))
    assert not np.array_equal(dynamic_binarize(d, 3, 7), dynamic_binarize(d, 4, 7))


def test_binarize_half_pixel_long_run_mean():
    d = Dataset(images=np.array([[0.5]]))
    hits = sum(dynamic_binarize(d, 11, epoch)[0, 0] for epoch in range(10_000))
    assert 0.48 <= hits / 10_000 <= 0.52


def test_binarize_marginals_track_intensities():
    rng = np.random.default_rng(1)
    probs = 0.05 + 0.9 * rng.random((1, 40))
    d = Dataset(images=probs)
    n = 4000
    acc = np.zeros_like(probs)
    for epoch in range(n):
        acc += dynamic_binarize(d, 13, epoch)
    z = (acc / n - probs) / np.sqrt(probs * (1 - probs) / n)
    assert np.max(np.abs(z)) < 5.0


def test_synthetic_shape_and_determinism():
    a = synthetic_dataset(100, 64, 10, seed=7)
    b = synthetic_dataset(100, 64, 10, seed=7)
    c = synthetic_dataset(100, 64, 10, seed=8)
    assert a.images.shape == (100, 64)
    assert a.images.min() >= 0.0 and a.images.max() <= 1.0
    assert np.array_equal(a.images, b.images)
    assert not np.array_equal(a.images, c.images)


def test_synthetic_zero_scale_is_flat_gray():
    d = synthetic_dataset(10, 16, 4, seed=1, weight_scale=0.0)
    assert np.array_equal(d.images, np.full((10, 16), 0.5))


def test_synthetic_scale_raises_contrast():
    lo = synthetic_dataset(200, 64, 10, seed=2, weight_scale=1.0)
    hi = synthetic_dataset(200, 64, 10, seed=2, weight_scale=2.0)
    assert hi.images.std() > lo.images.std()


def test_synthetic_large_scale_saturates_without_a_warning():
    # at weight_scale = 400 some logits pass -709, where exp overflows;
    # the suite turns a RuntimeWarning into an error
    d = synthetic_dataset(512, 64, 10, 0, weight_scale=400.0)
    assert (d.images == 0.0).any()
    assert np.all((d.images >= 0.0) & (d.images <= 1.0))


def test_synthetic_rejects_bad_sizes():
    with pytest.raises(ValueError):
        synthetic_dataset(0, 64, 10, seed=1)


def test_split_shuffled_partition():
    images = np.arange(100)[:, None] / 99.0
    d = Dataset(images=images)
    train, valid, test = split(d, (0.8, 0.1, 0.1), seed=3)
    combined = np.concatenate([train.images, valid.images, test.images]).ravel()
    assert np.array_equal(np.sort(combined), images.ravel())
    assert not np.array_equal(train.images, images[:80])  # actually shuffled
    again = split(d, (0.8, 0.1, 0.1), seed=3)[0]
    assert np.array_equal(train.images, again.images)
    other = split(d, (0.8, 0.1, 0.1), seed=4)[0]
    assert not np.array_equal(train.images, other.images)


def test_split_errors():
    d = Dataset(images=np.full((100, 2), 0.5))
    with pytest.raises(ValueError, match="empty split"):
        split(d, (0.001, 0.5, 0.4), seed=0)
    with pytest.raises(ValueError, match="sum"):
        split(d, (0.8, 0.3, 0.3), seed=0)
    with pytest.raises(ValueError, match="three"):
        split(d, (0.5, 0.5), seed=0)
