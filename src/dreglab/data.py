"""Dataset plumbing: IDX files, dynamic binarization, splits, synthesis.

Images are stored as real intensities in [0, 1]; binarization is not
baked into a dataset but re-drawn per epoch from a counter-based key,
so the Bernoulli noise for (image i, pixel j) depends only on
(seed, epoch, i, j) and never on mini-batch order.  Training reads each
row under its own epoch's draw, also in a mini-batch that wraps past
the end of the split.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .gaussian import Streams, stream_rng
from .models.vae import Vae

IDX_IMAGES_MAGIC = 0x00000803
_MAX_ELEMENTS = 2**40  # dimension-overflow guard for hostile headers

@dataclass(frozen=True)
class Dataset:
    """n x obs matrix of intensities in [0, 1]."""

    images: np.ndarray

    def __post_init__(self):
        img = self.images
        if img.ndim != 2 or img.shape[0] == 0:
            raise ValueError("images must be a non-empty (n, obs) matrix")
        if img.shape[1] == 0:
            raise ValueError(f"images must have at least one pixel, got shape {img.shape}")
        if not np.all(np.isfinite(img)):
            raise ValueError("pixel intensities must be finite")
        if img.min() < 0.0 or img.max() > 1.0:
            raise ValueError("pixel intensities must lie in [0, 1]")

    @property
    def n(self):
        return self.images.shape[0]

    @property
    def obs(self):
        return self.images.shape[1]


def read_idx(path):
    """Raw IDX3 image payload as a (n, rows, cols) uint8 array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise ValueError(f"{path}: truncated IDX header")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != IDX_IMAGES_MAGIC:
        raise ValueError(f"{path}: bad IDX magic 0x{magic:08x}, expected an IDX3 image file")
    header = 16  # the magic and three big-endian dimensions
    if len(raw) < header:
        raise ValueError(f"{path}: truncated IDX header")
    dims = struct.unpack(">3I", raw[4:header])
    if 0 in dims:
        raise ValueError(f"{path}: empty IDX image dimensions {dims}")
    total = 1
    for d in dims:
        total *= d
    if total > _MAX_ELEMENTS:
        raise ValueError(f"{path}: dimension overflow {dims}")
    found = len(raw) - header
    if found < total:
        raise ValueError(f"{path}: truncated payload, expected {total} bytes, found {found}")
    if found > total:
        raise ValueError(f"{path}: {found - total} trailing bytes after payload")
    return np.frombuffer(raw[header:], dtype=np.uint8).reshape(dims)


def load_idx(path):
    """IDX3 image file as a Dataset with row-major flattening, /255."""
    raw = read_idx(path)
    n = raw.shape[0]
    images = raw.reshape(n, -1).astype(np.float64) / 255.0
    return Dataset(images=images)


def dynamic_binarize(d, seed, epoch):
    """Fresh Bernoulli(intensity) draw for every pixel, keyed per epoch.

    The uniform block is indexed (image, pixel), so the draw for any
    pixel is a pure function of (seed, epoch, image, pixel).
    """
    u = stream_rng(seed, Streams.BINARIZE, epoch).random(d.images.shape)
    return (u < d.images).astype(np.float64)


def synthetic_dataset(n, obs_dim, latent_dim, seed, hidden=20, weight_scale=2.0):
    """Intensity matrix sampled from a randomly initialized generator.

    Draws z ~ N(0, I) and emits the decoder's Bernoulli means; the
    per-epoch Bernoulli sampling is dynamic_binarize's job.  The
    decoder weights are scaled by weight_scale: plain random init
    yields washed-out mid-gray images, and the scaling restores enough
    contrast for bound improvements to be measurable at desk scale.
    """
    if n <= 0 or obs_dim <= 0 or latent_dim <= 0:
        raise ValueError("all sizes must be positive")
    fam = Vae(latent=latent_dim, hidden=hidden, obs=obs_dim)
    p = fam.init_params(seed=seed)
    for name in ("dec_w1", "dec_w2", "dec_w3"):
        p.view(name)[:] *= weight_scale
    z = stream_rng(seed, Streams.DATA, 0).standard_normal((n, latent_dim))
    # exp overflows for logits below about -709 (a large weight_scale);
    # those intensities are exactly 0 either way
    with np.errstate(over="ignore"):
        images = 1.0 / (1.0 + np.exp(-fam.decode(p, z)[2]))
    return Dataset(images=images)


def split(d, fractions, seed=None):
    """(train, valid, test) by fractions; contiguous, or shuffled by seed.

    Contiguous order-preserving ranges suit pre-shuffled corpora whose
    conventional splits are positional; synthetic data should pass a
    seed so the split is an explicit part of the experiment key.
    """
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ValueError("need three positive fractions")
    if sum(fractions) > 1.0 + 1e-12:
        raise ValueError("fractions must sum to at most 1")
    sizes = [int(round(d.n * f)) for f in fractions]
    if sum(sizes) > d.n:
        sizes[2] = d.n - sizes[0] - sizes[1]
    if any(s <= 0 for s in sizes):
        raise ValueError(f"empty split from fractions {fractions} on n={d.n}")
    order = np.arange(d.n)
    if seed is not None:
        order = stream_rng(seed, Streams.DATA, 1).permutation(d.n)
    bounds = np.cumsum([0] + sizes)
    return tuple(Dataset(images=d.images[order[lo:hi]])
                 for lo, hi in zip(bounds[:-1], bounds[1:]))
