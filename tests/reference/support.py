"""Shared test fixtures, the slope fit of criterion 1, and an IDX writer."""

import math
import struct
from dataclasses import dataclass

import numpy as np

from dreglab import data
from dreglab.models import perturb_params

from .models import Toy, Vae


def toy_fixture(d=3, seed=9, q_variance=2.0 / 3.0, sigma=0.01):
    fam = Toy(d, q_variance=q_variance)
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(d)
    p = perturb_params(fam.init_params(theta), sigma, seed)
    x = rng.standard_normal(d) * 1.4 + p.view("theta")
    return fam, p, x


def vae_batch_fixture():
    """A small VAE at perturbed params and a batch of five images."""
    fam = Vae(latent=2, hidden=3, obs=5)
    p = perturb_params(fam.init_params(seed=2), 0.25, 7)
    x = (np.random.default_rng(4).random((5, 5)) < 0.5).astype(float)
    return fam, p, x


def vae_image_fixture():
    """The same VAE and params with one image."""
    fam = Vae(latent=2, hidden=3, obs=5)
    p = perturb_params(fam.init_params(seed=2), 0.25, 7)
    x = (np.random.default_rng(3).random(5) < 0.5).astype(float)
    return fam, p, x


def agree(a, b, tol):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.max(np.abs(a - b)) <= tol * (1.0 + np.max(np.abs(a)))


@dataclass
class SlopeFit:
    slope: float
    stderr: float


def loglog_slope(points):
    """Least-squares slope of log(statistic) against log(K)."""
    points = list(points)
    if len(points) < 3:
        raise ValueError("slope fit needs at least 3 points")
    ks = np.array([float(k) for k, _ in points])
    ys = np.array([float(v) for _, v in points])
    if np.any(np.diff(ks) <= 0):
        raise ValueError("K values must be strictly increasing")
    if np.any(ys <= 0):
        raise ValueError("statistics must be positive for a log-log fit")
    lx = np.log(ks)
    ly = np.log(ys)
    lx_c = lx - lx.mean()
    sxx = float(np.sum(lx_c * lx_c))
    slope = float(np.sum(lx_c * ly) / sxx)
    resid = ly - (ly.mean() + slope * lx_c)
    dof = len(points) - 2
    stderr = math.sqrt(float(np.sum(resid * resid)) / dof / sxx) if dof > 0 else 0.0
    return SlopeFit(slope, stderr)


def write_idx(path, array):
    """Serialize a 3-d uint8 image array back to IDX3."""
    array = np.ascontiguousarray(array, dtype=np.uint8)
    if array.ndim != 3:
        raise ValueError("IDX writer handles 3-d images")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">4I", data.IDX_IMAGES_MAGIC, *array.shape))
        fh.write(array.tobytes())
