"""Flat parameter vectors with named slices and optimization roles.

A ParamVector is the single source of truth for a model's parameters:
one float64 array, a layout table mapping names to index ranges, and a
role per name.  Roles drive two things: which coordinates belong to the
inference-network gradient versus the generative gradient, and where
stop-gradient modifiers land when a parameter serves both sides.

Checkpoints are external artifacts: a plain-text layout table (name,
offset, length per line), a blank line, then the flat array as raw
little-endian float64 bytes.
"""

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .. import gaussian
from ..gaussian import Streams

ROLES = ("phi", "theta", "shared")


@dataclass
class ParamVector:
    flat: np.ndarray
    layout: dict  # name -> (offset, length), insertion order defines flat order
    roles: dict  # name -> role

    def __post_init__(self):
        self.flat = np.asarray(self.flat, dtype=np.float64)
        if self.flat.ndim != 1:
            raise ValueError("flat parameter array must be 1-d")
        covered = 0
        cursor = 0
        for name, (off, length) in self.layout.items():
            if off != cursor:
                raise ValueError(f"slice {name!r} starts at {off}, expected {cursor}")
            if length <= 0:
                raise ValueError(f"slice {name!r} has non-positive length")
            cursor = off + length
            covered += length
        if covered != self.flat.size:
            raise ValueError(f"layout covers {covered} of {self.flat.size} coordinates")
        for name in self.layout:
            if self.roles.get(name) not in ROLES:
                raise ValueError(f"missing or invalid role for {name!r}")

    def view(self, name):
        off, length = self.layout[name]
        return self.flat[off : off + length]

    def with_flat(self, new_flat):
        return ParamVector(np.array(new_flat, dtype=np.float64), self.layout, self.roles)

    def copy(self):
        return self.with_flat(self.flat.copy())

    @property
    def size(self):
        return self.flat.size

    def indices_for_role(self, role):
        idx = []
        for name, (off, length) in self.layout.items():
            if self.roles[name] == role:
                idx.extend(range(off, off + length))
        return np.array(idx, dtype=np.intp)

    @property
    def phi_indices(self):
        return self.indices_for_role("phi")

    @property
    def theta_indices(self):
        return self.indices_for_role("theta")

    @property
    def has_shared(self):
        return any(r == "shared" for r in self.roles.values())


def build_params(layout_triples, values=None):
    """Assemble a ParamVector from (name, length, role) triples."""
    layout = {}
    roles = {}
    cursor = 0
    for name, length, role in layout_triples:
        layout[name] = (cursor, int(length))
        roles[name] = role
        cursor += int(length)
    flat = np.zeros(cursor) if values is None else np.asarray(values, dtype=np.float64)
    return ParamVector(flat, layout, roles)


def perturb_params(p, sigma, seed, draw=0):
    """Independent N(0, sigma^2) offset on every coordinate, seeded.

    ``draw`` separates repeated perturbations under one seed (one per trial).
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return p.copy()
    rng = gaussian.stream_rng(seed, Streams.PARAM_PERTURB, draw)
    return p.with_flat(p.flat + sigma * rng.standard_normal(p.size))


class LiftedParams:
    """Tape inputs for every coordinate of a ParamVector, in flat order.

    `nodes[name]` is the list of TapeScalars for that slice; `grad_vector`
    maps a backward() result back onto the flat coordinate order.
    """

    def __init__(self, graph, p):
        self.graph = graph
        self.source = p
        self.nodes = {}
        self.node_ids = np.empty(p.size, dtype=np.intp)
        for name, (off, length) in p.layout.items():
            ns = graph.input_vector(p.flat[off : off + length])
            self.nodes[name] = ns
            self.node_ids[off : off + length] = [n.idx for n in ns]

    def grad_vector(self, grads):
        return np.array([grads[i] for i in self.node_ids])


def lift(graph, p):
    return LiftedParams(graph, p)


def save_checkpoint(p, path):
    """Layout table in plain text, then the flat float64 array, atomically."""
    payload = np.ascontiguousarray(p.flat, dtype="<f8").tobytes()
    header = "".join(
        f"{name} {off} {length}\n" for name, (off, length) in p.layout.items()
    )
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(b"\n")
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path, roles):
    """Inverse of save_checkpoint; the caller supplies the role map."""
    with open(path, "rb") as fh:
        blob = fh.read()
    sep = blob.find(b"\n\n")
    if sep < 0:
        raise ValueError(f"{path}: checkpoint layout header has no "
                         f"blank-line terminator")
    layout = {}
    for line in blob[:sep].decode("ascii").splitlines():
        name, off, length = line.split()
        layout[name] = (int(off), int(length))
    payload = blob[sep + 2 :]
    expected = 8 * sum(length for _, length in layout.values())
    if len(payload) != expected:
        raise ValueError(f"{path}: checkpoint payload should hold {expected} "
                         f"bytes, found {len(payload)}")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return ParamVector(flat, layout, dict(roles))
