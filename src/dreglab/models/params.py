"""Flat parameter vectors with named slices in two role blocks.

A ParamVector is the single source of truth for a model's parameters:
one float64 array and a layout table mapping names to index ranges.  A
family's `template()` states the layout once, as (name, length, role)
triples, and `build_params` is its only reader: each role, "phi" for
the inference network and "theta" for the generative model, is one
block of adjacent slices, so its coordinates are one `slice` of the
flat array (`phi_indices`, `theta_indices`).

Checkpoints are external artifacts: a plain-text layout table (name,
offset, length per line), a blank line, then the flat array as raw
little-endian float64 bytes.  A checkpoint loads against a family, and
its table must be that family's layout line for line.
"""

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .. import gaussian
from ..gaussian import Streams


@dataclass
class ParamVector:
    """A flat array and its layout, as `build_params` assembles them."""

    flat: np.ndarray
    layout: dict  # name -> (offset, length), insertion order defines flat order
    phi_indices: slice  # the inference network's coordinates
    theta_indices: slice  # the generative model's coordinates

    def __post_init__(self):
        self.flat = np.asarray(self.flat, dtype=np.float64)
        covered = sum(length for _, length in self.layout.values())
        if self.flat.shape != (covered,):
            raise ValueError(f"layout covers {covered} coordinates, the flat "
                             f"array has shape {self.flat.shape}")

    def view(self, name):
        off, length = self.layout[name]
        return self.flat[off : off + length]

    def with_flat(self, new_flat):
        return ParamVector(np.array(new_flat, dtype=np.float64), self.layout,
                           self.phi_indices, self.theta_indices)

    def copy(self):
        return self.with_flat(self.flat.copy())

    @property
    def size(self):
        return self.flat.size


def build_params(template, values=None):
    """Assemble a ParamVector from a template's (name, length, role)
    triples, zeros unless ``values`` are given.  A role is "phi" or
    "theta", and the slices of one role must be adjacent."""
    layout = {}
    blocks = {"phi": None, "theta": None}
    cursor = 0
    for name, length, role in template:
        length = int(length)
        if role not in blocks:
            raise ValueError(f"slice {name!r} has role {role!r}, "
                             f"not 'phi' or 'theta'")
        if length <= 0:
            raise ValueError(f"slice {name!r} has non-positive length")
        block = blocks[role]
        if block is not None and block.stop != cursor:
            raise ValueError(f"{role} slice {name!r} is not adjacent to the "
                             f"other {role} slices")
        layout[name] = (cursor, length)
        blocks[role] = slice(cursor if block is None else block.start,
                             cursor + length)
        cursor += length
    flat = np.zeros(cursor) if values is None else np.asarray(values, dtype=np.float64)
    return ParamVector(flat, layout, blocks["phi"] or slice(0, 0),
                       blocks["theta"] or slice(0, 0))


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


def write_atomic(path, data):
    """Write the bytes ``data`` to ``path`` through a temp file in its
    directory and a rename, so a failed write leaves neither a temp file
    nor a partial target.  The target gets the mode that ``open`` would
    give a new file, 0o666 less the umask, not mkstemp's 0o600."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=".tmp-")
    try:
        umask = os.umask(0)  # the only way to read it is to set it
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_checkpoint(p, path):
    """Layout table in plain text, then the flat float64 array, atomically."""
    header = "".join(
        f"{name} {off} {length}\n" for name, (off, length) in p.layout.items()
    )
    payload = np.ascontiguousarray(p.flat, dtype="<f8").tobytes()
    write_atomic(path, (header + "\n").encode("ascii") + payload)


def load_checkpoint(path, family):
    """Inverse of save_checkpoint for a checkpoint of ``family``: each
    header line must be the line of ``family.template()``'s layout that
    save_checkpoint writes.  Returns a ParamVector on a writeable copy of
    the payload.

    A malformed file is a ValueError that names the path, and a
    malformed or mismatched header line also its number, text and slice.
    """
    like = build_params(family.template())
    with open(path, "rb") as fh:
        blob = fh.read()
    sep = blob.find(b"\n\n")
    if sep < 0:
        raise ValueError(f"{path}: checkpoint layout header has no "
                         f"blank-line terminator")
    want = [(name, off, length) for name, (off, length) in like.layout.items()]
    lines = blob[:sep].splitlines()
    seen = set()
    for lineno, line in enumerate(lines, 1):
        try:
            name, off, length = line.decode("ascii").split()
            if name in seen:
                raise ValueError(f"slice {name!r} repeats")
            seen.add(name)
            if lineno > len(want):
                raise ValueError(f"slice {name!r} is not in the layout")
            if (name, int(off), int(length)) != want[lineno - 1]:
                raise ValueError(f"slice {name!r} does not match the layout's "
                                 f"line {'%s %d %d' % want[lineno - 1]!r}")
        except ValueError as exc:  # a UnicodeDecodeError too
            raise ValueError(f"{path}: checkpoint header line {lineno} "
                             f"{line.decode('latin-1')!a}: {exc}") from exc
    if len(lines) < len(want):
        raise ValueError(f"{path}: checkpoint header lacks slice "
                         f"{want[len(lines)][0]!r}, line {len(lines) + 1} "
                         f"of the layout")
    payload = blob[sep + 2 :]
    expected = 8 * like.size
    if len(payload) != expected:
        raise ValueError(f"{path}: checkpoint payload should hold {expected} "
                         f"bytes, found {len(payload)}")
    return like.with_flat(np.frombuffer(payload, dtype="<f8"))
