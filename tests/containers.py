"""Test helpers for binary containers.

This is the container writer as it was before ``_files.Writer`` streamed
it: the whole file built in one ``bytearray``, each array appended with
``tobytes``. The tests hold ``save_checkpoint`` and ``save_store`` to
``checkpoint_bytes`` and ``store_bytes``, and hand-build files with the
``put_*`` calls and ``write_container``.
"""

from __future__ import annotations

import struct

import numpy as np

from fofe_wsd import lm, wsd
from fofe_wsd._files import checksum, write_file
from fofe_wsd.errors import DataError


def container(magic: bytes, version: int) -> bytearray:
    """A buffer holding the container header; append the body with ``put_*``."""
    out = bytearray(magic)
    put_u32(out, version)
    return out


def put_u32(out: bytearray, *values: int) -> None:
    out += struct.pack(f"<{len(values)}I", *values)


def put_f64(out: bytearray, value: float) -> None:
    out += struct.pack("<d", value)


def put_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    out += struct.pack("<I", len(raw))
    out += raw


def put_floats(out: bytearray, arr: np.ndarray) -> None:
    """The values of ``arr`` as f32, row-major, without their dims; one that is not finite as f32 is a ``DataError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = arr.astype("<f4", copy=False)
    if not np.isfinite(values).all():
        bad = float(arr.ravel()[~np.isfinite(values.ravel())][0])
        raise DataError(f"value {bad!r} is not finite as f32, so it cannot be written")
    out += values.tobytes()


def put_tensor(out: bytearray, arr: np.ndarray) -> None:
    put_u32(out, arr.ndim, *arr.shape)
    put_floats(out, arr)


def sealed(out: bytearray) -> bytearray:
    """``out`` with its CRC32 trailer appended."""
    out += struct.pack("<Q", checksum(out))
    return out


def write_container(path, out: bytearray) -> None:
    """Append the CRC32 trailer to ``out`` and write it to ``path``."""
    write_file(path, sealed(out))


def checkpoint_bytes(model: lm.LmModel, tensors=None, dims=None) -> bytearray:
    """The checkpoint of ``model``, storing ``tensors`` (default its own) and ``dims`` (default its layer dims)."""
    out = container(lm.CHECKPOINT_MAGIC, lm.CHECKPOINT_VERSION)
    put_f64(out, model.config.fofe.alpha)
    put_u32(out, model.config.fofe.order)
    dims = dims or model.config.layer_dims(len(model.vocab))
    put_u32(out, len(dims), *dims)
    put_u32(out, len(model.vocab))
    for token in model.vocab.tokens:
        put_str(out, token)
    for tensor in model.params.tensors() if tensors is None else tensors:
        put_tensor(out, tensor)
    return sealed(out)


def store_bytes(store: wsd.ClassifierStore) -> bytearray:
    """The store file of ``store``, which must pass ``save_store``'s checks."""
    out = container(wsd.STORE_MAGIC, wsd.STORE_VERSION)
    put_u32(out, store.dim, store.n_lemmas)
    for lemma, keys, codes, vectors in store.blocks:
        codes = codes.astype("<u4", copy=False)
        put_str(out, lemma)
        put_u32(out, len(codes), len(keys))
        for key in keys:
            put_str(out, key)
        out += codes.tobytes()
        put_floats(out, vectors)
    return sealed(out)
