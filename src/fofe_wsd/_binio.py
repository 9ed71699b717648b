"""Shared plumbing for the binary container files (checkpoint and store).

Both formats are little-endian: length-prefixed UTF-8 strings, u32 dims,
f32 row-major tensors, and a trailing u64 checksum (byte sum of everything
before it, mod 2**64).
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataError


def checksum(buf: bytes | bytearray) -> int:
    return int(np.frombuffer(bytes(buf), dtype=np.uint8).sum(dtype=np.uint64))


def write_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    out += struct.pack("<I", len(raw))
    out += raw


def write_tensor(out: bytearray, arr: np.ndarray) -> None:
    out += struct.pack("<I", arr.ndim)
    out += struct.pack(f"<{arr.ndim}I", *arr.shape)
    out += np.ascontiguousarray(arr, dtype="<f4").tobytes()


class Reader:
    """Cursor over a byte buffer; every overrun reports a truncated file."""

    def __init__(self, buf: bytes, what: str):
        self.buf = buf
        self.pos = 0
        self.what = what

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise DataError(f"truncated {self.what}")
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def text(self) -> str:
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"corrupt {self.what} (string is not valid UTF-8: {exc})") from exc

    def tensor(self) -> np.ndarray:
        ndim = self.u32()
        dims = struct.unpack(f"<{ndim}I", self.take(4 * ndim))
        count = int(np.prod(dims, dtype=np.int64)) if ndim else 1
        data = np.frombuffer(self.take(4 * count), dtype="<f4")
        return data.astype(np.float64).reshape(dims)
