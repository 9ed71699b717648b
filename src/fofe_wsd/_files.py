"""Every file the pipeline reads or writes goes through this module, the
training log included; no other module opens a file.

* Text is UTF-8. A line ends at ``\\n``, ``\\r\\n`` or ``\\r`` only, so a
  ``\\x0c``, ``\\x85`` or ``\\u2028`` inside a field stays in its line.
* An output is written whole to ``<path>.tmp`` in the same directory, which
  is then renamed over ``path``: a failed write leaves the old file as it was.
* The binary container (checkpoint and store) is little-endian: a 4-byte
  magic, a u32 format version, the body (u32 counts, dims and blocks, f64
  scalars, u32-length-prefixed UTF-8 strings, f32 row-major values), then
  the u64 CRC32 of everything before it. A reader takes one format version
  and refuses any other. A tensor is read into an array of the shape the
  reader expects, and its stored rank and dims are checked against that
  shape before any value is read. A non-finite f32 value makes the file
  corrupt, and a writer raises ``DataError`` before writing one.

Read and write failures raise ``DataError`` naming the path.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DataError


def read_lines(path: str | Path, what: str) -> Iterator[str]:
    """The lines of a UTF-8 text file, without their line ends."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                yield line.rstrip("\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path} is not valid UTF-8: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def read_records(path: str | Path, what: str, n_fields: int) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, tab-separated fields) per line; blank and ``#`` lines are skipped."""
    for lineno, line in enumerate(read_lines(path, what), start=1):
        if not line or line[0] == "#" or line.isspace():
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise DataError(
                f"{path}: malformed line (expected {n_fields} tab-separated fields, "
                f"got {len(fields)}) (line {lineno})"
            )
        yield lineno, fields


def write_file(path: str | Path, data: str | bytes | bytearray) -> None:
    """Replace ``path`` by ``data`` (text as UTF-8) through ``<path>.tmp``."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError, ValueError):  # after os.replace it is gone
            os.remove(tmp)


def checksum(buf: bytes | bytearray | memoryview) -> int:
    """The trailer of a container holding ``buf``: its CRC32."""
    return zlib.crc32(buf)


# Binary container, write side: container(), the put_* calls, write_container().
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


def write_container(path: str | Path, out: bytearray) -> None:
    """Append the CRC32 trailer to ``out`` and write it to ``path``; ``out`` is not copied."""
    out += struct.pack("<Q", checksum(out))
    write_file(path, out)


class Reader:
    """Cursor over a container file; every overrun reports a truncated file."""

    def __init__(self, buf: bytes, what: str, path: str | Path):
        self.buf, self.pos, self.what, self.path = memoryview(buf), 0, what, path

    @classmethod
    def open(cls, path: str | Path, what: str, magic: bytes, version: int) -> "Reader":
        """Read ``path`` whole and check its magic and that its format version is ``version``."""
        try:
            buf = Path(path).read_bytes()
        except (OSError, ValueError) as exc:
            raise DataError(f"cannot read {what} {path}: {exc}") from exc
        rd = cls(buf, what, path)
        if rd.take(len(magic)) != magic:
            raise DataError(f"incompatible {what}: {path} (bad magic)")
        found = rd.u32()
        if found != version:
            raise DataError(f"incompatible {what}: {path} (version {found})")
        return rd

    def corrupt(self, detail: str) -> DataError:
        return DataError(f"corrupt {self.what}: {self.path} ({detail})")

    def need(self, n: int) -> None:
        """Raise unless at least ``n`` bytes remain."""
        if self.pos + n > len(self.buf):
            raise DataError(f"truncated {self.what}: {self.path}")

    def take(self, n: int) -> memoryview:
        self.need(n)
        self.pos += n
        return self.buf[self.pos - n : self.pos]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def text(self) -> str:
        raw = self.take(self.u32())
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise self.corrupt(f"string is not valid UTF-8: {exc}") from exc

    def floats(self, n: int) -> np.ndarray:
        """``n`` f32 values, as a read-only view of the file's bytes."""
        return np.frombuffer(self.take(4 * n), dtype="<f4")

    def u32s(self, n: int) -> np.ndarray:
        """``n`` u32 values, as a read-only view of the file's bytes."""
        return np.frombuffer(self.take(4 * n), dtype="<u4")

    def tensor_into(self, out: np.ndarray) -> None:
        """Fill ``out`` from a tensor whose stored rank and dims must be ``out.shape``."""
        ndim = self.u32()
        if ndim != out.ndim:
            raise self.corrupt(f"tensor of rank {ndim}, expected shape {out.shape}")
        dims = struct.unpack(f"<{ndim}I", self.take(4 * ndim))
        if dims != out.shape:
            raise self.corrupt(f"tensor shape {dims}, expected {out.shape}")
        values = self.floats(out.size)
        self.check_finite(values)
        out[...] = values.reshape(out.shape)

    def check_finite(self, values: np.ndarray) -> None:
        """Raise ``corrupt`` unless all ``values`` are finite; check f32 before a cast, which warns on NaN."""
        if not np.isfinite(values).all():
            raise self.corrupt("non-finite value")

    def close(self) -> None:
        """Check the trailing checksum and that nothing follows it."""
        summed = checksum(self.buf[: self.pos])
        stored = struct.unpack("<Q", self.take(8))[0]
        if self.pos != len(self.buf):
            raise self.corrupt("trailing bytes")
        if summed != stored:
            raise self.corrupt("checksum mismatch")
