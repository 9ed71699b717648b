"""Every file the pipeline reads or writes goes through this module, the
training log included; no other module opens a file.

* Text is UTF-8. A line ends at ``\\n``, ``\\r\\n`` or ``\\r`` only, so a
  ``\\x0c``, ``\\x85`` or ``\\u2028`` inside a field stays in its line.
* An output is streamed to ``<path>.tmp`` in the same directory, which is
  then renamed over ``path``: a failed write leaves the old file as it was,
  and no temp file behind.
* The binary container (checkpoint and store) is little-endian: a 4-byte
  magic, a u32 format version, the body (u32 counts, dims and blocks, f64
  scalars, u32-length-prefixed UTF-8 strings, f32 row-major values), then
  the u64 CRC32 of everything before it. ``Reader`` streams a container
  from its open file, bounded by the size ``fstat`` gives, and sums each
  byte into a running CRC32 as it reads it; a short read is a truncated
  file. A reader takes one format version and refuses any other. A tensor
  is read straight into the bytes of an array of the shape the reader
  expects, and its stored rank and dims are checked against that shape
  before any value is read. ``Writer`` streams a container the same way:
  its fields gather in a small buffer and each array goes out a slice at a
  time from the array's own memory, so a save holds one slice of extra
  memory whatever the file's size. A non-finite f32 value makes the file
  corrupt, and a writer raises ``DataError`` before writing one, which
  removes the temp file.

Read and write failures raise ``DataError`` naming the path.
"""

from __future__ import annotations

import contextlib
import io
import os
import stat
import struct
import zlib
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from .errors import DataError

_T = TypeVar("_T")
_Buffer = bytes | bytearray | memoryview | np.ndarray
_U32 = struct.Struct("<I")
_F4 = np.dtype("<f4")
# Elements per slice of a streamed array: 256 KiB of u32 or f32 values, each
# slice summed and checked while it is in cache.
_SLICE = 1 << 16


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


@contextlib.contextmanager
def _replacing(path: str | Path) -> Iterator[Callable[[_Buffer], object]]:
    """``write(data)`` into ``<path>.tmp``, which is renamed over ``path`` when the block ends.

    If the block raises, the temp file is removed and ``path`` stays as it
    was. An ``OSError`` of the temp file's open, writes, close or rename,
    and a ``ValueError`` of its open (a NUL in the path), is ``cannot write
    <path>``; whatever the block itself raises passes through.
    """
    tmp = f"{path}.tmp"

    def attempt(call: Callable[..., _T], *args: object) -> _T:
        try:
            return call(*args)
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc}") from exc

    try:
        fh = open(tmp, "wb")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise DataError(f"cannot write {path}: {exc}") from exc
    try:
        yield partial(attempt, fh.write)
        attempt(fh.close)
        attempt(os.replace, tmp, path)
    except BaseException:  # only a failed write leaves the temp file behind
        with contextlib.suppress(OSError):
            fh.close()
        with contextlib.suppress(OSError, ValueError):
            os.remove(tmp)
        raise


def write_file(path: str | Path, data: str | _Buffer) -> None:
    """Replace ``path`` by ``data`` (text as UTF-8) through ``<path>.tmp``."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    with _replacing(path) as write:
        write(data)


def _slices(arr: np.ndarray) -> Iterator[np.ndarray]:
    """The values of ``arr`` in row-major order, as runs of at most ``_SLICE`` values; views of ``arr``."""
    if arr.flags.c_contiguous or arr.ndim < 2:
        flat = arr.reshape(-1)  # a view: ``arr`` is contiguous, or it has one axis
        for first in range(0, len(flat), _SLICE):
            yield flat[first : first + _SLICE]
    elif arr[0].size > _SLICE:
        for row in arr:
            yield from _slices(row)
    else:
        step = _SLICE // arr[0].size
        for first in range(0, len(arr), step):
            yield arr[first : first + step]


class Writer:
    """Streaming writer of a container to ``<path>.tmp``, summing its bytes into a running CRC32.

    The fields (u32, f64, strings) gather in a small buffer. An array goes
    a ``_SLICE`` at a time from its own memory, each slice converted only
    if its layout or dtype differs from the file's, then summed, checked
    finite if f32, and written. Use it as ``with Writer.create(...) as wr``:
    when the block ends the CRC32 trailer is appended and the temp file
    renamed over ``path``; if it raises, the temp file is removed and the
    old file stays as it was (see ``write_file``). So a save holds one
    slice, not the file, whatever the file's size.
    """

    def __init__(self, write: Callable[[_Buffer], object]):
        self.write, self.crc, self.buf = write, 0, bytearray()

    @classmethod
    @contextlib.contextmanager
    def create(cls, path: str | Path, magic: bytes, version: int) -> Iterator["Writer"]:
        """A writer of a container with ``magic`` and format ``version`` to ``path``."""
        with _replacing(path) as write:
            wr = cls(write)
            wr.buf += magic
            wr.u32(version)
            yield wr
            wr._flush()
            wr.write(struct.pack("<Q", wr.crc))

    def _flush(self) -> None:
        """Sum and write the buffered fields."""
        if self.buf:
            self.crc = zlib.crc32(self.buf, self.crc)
            self.write(self.buf)
            self.buf.clear()

    def _put(self, data: bytes) -> None:
        self.buf += data
        if len(self.buf) >= 4 * _SLICE:
            self._flush()

    def u32(self, *values: int) -> None:
        self._put(struct.pack(f"<{len(values)}I", *values))

    def f64(self, value: float) -> None:
        self._put(struct.pack("<d", value))

    def texts(self, texts: Iterable[str]) -> None:
        """Each of ``texts`` as a u32-length-prefixed UTF-8 string."""
        for text in texts:
            raw = text.encode("utf-8")
            self._put(_U32.pack(len(raw)) + raw)

    def floats(self, arr: np.ndarray) -> None:
        """The values of ``arr`` as f32, row-major, without its dims; one not finite as f32 is a ``DataError``."""
        self._array(arr, _F4)

    def u32s(self, arr: np.ndarray) -> None:
        """The values of ``arr`` as u32, row-major, without its dims."""
        self._array(arr, np.dtype("<u4"))

    def tensor(self, arr: np.ndarray) -> None:
        """``arr``'s u32 rank and dims, then its values as in ``floats``."""
        self.u32(arr.ndim, *arr.shape)
        self.floats(arr)

    def _array(self, arr: np.ndarray, dtype: np.dtype) -> None:
        self._flush()
        for part in _slices(arr):
            with np.errstate(over="ignore", invalid="ignore"):
                values = np.ascontiguousarray(part, dtype=dtype).reshape(-1)
            if dtype == _F4 and not np.isfinite(values).all():
                bad = float(part.reshape(-1)[~np.isfinite(values)][0])
                raise DataError(f"value {bad!r} is not finite as f32, so it cannot be written")
            self.crc = zlib.crc32(values, self.crc)
            self.write(values)


class Reader:
    """Streaming cursor over a container file, summing its bytes into a running CRC32.

    The file must be a regular one: its size, from ``fstat`` at open, bounds
    every read. A read past it, or one that comes back short, reports a
    truncated file, and an ``OSError`` mid-read is ``cannot read``. Use it
    in a ``with`` block, which closes the file on every path.
    """

    def __init__(self, fh: io.BufferedReader, what: str, path: str | Path):
        self.fh, self.what, self.path, self.pos, self.crc = fh, what, path, 0, 0
        status = self._io(os.fstat, fh.fileno())
        if not stat.S_ISREG(status.st_mode):  # a pipe has no size to bound the reads
            raise DataError(f"cannot read {what} {path}: not a regular file")
        self.size = status.st_size

    @classmethod
    def open(cls, path: str | Path, what: str, magic: bytes, version: int) -> "Reader":
        """Open ``path`` and check its magic and that its format version is ``version``."""
        try:
            fh = open(path, "rb")
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise DataError(f"cannot read {what} {path}: {exc}") from exc
        try:
            rd = cls(fh, what, path)
            if rd.take(len(magic)) != magic:
                raise DataError(f"incompatible {what}: {path} (bad magic)")
            found = rd.u32()
            if found != version:
                raise DataError(f"incompatible {what}: {path} (version {found})")
        except BaseException:
            fh.close()
            raise
        return rd

    def __enter__(self) -> "Reader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.fh.close()

    def _io(self, call: Callable[..., _T], *args: object) -> _T:
        """``call(*args)``, its ``OSError`` a ``DataError`` naming the file."""
        try:
            return call(*args)
        except OSError as exc:
            raise DataError(f"cannot read {self.what} {self.path}: {exc}") from exc

    def corrupt(self, detail: str) -> DataError:
        return DataError(f"corrupt {self.what}: {self.path} ({detail})")

    def truncated(self) -> DataError:
        return DataError(f"truncated {self.what}: {self.path}")

    def need(self, n: int) -> None:
        """Raise unless at least ``n`` bytes remain."""
        if self.pos + n > self.size:
            raise self.truncated()

    def take(self, n: int) -> bytes:
        self.need(n)
        data = self._io(self.fh.read, n)
        if len(data) < n:  # the file shrank since it was opened
            raise self.truncated()
        self.crc = zlib.crc32(data, self.crc)
        self.pos += n
        return data

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def texts(self, n: int) -> list[str]:
        """``n`` u32-length-prefixed UTF-8 strings.

        Fewer than ``4 * n`` bytes left, one length prefix each, is a
        truncated file before any string is decoded. The strings are decoded
        from the file object's read buffer as far as whole strings lie in
        it, and consumed with one ``take``; a string across the buffer's end
        is taken on its own.
        """
        self.need(4 * n)
        out: list[str] = []
        try:
            while len(out) < n:
                buf, at = self._io(self.fh.peek), 0
                while len(out) < n and at + 4 <= len(buf):
                    end = at + 4 + _U32.unpack_from(buf, at)[0]
                    if end > len(buf):
                        break
                    out.append(str(buf[at + 4 : end], "utf-8"))
                    at = end
                if at:
                    self.take(at)
                else:
                    out.append(str(self.take(self.u32()), "utf-8"))
        except UnicodeDecodeError as exc:
            raise self.corrupt(f"string is not valid UTF-8: {exc}") from exc
        return out

    def floats(self, n: int) -> np.ndarray:
        """``n`` f32 values, each finite, as a read-only array."""
        return self._array(n, _F4)

    def u32s(self, n: int) -> np.ndarray:
        """``n`` u32 values, as a read-only array."""
        return self._array(n, np.dtype("<u4"))

    def _array(self, n: int, dtype: np.dtype) -> np.ndarray:
        self.need(n * dtype.itemsize)
        values = np.empty(n, dtype)
        self._fill(values)
        values.flags.writeable = False
        return values

    def _fill(self, values: np.ndarray) -> None:
        """Read the flat ``values`` a slice at a time, each summed and, if f32, checked finite."""
        for first in range(0, len(values), _SLICE):
            part = values[first : first + _SLICE]
            if self._io(self.fh.readinto, part) != part.nbytes:  # the file shrank since it was opened
                raise self.truncated()
            self.crc = zlib.crc32(part, self.crc)
            self.pos += part.nbytes
            if values.dtype == _F4 and not np.isfinite(part).all():
                raise self.corrupt("non-finite value")

    def tensor_into(self, out: np.ndarray) -> None:
        """Fill the C-contiguous float32 ``out`` from a tensor whose stored rank and dims must be ``out.shape``."""
        ndim = self.u32()
        if ndim != out.ndim:
            raise self.corrupt(f"tensor of rank {ndim}, expected shape {out.shape}")
        dims = struct.unpack(f"<{ndim}I", self.take(4 * ndim))
        if dims != out.shape:
            raise self.corrupt(f"tensor shape {dims}, expected {out.shape}")
        self.need(out.nbytes)
        self._fill(out.reshape(-1).view(_F4))
        if out.dtype != _F4:  # native floats on a big-endian host
            out.byteswap(inplace=True)

    def close(self) -> None:
        """Check the trailing checksum and that nothing follows it; the ``with`` block closes the file."""
        summed = self.crc
        stored = struct.unpack("<Q", self.take(8))[0]
        if self.pos != self.size:
            raise self.corrupt("trailing bytes")
        if summed != stored:
            raise self.corrupt("checksum mismatch")
