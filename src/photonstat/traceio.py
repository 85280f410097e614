"""Binary trace file format.

Layout (little-endian):

    offset  size  field
    0       4     magic "PSTT"
    4       4     uint32 version (currently 1)
    8       8     float64 dt (s)
    16      8     float64 carrier_freq (rad/s)
    24      8     uint64 sample count N
    32      8     uint64 seed_id
    40      16*N  interleaved float64 (re, im) envelope samples

The interleaved (re, im) float64 pairs are exactly the "<c16" dtype.
Files with a wrong magic, an unsupported version, a payload of any length
other than 16*N bytes, or values FieldTrace refuses (dt not positive and
finite, a non-finite carrier, N < 2, NaN or inf samples) raise
FormatError.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import FormatError, InvalidArgumentError
from .sources import FieldTrace

__all__ = ["write_trace", "read_trace"]

TRACE_MAGIC = b"PSTT"
TRACE_VERSION = 1
_HEADER = struct.Struct("<4sIddQQ")


def write_trace(trace: FieldTrace, path) -> None:
    """Write a FieldTrace to the documented binary layout."""
    samples = np.ascontiguousarray(trace.samples, dtype="<c16")
    header = _HEADER.pack(
        TRACE_MAGIC,
        TRACE_VERSION,
        float(trace.dt),
        float(trace.carrier_freq),
        samples.size,
        trace.seed_id,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        samples.tofile(fh)


def read_trace(path) -> FieldTrace:
    """Read a FieldTrace written by write_trace."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise FormatError("trace file shorter than its header")
        magic, version, dt, carrier_freq, count, seed_id = _HEADER.unpack(header)
        if magic != TRACE_MAGIC:
            raise FormatError(f"bad magic {magic!r}; not a trace file")
        if version != TRACE_VERSION:
            raise FormatError(f"unsupported trace version {version}")
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER.size + 16 * count
        if size != expected:
            raise FormatError(
                f"trace file has {size} bytes; its header declares {expected}"
            )
        samples = np.fromfile(fh, dtype="<c16", count=count)
    if samples.size != count:
        raise FormatError(f"trace file ended after {samples.size} of {count} samples")
    try:
        return FieldTrace(samples, dt, carrier_freq, seed_id, copy=False)
    except InvalidArgumentError as exc:
        raise FormatError(f"bad trace file {path}: {exc}") from exc
