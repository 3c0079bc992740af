"""``ssd-insider.fleetrec/v1``: compact binary per-run result records.

Per-run JSON does not scale to a fleet — ten thousand devices' worth of
pretty-printed dicts is hundreds of megabytes of quoting and indentation,
and ``json.dumps`` mangles float identity through decimal round-trips.
This module is a small, dependency-free, msgpack-style codec for exactly
the JSON value model (``None``/``bool``/``int``/``float``/``str`` plus
``list`` and string-keyed ``dict``), with three properties the fleet
pipeline leans on:

* **Lossless** — ``loads_record(dumps_record(x)) == x`` for every
  JSON-representable value, floats bit-exact (IEEE-754 big-endian,
  including ``-0.0`` and infinities; NaN is rejected because it breaks
  the equality the determinism oracle is built on).
* **Canonical** — dict keys are serialised in sorted order, so equal
  values always produce byte-identical encodings.  The whole-fleet-file
  determinism guarantee (same bytes for any ``--shards`` value) rests on
  this.
* **Framed** — a fleet file is a magic header followed by length-prefixed
  records, so readers can skip, stream, and detect truncation.

Wire grammar (all integers big-endian)::

    file   := MAGIC record*
    record := u32 length, then `length` bytes of one encoded value
    value  := 'N'                          null
            | 'T' | 'F'                    true / false
            | 'I' s64                      integer (64-bit range)
            | 'J' u32 utf8                 integer (arbitrary precision)
            | 'D' f64                      float
            | 'S' u32 utf8                 string
            | 'L' u32 value*               list  (count items)
            | 'M' u32 (S-value value)*     dict  (count sorted key/value)

The first record of a fleet file is the plan header (``kind: "plan"``);
every following record is one device (``kind: "device"``).  Field-by-field
layout of the device record is documented in ``docs/fleet.md``.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple, Union

from repro.errors import ReproError

#: Schema name stamped into every fleet record.
FLEETREC_SCHEMA = "ssd-insider.fleetrec/v1"

#: File magic: identifies a fleet record stream and its major version.
MAGIC = b"ssdi.fleetrec/1\n"

#: Signed 64-bit bounds for the fixed-width integer tag.
_I64_MIN, _I64_MAX = -(2 ** 63), 2 ** 63 - 1


class FleetRecordError(ReproError):
    """A fleet record could not be encoded or decoded."""


def _encode_into(value: object, out: List[bytes]) -> None:
    """Append the encoding of one value to ``out`` (list of chunks)."""
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            out.append(b"I")
            out.append(struct.pack(">q", value))
        else:
            text = str(value).encode("ascii")
            out.append(b"J")
            out.append(struct.pack(">I", len(text)))
            out.append(text)
    elif isinstance(value, float):
        if math.isnan(value):
            raise FleetRecordError(
                "NaN is not encodable: it breaks the record equality the "
                "determinism oracle depends on"
            )
        out.append(b"D")
        out.append(struct.pack(">d", value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(b"S")
        out.append(struct.pack(">I", len(data)))
        out.append(data)
    elif isinstance(value, (list, tuple)):
        out.append(b"L")
        out.append(struct.pack(">I", len(value)))
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, Mapping):
        keys = list(value.keys())
        for key in keys:
            if not isinstance(key, str):
                raise FleetRecordError(
                    f"dict keys must be strings (JSON model), "
                    f"got {type(key).__name__}"
                )
        keys.sort()
        out.append(b"M")
        out.append(struct.pack(">I", len(keys)))
        for key in keys:
            _encode_into(key, out)
            _encode_into(value[key], out)
    else:
        raise FleetRecordError(
            f"value of type {type(value).__name__} is outside the JSON "
            f"model and cannot be encoded"
        )


def encode_value(value: object) -> bytes:
    """Encode one JSON-model value to its canonical binary form."""
    out: List[bytes] = []
    _encode_into(value, out)
    return b"".join(out)


def _decode_at(data: bytes, offset: int) -> Tuple[object, int]:
    """Decode one value at ``offset``; returns ``(value, next_offset)``."""
    if offset >= len(data):
        raise FleetRecordError("truncated record: expected a value tag")
    tag = data[offset:offset + 1]
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"T":
        return True, offset
    if tag == b"F":
        return False, offset
    if tag == b"I":
        _need(data, offset, 8)
        return struct.unpack_from(">q", data, offset)[0], offset + 8
    if tag == b"J":
        _need(data, offset, 4)
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        _need(data, offset, length)
        return int(data[offset:offset + length].decode("ascii")), \
            offset + length
    if tag == b"D":
        _need(data, offset, 8)
        (number,) = struct.unpack_from(">d", data, offset)
        if number != number:
            raise FleetRecordError(f"NaN float at offset {offset}")
        return number, offset + 8
    if tag == b"S":
        _need(data, offset, 4)
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        _need(data, offset, length)
        return data[offset:offset + length].decode("utf-8"), offset + length
    if tag == b"L":
        _need(data, offset, 4)
        (count,) = struct.unpack_from(">I", data, offset)
        offset += 4
        items: List[object] = []
        for _ in range(count):
            item, offset = _decode_at(data, offset)
            items.append(item)
        return items, offset
    if tag == b"M":
        _need(data, offset, 4)
        (count,) = struct.unpack_from(">I", data, offset)
        offset += 4
        mapping: Dict[str, object] = {}
        for _ in range(count):
            key, offset = _decode_at(data, offset)
            if not isinstance(key, str):
                raise FleetRecordError("dict key decoded to a non-string")
            mapping[key], offset = _decode_at(data, offset)
        return mapping, offset
    raise FleetRecordError(f"unknown value tag {tag!r} at offset {offset - 1}")


def _need(data: bytes, offset: int, count: int) -> None:
    if offset + count > len(data):
        raise FleetRecordError(
            f"truncated record: needed {count} bytes at offset {offset}, "
            f"have {len(data) - offset}"
        )


def decode_value(data: bytes) -> object:
    """Decode one canonical binary value (must consume all bytes).

    Malformed input raises :class:`FleetRecordError` only: bad UTF-8 or
    integer text and nesting deeper than the interpreter's recursion
    limit are caught once here rather than checked per value.
    """
    try:
        value, offset = _decode_at(data, 0)
    except (ValueError, RecursionError) as exc:
        raise FleetRecordError(
            f"malformed record: {type(exc).__name__}: {exc}"
        ) from None
    if offset != len(data):
        raise FleetRecordError(
            f"{len(data) - offset} trailing bytes after the value"
        )
    return value


def dumps_record(record: Mapping[str, object]) -> bytes:
    """One record as a length-prefixed frame (u32 length + payload)."""
    payload = encode_value(dict(record))
    return struct.pack(">I", len(payload)) + payload


def loads_record(frame: bytes) -> Dict[str, object]:
    """Inverse of :func:`dumps_record` (frame must be exact)."""
    if len(frame) < 4:
        raise FleetRecordError("record frame shorter than its length prefix")
    (length,) = struct.unpack_from(">I", frame, 0)
    if len(frame) != 4 + length:
        raise FleetRecordError(
            f"record frame length mismatch: prefix says {length}, "
            f"frame holds {len(frame) - 4}"
        )
    value = decode_value(frame[4:])
    if not isinstance(value, dict):
        raise FleetRecordError("record payload is not a dict")
    return value


def write_fleet_file(
    path: Union[str, Path],
    plan_header: Mapping[str, object],
    records: Sequence[Mapping[str, object]],
) -> int:
    """Write a complete fleet file; returns bytes written.

    The caller is responsible for passing ``records`` in device-index
    order — the orchestrator's reorder buffer guarantees it — which makes
    the output bytes independent of shard count.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    written = 0
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        written += len(MAGIC)
        header = dict(plan_header)
        header.setdefault("schema", FLEETREC_SCHEMA)
        header.setdefault("kind", "plan")
        frame = dumps_record(header)
        handle.write(frame)
        written += len(frame)
        for record in records:
            frame = dumps_record(record)
            handle.write(frame)
            written += len(frame)
    return written


def iter_fleet_records(path: Union[str, Path]) -> Iterator[Dict[str, object]]:
    """Stream every record (header first) out of a fleet file."""
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise FleetRecordError(
                f"{path}: not a fleet record file (bad magic {magic!r})"
            )
        while True:
            prefix = handle.read(4)
            if not prefix:
                return
            if len(prefix) < 4:
                raise FleetRecordError(f"{path}: truncated length prefix")
            (length,) = struct.unpack(">I", prefix)
            payload = handle.read(length)
            if len(payload) < length:
                raise FleetRecordError(
                    f"{path}: truncated record (wanted {length} bytes, "
                    f"got {len(payload)})"
                )
            value = decode_value(payload)
            if not isinstance(value, dict):
                raise FleetRecordError(f"{path}: record payload is not a dict")
            yield value


def read_fleet_file(
    path: Union[str, Path],
) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Load a fleet file into ``(plan_header, device_records)``."""
    records = iter_fleet_records(path)
    try:
        header = next(records)
    except StopIteration:
        raise FleetRecordError(f"{path}: fleet file has no header record") \
            from None
    if header.get("kind") != "plan":
        raise FleetRecordError(
            f"{path}: first record is {header.get('kind')!r}, "
            f"expected the 'plan' header"
        )
    return header, list(records)
