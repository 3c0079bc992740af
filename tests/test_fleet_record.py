"""The fleetrec/v1 binary codec: lossless, canonical, framed."""

import json
import math
import random
import struct

import pytest

from repro.fleet.record import (
    FLEETREC_SCHEMA,
    MAGIC,
    FleetRecordError,
    decode_value,
    dumps_record,
    encode_value,
    iter_fleet_records,
    loads_record,
    read_fleet_file,
    write_fleet_file,
)
from repro.rand import derive_seed


def random_value(rng, depth=0):
    """One random JSON-model value (bounded depth)."""
    kinds = ["null", "bool", "int", "bigint", "float", "str"]
    if depth < 3:
        kinds += ["list", "dict"]
    kind = kinds[rng.randrange(len(kinds))]
    if kind == "null":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.randrange(-2 ** 63, 2 ** 63)
    if kind == "bigint":
        return rng.randrange(2 ** 80) - 2 ** 79
    if kind == "float":
        return rng.uniform(-1e12, 1e12)
    if kind == "str":
        return "".join(chr(rng.randrange(32, 0x2FFF))
                       for _ in range(rng.randrange(8)))
    if kind == "list":
        return [random_value(rng, depth + 1)
                for _ in range(rng.randrange(4))]
    return {f"k{i}": random_value(rng, depth + 1)
            for i in range(rng.randrange(4))}


class TestValueRoundTrip:
    def test_seeded_property_round_trip(self):
        """200 random JSON-model values survive encode/decode exactly."""
        rng = random.Random(derive_seed(0, "fleetrec-property"))
        for _ in range(200):
            value = random_value(rng)
            assert decode_value(encode_value(value)) == value

    @pytest.mark.parametrize("value", [
        None, True, False, 0, -1, 2 ** 63 - 1, -(2 ** 63), 2 ** 100,
        -(2 ** 100), 0.0, -0.0, 1.5, math.inf, -math.inf, 1e-310,
        "", "ascii", "ünïcödé ☃", [], [1, [2, [3]]], {},
        {"nested": {"deep": [None, True, {"x": 1.25}]}},
    ])
    def test_edge_values(self, value):
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_negative_zero_is_bit_exact(self):
        decoded = decode_value(encode_value(-0.0))
        assert math.copysign(1.0, decoded) == -1.0

    def test_float_bit_exactness(self):
        """IEEE-754 bits survive — no decimal round-trip mangling."""
        rng = random.Random(derive_seed(1, "fleetrec-bits"))
        for _ in range(100):
            bits = rng.getrandbits(64)
            (value,) = struct.unpack(">d", struct.pack(">Q", bits))
            if math.isnan(value):
                continue
            decoded = decode_value(encode_value(value))
            assert struct.pack(">d", decoded) == struct.pack(">d", value)

    def test_nan_rejected(self):
        with pytest.raises(FleetRecordError):
            encode_value(math.nan)

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(FleetRecordError):
            encode_value({1: "x"})

    def test_unencodable_type_rejected(self):
        with pytest.raises(FleetRecordError):
            encode_value(object())

    def test_canonical_key_order(self):
        """Equal dicts encode to identical bytes regardless of insertion
        order — the whole-file determinism guarantee rests on this."""
        a = encode_value({"b": 1, "a": 2, "c": 3})
        b = encode_value({"c": 3, "a": 2, "b": 1})
        assert a == b

    def test_json_equivalence(self):
        """A record that went through the binary codec serialises to the
        same JSON as the original (lossless round-trip to JSON forms)."""
        record = {"schema": FLEETREC_SCHEMA, "alarm_time": 17.25,
                  "verdict": "true_alarm", "onset": None, "index": 3,
                  "benign": False, "nested": {"values": [1, 2.5, "x"]}}
        rebuilt = decode_value(encode_value(record))
        assert json.dumps(rebuilt, sort_keys=True) == \
            json.dumps(record, sort_keys=True)


class TestFraming:
    def test_record_frame_round_trip(self):
        record = {"kind": "device", "index": 0, "score": 0.75}
        assert loads_record(dumps_record(record)) == record

    def test_trailing_bytes_rejected(self):
        with pytest.raises(FleetRecordError):
            decode_value(encode_value(1) + b"x")

    def test_truncated_value_rejected(self):
        encoded = encode_value({"k": "value"})
        with pytest.raises(FleetRecordError):
            decode_value(encoded[:-2])

    def test_bad_frame_length_rejected(self):
        frame = dumps_record({"a": 1})
        with pytest.raises(FleetRecordError):
            loads_record(frame + b"x")
        with pytest.raises(FleetRecordError):
            loads_record(frame[:3])

    def test_unknown_tag_rejected(self):
        with pytest.raises(FleetRecordError):
            decode_value(b"Z")

    def test_non_dict_record_rejected(self):
        payload = encode_value([1, 2])
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(FleetRecordError):
            loads_record(frame)


class TestMalformedInput:
    """Bad bytes raise FleetRecordError, never a bare Python error."""

    def test_invalid_utf8_string(self):
        with pytest.raises(FleetRecordError):
            decode_value(b"S\x00\x00\x00\x01\xff")

    def test_non_numeric_bigint_text(self):
        with pytest.raises(FleetRecordError):
            decode_value(b"J\x00\x00\x00\x01x")

    def test_deep_nesting(self):
        with pytest.raises(FleetRecordError):
            decode_value(b"L\x00\x00\x00\x01" * 5000 + b"N")

    def test_nan_float(self):
        with pytest.raises(FleetRecordError):
            decode_value(b"D\x7f\xf8" + 6 * b"\x00")

    def test_seeded_mutation_fuzz(self):
        """Mutants of one device frame either decode or raise the typed error."""
        rng = random.Random(derive_seed(0, "fleetrec-mutation"))
        frame = dumps_record({
            "kind": "device", "index": 3, "name": "d\u00e9vice-\u00fc",
            "score": 0.25, "big": 2 ** 90,
            "flags": [True, False, None, -1.5],
            "nested": {"a": [1, 2, {"b": "x"}], "c": -(2 ** 63)},
        })
        for _ in range(3000):
            mutant = bytearray(frame)
            for _ in range(rng.randrange(1, 4)):
                at = rng.randrange(len(mutant))
                op = rng.randrange(3)
                if op == 0:
                    mutant[at] = rng.randrange(256)
                elif op == 1:
                    mutant.insert(at, rng.randrange(256))
                else:
                    del mutant[at]
            try:
                loads_record(bytes(mutant))
            except FleetRecordError:
                pass


class TestFleetFile:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "fleet.fleetrec"
        header = {"devices": 2, "seed": 7}
        records = [{"kind": "device", "index": 0, "alarm_time": 17.25},
                   {"kind": "device", "index": 1, "alarm_time": None}]
        written = write_fleet_file(path, header, records)
        assert written == path.stat().st_size
        loaded_header, loaded = read_fleet_file(path)
        assert loaded == records
        assert loaded_header["devices"] == 2
        assert loaded_header["kind"] == "plan"
        assert loaded_header["schema"] == FLEETREC_SCHEMA

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"not a fleet file")
        with pytest.raises(FleetRecordError):
            list(iter_fleet_records(path))

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "fleet.fleetrec"
        write_fleet_file(path, {"devices": 1}, [{"kind": "device",
                                                 "index": 0}])
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(FleetRecordError):
            list(iter_fleet_records(path))

    def test_missing_header_detected(self, tmp_path):
        path = tmp_path / "fleet.fleetrec"
        path.write_bytes(MAGIC)
        with pytest.raises(FleetRecordError):
            read_fleet_file(path)

    def test_wrong_first_record_kind_detected(self, tmp_path):
        path = tmp_path / "fleet.fleetrec"
        with open(path, "wb") as handle:
            handle.write(MAGIC)
            handle.write(dumps_record({"kind": "device", "index": 0}))
        with pytest.raises(FleetRecordError):
            read_fleet_file(path)
