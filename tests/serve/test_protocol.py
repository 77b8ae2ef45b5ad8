"""Wire framing: pack/parse round trips and corrupt-frame rejection."""

import io

import numpy as np
import pytest

from repro.serve.protocol import (
    HEADER,
    MAGIC,
    ProtocolError,
    pack_frame,
    payload_to_words,
    read_frame_blocking,
    words_to_payload,
    write_frame_blocking,
)


class TestFraming:
    def test_round_trip(self):
        words = np.array([0, 1, 2**62 - 1, 17], dtype=np.int64)
        frame = pack_frame(
            {"op": "encode", "id": 3}, words_to_payload(words)
        )
        header, payload = read_frame_blocking(io.BytesIO(frame))
        assert header == {"op": "encode", "id": 3}
        np.testing.assert_array_equal(payload_to_words(payload), words)

    def test_empty_payload(self):
        header, payload = read_frame_blocking(
            io.BytesIO(pack_frame({"op": "ping", "id": 0}))
        )
        assert payload == b""
        assert len(payload_to_words(payload)) == 0

    def test_blocking_write_matches_pack(self):
        stream = io.BytesIO()
        write_frame_blocking(stream, {"id": 1}, b"\x00" * 8)
        assert stream.getvalue() == pack_frame({"id": 1}, b"\x00" * 8)

    def test_clean_eof(self):
        with pytest.raises(EOFError):
            read_frame_blocking(io.BytesIO(b""))

    def test_truncated_frame(self):
        frame = pack_frame({"op": "ping", "id": 0}, b"\x01" * 16)
        with pytest.raises(ProtocolError, match="mid-frame"):
            read_frame_blocking(io.BytesIO(frame[:-3]))

    def test_bad_magic(self):
        frame = bytearray(pack_frame({"op": "ping"}))
        frame[0:2] = b"XX"
        with pytest.raises(ProtocolError, match="magic"):
            read_frame_blocking(io.BytesIO(bytes(frame)))

    def test_bad_version(self):
        frame = bytearray(pack_frame({"op": "ping"}))
        frame[2] = 99
        with pytest.raises(ProtocolError, match="version"):
            read_frame_blocking(io.BytesIO(bytes(frame)))

    def test_header_must_be_json_object(self):
        body = b"[1, 2]"
        frame = HEADER.pack(MAGIC, 1, len(body), 0) + body
        with pytest.raises(ProtocolError, match="JSON object"):
            read_frame_blocking(io.BytesIO(frame))

    def test_header_must_be_valid_json(self):
        body = b"{nope"
        frame = HEADER.pack(MAGIC, 1, len(body), 0) + body
        with pytest.raises(ProtocolError, match="not valid JSON"):
            read_frame_blocking(io.BytesIO(frame))

    def test_oversized_header_rejected_without_reading_it(self):
        frame = HEADER.pack(MAGIC, 1, (1 << 20) + 1, 0)
        with pytest.raises(ProtocolError, match="too large"):
            read_frame_blocking(io.BytesIO(frame))


class TestPayloadCodec:
    def test_words_survive_the_wire(self):
        words = np.array([-1, 0, 2**63 - 1], dtype=np.int64)
        np.testing.assert_array_equal(
            payload_to_words(words_to_payload(words)), words
        )

    def test_payload_parses_to_a_read_only_view(self):
        payload = words_to_payload(np.arange(5, dtype=np.int64))
        words = payload_to_words(payload)
        assert words.dtype == np.int64 and words.dtype.isnative
        assert not words.flags.writeable
        assert np.shares_memory(words, np.frombuffer(payload, np.uint8))

    @pytest.mark.parametrize("words", [
        np.array([-3, 7, 2**31 - 1], dtype=np.int32),
        np.array([-3, 7, 2**40], dtype=">i8"),
        np.arange(12, dtype=np.int64)[::3],
    ])
    def test_any_integer_layout_packs_as_little_endian_int64(self, words):
        payload = words_to_payload(words)
        assert payload == np.asarray(words, dtype="<i8").tobytes()
        np.testing.assert_array_equal(payload_to_words(payload), words)

    def test_ragged_payload_rejected(self):
        with pytest.raises(ProtocolError, match="whole number"):
            payload_to_words(b"\x00" * 9)

    def test_non_integer_stream_rejected(self):
        with pytest.raises(ProtocolError, match="integer"):
            words_to_payload(np.array([1.5]))

    def test_2d_stream_rejected(self):
        with pytest.raises(ProtocolError, match="1-D"):
            words_to_payload(np.zeros((2, 2), dtype=np.int64))
