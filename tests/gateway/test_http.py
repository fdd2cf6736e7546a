"""Bounded HTTP plumbing: parsing, limits, framing, keep-alive.

The server loop on top of it is exercised, against both planes, by
``tests/test_httpd.py``.
"""

import asyncio
import json

import pytest

from repro.httpd import (
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    HttpError,
    Response,
    json_response,
    jsonable,
    read_request,
)


def parse(raw: bytes):
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(scenario())


class TestParsing:
    def test_get_with_query(self):
        request = parse(
            b"GET /v1/state/ledger?client=c9&x=1 HTTP/1.1\r\n"
            b"Host: localhost\r\n\r\n"
        )
        assert request.method == "GET"
        assert request.path == "/v1/state/ledger"
        assert request.query == {"client": "c9", "x": "1"}
        assert request.header("host") == "localhost"
        assert request.header("Host") == "localhost"  # case-insensitive

    def test_post_with_json_body(self):
        body = json.dumps({"crdt": "ledger", "op": "append"}).encode()
        request = parse(
            b"POST /v1/tx HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        assert request.json_body() == {"crdt": "ledger", "op": "append"}

    def test_percent_decoding_in_path(self):
        request = parse(b"GET /v1/state/my%20crdt HTTP/1.1\r\n\r\n")
        assert request.path == "/v1/state/my crdt"

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_keep_alive_default_and_close(self):
        assert parse(b"GET / HTTP/1.1\r\n\r\n").keep_alive
        request = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not request.keep_alive

    def test_http_1_0_is_never_kept_alive(self):
        # A 1.0 client reads to EOF: answering keep-alive hangs it.
        assert not parse(b"GET / HTTP/1.0\r\n\r\n").keep_alive

    def test_upgrade_detection(self):
        request = parse(
            b"GET /v1/subscribe HTTP/1.1\r\n"
            b"Connection: keep-alive, Upgrade\r\n"
            b"Upgrade: websocket\r\n\r\n"
        )
        assert request.wants_upgrade
        assert not parse(b"GET / HTTP/1.1\r\n\r\n").wants_upgrade


class TestRefusals:
    def test_truncated_head(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"GET / HTT")
        assert excinfo.value.status == 400

    def test_malformed_request_line(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"GET /\r\n\r\n")
        assert excinfo.value.status == 400

    def test_unknown_version_refused(self):
        for line in (b"GET / BANANA", b"GET / HTTP/2.0", b"GET / http/1.1"):
            with pytest.raises(HttpError) as excinfo:
                parse(line + b"\r\n\r\n")
            assert excinfo.value.status == 400

    def test_malformed_header_line(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"GET / HTTP/1.1\r\nbogus header\r\n\r\n")
        assert excinfo.value.status == 400

    def test_oversize_head_431(self):
        padding = b"X-Pad: " + b"p" * MAX_HEAD_BYTES + b"\r\n"
        with pytest.raises(HttpError) as excinfo:
            parse(b"GET / HTTP/1.1\r\n" + padding + b"\r\n")
        assert excinfo.value.status == 431

    def test_oversize_body_413(self):
        with pytest.raises(HttpError) as excinfo:
            parse(
                b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % (MAX_BODY_BYTES + 1)
            )
        assert excinfo.value.status == 413

    def test_bad_content_length(self):
        for value in (b"nan", b"-5"):
            with pytest.raises(HttpError) as excinfo:
                parse(
                    b"POST / HTTP/1.1\r\nContent-Length: "
                    + value + b"\r\n\r\n"
                )
            assert excinfo.value.status == 400

    def test_truncated_body(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort")
        assert excinfo.value.status == 400

    def test_chunked_rejected(self):
        with pytest.raises(HttpError) as excinfo:
            parse(
                b"POST / HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
            )
        assert excinfo.value.status == 400

    def test_non_json_body_raises_400(self):
        request = parse(
            b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\n}{!"
        )
        with pytest.raises(HttpError) as excinfo:
            request.json_body()
        assert excinfo.value.status == 400

    def test_empty_body_is_not_json(self):
        request = parse(b"POST / HTTP/1.1\r\n\r\n")
        with pytest.raises(HttpError):
            request.json_body()


class TestResponses:
    def test_content_length_framing(self):
        raw = Response(200, b"hello").encode(keep_alive=True)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert body == b"hello"
        assert b"Content-Length: 5" in head
        assert b"Connection: keep-alive" in head
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")

    def test_close_and_custom_headers(self):
        raw = Response(429, headers={"Retry-After": "2"}).encode(
            keep_alive=False
        )
        assert b"Connection: close" in raw
        assert b"Retry-After: 2" in raw

    def test_json_response_round_trips(self):
        raw = json_response(200, {"b": 1, "a": [2, 3]}).encode()
        body = raw.partition(b"\r\n\r\n")[2]
        assert json.loads(body) == {"a": [2, 3], "b": 1}
        assert b"Content-Type: application/json" in raw

    def test_head_only_keeps_the_would_be_length(self):
        raw = Response(200, b"hello").encode(head_only=True)
        assert raw.endswith(b"\r\n\r\n")
        assert b"Content-Length: 5" in raw


class TestJsonable:
    def test_bytes_become_hex(self):
        assert jsonable(b"\x00\xff") == "00ff"

    def test_nested_containers(self):
        value = {"k": [b"\x01", {"inner": (b"\x02",)}]}
        assert jsonable(value) == {"k": ["01", {"inner": ["02"]}]}

    def test_sets_become_sorted_lists(self):
        assert jsonable({"s"}) == ["s"]
        assert json.dumps(jsonable(frozenset({1, 2}))) in (
            "[1, 2]", "[2, 1]"
        )

    def test_scalars_pass_through(self):
        for value in (1, 1.5, "x", True, None):
            assert jsonable(value) == value
