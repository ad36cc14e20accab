"""The HTTP/1.1 message rules both transports frame by."""

import pytest

from repro.utils import http11
from repro.utils.http11 import FramingError


class TestContentLength:
    @pytest.mark.parametrize("value, length", [
        ("0", 0), ("13", 13), ("007", 7),
        ("5, 5", 5), ("5,5", 5), ("5 , 5, 5", 5),
    ])
    def test_one_run_of_digits(self, value, length):
        assert http11.content_length({"content-length": value}) == length

    def test_absent_is_none(self):
        assert http11.content_length({}) is None

    @pytest.mark.parametrize("value", [
        "", "+2", "-1", "0x10", "1.0", "lots", "2, 0", "2,", " ,2",
        "٢",  # a non-ASCII decimal digit
        "1" * 5000,  # past int()'s digit limit
    ])
    def test_anything_else_is_a_framing_error(self, value):
        with pytest.raises(FramingError, match="Content-Length"):
            http11.content_length({"content-length": value})


class TestKeepAlive:
    @pytest.mark.parametrize("version, connection, kept", [
        ("HTTP/1.1", None, True),
        ("HTTP/1.1", "keep-alive", True),
        ("HTTP/1.1", "close", False),
        ("HTTP/1.1", "Close", False),
        ("HTTP/1.1", "TE, close", False),
        ("HTTP/1.1", "closed", True),
        ("HTTP/1.0", None, False),
        ("HTTP/1.0", "Keep-Alive", True),
        ("HTTP/1.0", "Keep-Alive, TE", True),
        ("HTTP/1.0", "keep-alive-ish", False),
    ])
    def test_connection_token_list(self, version, connection, kept):
        fields = {} if connection is None else {"connection": connection}
        assert http11.keep_alive(version, fields) is kept


@pytest.mark.parametrize("value, chunked", [
    (None, False), ("chunked", True), ("gzip, Chunked", True),
    ("xchunked", False), ("identity", False),
])
def test_is_chunked(value, chunked):
    fields = {} if value is None else {"transfer-encoding": value}
    assert http11.is_chunked(fields) is chunked


class TestParseFields:
    def test_names_lowered_and_repeats_joined(self):
        fields = http11.parse_fields(
            ["Host: x", "X-Tag:  a ", "x-tag: b", "Empty:"]
        )
        assert fields == {"host": "x", "x-tag": "a, b", "empty": ""}

    def test_line_without_colon_is_malformed(self):
        with pytest.raises(FramingError, match="malformed header line"):
            http11.parse_fields(["Host x"])

    def test_header_line_cap(self):
        lines = [f"X-H{i}: v" for i in range(http11.MAX_HEADERS)]
        assert len(http11.parse_fields(lines)) == http11.MAX_HEADERS
        with pytest.raises(FramingError, match="header lines"):
            http11.parse_fields(lines + ["X-One-More: v"])


class TestRequestHead:
    def test_parsed(self):
        head = b"POST /v1/x?a=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\n\r\n"
        assert http11.parse_request_head(head) == (
            "POST", "/v1/x?a=1", "HTTP/1.1",
            {"host": "h", "content-length": "2"},
        )

    @pytest.mark.parametrize("head", [
        b"GET /\r\n\r\n",
        b"GET / HTTP/1.1 extra\r\n\r\n",
        b"GET / FTP/1.1\r\n\r\n",
        b"GET / HTTP/1.1\r\nHost: h\r\n",
        b"GET / HTTP/1.1\r\nHost h\r\n\r\n",
    ])
    def test_malformed(self, head):
        with pytest.raises(FramingError):
            http11.parse_request_head(head)


class TestStatusLine:
    @pytest.mark.parametrize("line, parsed", [
        ("HTTP/1.1 200 OK", ("HTTP/1.1", 200)),
        ("HTTP/1.0 404", ("HTTP/1.0", 404)),
        ("HTTP/1.1 503 Service Unavailable", ("HTTP/1.1", 503)),
    ])
    def test_parsed(self, line, parsed):
        assert http11.parse_status_line(line) == parsed

    @pytest.mark.parametrize("line", [
        "", "HTTP/1.1", "HTTP/2 200 OK", "HTTP/1.1 20 OK", "HTTP/1.1 2x0 OK",
        "HTTP/1.1 ²00 OK",
    ])
    def test_malformed(self, line):
        with pytest.raises(FramingError, match="status line"):
            http11.parse_status_line(line)


def test_format_head():
    head = http11.format_head(
        "HTTP/1.1 200 OK", [("Content-Type", "application/json"),
                            ("Content-Length", 2)]
    )
    assert head == (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: 2\r\n\r\n")
    assert http11.format_head("GET / HTTP/1.1", []) == b"GET / HTTP/1.1\r\n\r\n"


class TestChunks:
    def test_encode(self):
        assert http11.encode_chunk(b"x" * 26) == b"1A\r\n" + b"x" * 26 + b"\r\n"
        assert http11.encode_chunk(b"") == b"0\r\n\r\n"

    @pytest.mark.parametrize("line, size", [
        (b"1A\r\n", 26), (b"1a;ext=1\r\n", 26), (b"0\r\n", 0), (b"00ff\n", 255),
    ])
    def test_size(self, line, size):
        assert http11.chunk_size(line) == size

    @pytest.mark.parametrize("line", [
        b"", b"\r\n", b"-1\r\n", b"+1\r\n", b"0x1a\r\n", b"zz\r\n", b"1 1\r\n",
    ])
    def test_malformed_size(self, line):
        with pytest.raises(FramingError, match="chunk size"):
            http11.chunk_size(line)
