"""HTTP/1.1 message rules, stated once for the server and the client.

Pure functions over bytes and strings, with no I/O: the asyncio server
and the SDK's HTTP transport read and write their own sockets and hand
every framing decision to this module.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["MAX_HEADERS", "MAX_HEAD_BYTES", "FramingError", "chunk_size",
           "content_length", "encode_chunk", "format_head", "is_chunked",
           "keep_alive", "parse_fields", "parse_request_head",
           "parse_status_line"]

#: Caps on one message head: its bytes and its header lines.
MAX_HEAD_BYTES = 64 * 1024
MAX_HEADERS = 100


class FramingError(ValueError):
    """The bytes are not a well-formed HTTP/1.1 message."""


def parse_fields(lines: Sequence[str]) -> dict[str, str]:
    """Header lines (without terminators) as lower-cased names, a
    repeated field's values joined with ``", "``."""
    if len(lines) > MAX_HEADERS:
        raise FramingError(f"more than {MAX_HEADERS} header lines")
    fields: dict[str, str] = {}
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep:
            raise FramingError(f"malformed header line {line[:80]!r}")
        name, value = name.strip().lower(), value.strip()
        fields[name] = f"{fields[name]}, {value}" if name in fields else value
    return fields


def parse_request_head(head: bytes) -> tuple[str, str, str, dict[str, str]]:
    """``(method, target, version, fields)`` of a request head, which
    ends with its blank line."""
    if not head.endswith(b"\r\n\r\n"):
        raise FramingError("request head does not end with a blank line")
    request_line, *lines = head[:-4].decode("latin-1").split("\r\n")
    parts = request_line.split()
    if len(parts) != 3:
        raise FramingError(f"malformed request line {request_line[:80]!r}")
    method, target, version = parts
    if not version.startswith("HTTP/"):
        raise FramingError(f"malformed HTTP version {version[:80]!r}")
    return method, target, version, parse_fields(lines)


def parse_status_line(line: str) -> tuple[str, int]:
    """``(version, status)`` of a reply's status line."""
    parts = line.split(None, 2)
    if (len(parts) < 2 or not parts[0].startswith("HTTP/1.")
            or len(parts[1]) != 3 or not parts[1].isdecimal()):
        raise FramingError(f"malformed status line {line[:80]!r}")
    return parts[0], int(parts[1])


def keep_alive(version: str, fields: Mapping[str, str]) -> bool:
    """Whether the connection outlives this message, from its version
    and its ``Connection`` token list."""
    value = fields.get("connection")
    if version == "HTTP/1.0":
        return value is not None and "keep-alive" in _tokens(value)
    return value is None or "close" not in _tokens(value)


def is_chunked(fields: Mapping[str, str]) -> bool:
    """Whether the body is sent with ``Transfer-Encoding: chunked``."""
    value = fields.get("transfer-encoding")
    return value is not None and "chunked" in _tokens(value)


def content_length(fields: Mapping[str, str]) -> int | None:
    """The declared body length, or ``None``; identical repeats merge,
    and a sign, a non-digit or conflicting values are framing errors."""
    value = fields.get("content-length")
    if value is None:
        return None
    length = value
    if "," in value:
        values = {part.strip() for part in value.split(",")}
        length = values.pop() if len(values) == 1 else ""
    if length.isascii() and length.isdecimal():
        try:
            return int(length)
        except ValueError:  # more digits than int() converts
            pass
    raise FramingError(f"Content-Length {value[:80]!r} is not one "
                       "unsigned integer")


def format_head(start_line: str, fields: Iterable[tuple[str, object]]) -> bytes:
    """The head bytes: start line, ``Name: value`` lines, blank line."""
    lines = "".join([f"{name}: {value}\r\n" for name, value in fields])
    return f"{start_line}\r\n{lines}\r\n".encode("latin-1")


def encode_chunk(data: bytes) -> bytes:
    """One chunk of a chunked body; empty ``data`` is the last chunk
    (with an empty trailer)."""
    return b"%X\r\n%s\r\n" % (len(data), data)


def chunk_size(line: bytes) -> int:
    """The size a chunk-size line declares (extensions ignored)."""
    size = line.split(b";", 1)[0].strip()
    if not size or size.strip(b"0123456789abcdefABCDEF"):
        raise FramingError(f"malformed chunk size {line[:80]!r}")
    return int(size, 16)


def _tokens(value: str) -> set[str]:
    return {token.strip().lower() for token in value.split(",")}
