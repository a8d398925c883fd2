"""HTTP/1.1 framing for ``lopc-serve/1``, the one copy server and client
share: :func:`read_head` for message heads, :func:`content_length` for
bodies."""

from __future__ import annotations

MAX_LINE = 64 * 1024  # bytes per start or header line, CRLF included
MAX_HEADERS = 100


class FramingError(ValueError):
    """A message head outside the subset :func:`read_head` accepts."""


def read_head(reader) -> "tuple[str, dict[str, str]] | None":
    """``(start_line, headers)`` off a buffered binary ``reader``.

    Header names come lower-cased, a repeated header's values joined by
    ``", "``; ``None`` if the stream ends before a whole start line.
    Each header is ``name: value``, no whitespace in or after the name.
    """
    start, headers, count = None, {}, 0
    while True:
        raw = reader.readline(MAX_LINE + 1)
        if len(raw) > MAX_LINE:
            raise FramingError(f"line longer than {MAX_LINE} bytes")
        if not raw.endswith(b"\n"):
            if start is None:
                return None
            raise FramingError("stream ended inside a message head")
        line = raw.rstrip(b"\r\n").decode("latin-1")
        if start is None:
            start = line
            continue
        if not line:
            return start, headers
        count += 1
        if count > MAX_HEADERS:
            raise FramingError(f"more than {MAX_HEADERS} headers")
        name, colon, value = line.partition(":")
        if not colon or name.split() != [name]:
            raise FramingError(f"malformed header line {line[:60]!r}")
        name, value = name.lower(), value.strip(" \t")
        headers[name] = f"{headers[name]}, {value}" if name in headers else value


def content_length(headers: "dict[str, str]", default: str = "") -> int:
    """``Content-Length``: digits only, and repeated values must agree."""
    values = {v.strip() for v in
              headers.get("content-length", default).split(",")}
    length = values.pop() if len(values) == 1 else ""
    if not (length.isascii() and length.isdigit()):
        raise FramingError("missing or malformed Content-Length")
    return int(length)
