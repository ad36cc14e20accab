"""Generate the wire-protocol reference from the live route table.

``docs/API.md`` is not hand-written: :func:`generate_api_markdown`
renders :data:`repro.service.api.ROUTES` and
:data:`repro.service.api.ERROR_CODES` — the exact objects the server
and the client SDK dispatch through — and
``tests/service/test_api_docs.py`` fails whenever the committed file
differs from a fresh render.  To update the docs, change the route
table and run ``python scripts/gen_api_docs.py``.
"""

from __future__ import annotations

from repro.service.api import ERROR_CODES, ROUTES, Route

__all__ = ["generate_api_markdown"]

_HEADER = """\
# Marketplace wire protocol (`/v1`)

*Generated by `python scripts/gen_api_docs.py` from
`repro.service.api.ROUTES` — do not edit by hand; the drift test
(`tests/service/test_api_docs.py`) compares this file against a fresh
render.*

Every route lives under the `/v1` prefix and speaks JSON: request
bodies are JSON objects, responses are JSON documents, and streaming
routes emit JSON lines (one object per line, chunked transfer).
Errors — on every route — use one typed envelope:

```json
{"error": {"code": "<slug>", "message": "<human readable>", "detail": null}}
```

Only `/v1` paths are routed; anything else, unversioned paths
included, gets the `404` `not_found` envelope.

One transport serves this table: the asyncio server behind
`python -m repro serve` (`--http-workers` sizes its handler pool).
Every session is stepped on its own, exactly as a serial client would
step it.  During a graceful drain the server replies `503` `draining`
with a `Retry-After` hint; the SDK's HTTP transport retries `429`/`503`
automatically (honouring `Retry-After`, jittered exponential backoff).

Clients should prefer the SDK (`repro.client.MarketplaceClient`) over
raw HTTP: it maps this protocol onto typed methods and errors, and its
`LocalTransport` serves the same payloads without a server process.
"""


def _route_anchor(route: Route) -> str:
    slug = (route.method + " " + route.path).lower()
    return "".join(c for c in slug if c.isalnum() or c in " -").replace(" ", "-")


def _overview(routes: tuple[Route, ...]) -> list[str]:
    lines = [
        "## Route overview",
        "",
        "| Method | Path | Status | Summary |",
        "|---|---|---|---|",
    ]
    for route in routes:
        status = f"{route.status}" + (" (stream)" if route.streaming else "")
        lines.append(
            f"| `{route.method}` | [`{route.path}`](#{_route_anchor(route)}) "
            f"| {status} | {route.summary} |"
        )
    return lines


def _route_section(route: Route) -> list[str]:
    lines = [
        f"### `{route.method} {route.path}`",
        "",
        route.summary,
        "",
    ]
    if route.request:
        lines += ["**Request body**", ""]
        for name, description in route.request.items():
            lines.append(f"- `{name}` — {description}")
        lines.append("")
    if route.query:
        lines += ["**Query parameters**", ""]
        for name, description in route.query.items():
            lines.append(f"- `{name}` — {description}")
        lines.append("")
    reply = "Streamed JSON lines" if route.streaming else f"`{route.status}`"
    lines += [f"**Response** ({reply}): {route.response}", ""]
    return lines


def _error_table() -> list[str]:
    lines = [
        "## Error codes",
        "",
        "| Code | HTTP status | Meaning |",
        "|---|---|---|",
    ]
    for code, (status, meaning) in sorted(
        ERROR_CODES.items(), key=lambda item: (item[1][0], item[0])
    ):
        lines.append(f"| `{code}` | {status} | {meaning} |")
    return lines


def generate_api_markdown() -> str:
    """The full ``docs/API.md`` content for the current route table."""
    lines = [_HEADER]
    lines += _overview(ROUTES)
    lines.append("")
    lines.append("## Routes")
    lines.append("")
    for route in ROUTES:
        lines += _route_section(route)
    lines += _error_table()
    lines.append("")
    return "\n".join(lines)
