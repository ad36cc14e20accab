"""Asyncio load generator subprocess for ``bench_async_serve.py``.

One process drives ``clients`` concurrent keep-alive connections, each
playing full bargaining sessions (open → step-per-round → delete)
against a ``repro serve`` instance until a shared session budget is
drained.  Requests are hand-rolled HTTP/1.1 over raw streams with
precomputed byte strings and substring done-detection: on the 1-core
benchmark boxes the generator shares the CPU with the server under
test, so every cycle the client does not spend is a cycle of measured
server throughput.

Connection failures (resets, listen-queue overflow) are counted,
backed off, and retried — lost work stays visible in the numbers instead of crashing
the run.  Output: ``<completed> <elapsed-seconds> <conn-errors>``.

Usage: ``python _serve_load.py PORT MARKET_DIGEST CLIENTS SESSIONS BASE_RUN``
"""

import asyncio
import json
import re
import sys
import time

_SID = re.compile(rb'"session": "([^"]+)"')


def _request_bytes(method: str, path: str, blob: bytes = b"") -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(blob)}\r\n\r\n"
    ).encode() + blob


async def _roundtrip(reader, writer, data: bytes):
    writer.write(data)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":")[1])
    body = await reader.readexactly(length)
    return int(head.split(b" ", 2)[1]), body


async def _worker(port, digest, base_run, counter, done, errors):
    reader = writer = None
    sid = None
    run = None
    while True:
        if run is None:
            try:
                run = next(counter)
            except StopIteration:
                break
        try:
            if reader is None:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
            if sid is None:
                blob = json.dumps(
                    {"market": digest, "seed": 0, "run": base_run + run}
                ).encode()
                status, body = await _roundtrip(
                    reader, writer, _request_bytes("POST", "/v1/sessions", blob)
                )
                assert status == 201, body
                sid = _SID.search(body).group(1).decode()
            step = _request_bytes(
                "POST", f"/v1/sessions/{sid}/step", b'{"rounds": 1}'
            )
            while True:
                status, body = await _roundtrip(reader, writer, step)
                assert status == 200, body
                if b'"done": true' in body or b'"done":true' in body:
                    break
            await _roundtrip(
                reader, writer, _request_bytes("DELETE", f"/v1/sessions/{sid}")
            )
            done.append(run)
            sid = None
            run = None
        except (
            OSError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            # The session (if any) is abandoned server-side; idle
            # eviction reaps it.  The run index is retried on a fresh
            # connection so the drained total stays exact.
            errors.append(1)
            if writer is not None:
                writer.close()
            reader = writer = None
            sid = None
            await asyncio.sleep(0.05)
    if writer is not None:
        writer.close()


async def _main(port, digest, clients, sessions, base_run):
    counter = iter(range(sessions))
    done, errors = [], []
    start = time.perf_counter()
    await asyncio.gather(
        *(
            _worker(port, digest, base_run, counter, done, errors)
            for _ in range(clients)
        )
    )
    elapsed = time.perf_counter() - start
    print(f"{len(done)} {elapsed:.3f} {len(errors)}")


if __name__ == "__main__":
    _port, _digest = int(sys.argv[1]), sys.argv[2]
    _clients, _sessions, _base = map(int, sys.argv[3:6])
    asyncio.run(_main(_port, _digest, _clients, _sessions, _base))
