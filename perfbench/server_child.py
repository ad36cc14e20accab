"""The ``serve-step`` server process: an ``AsyncMarketplaceServer``.

Usage: ``python3 perfbench/server_child.py [--cpu N] [--trace-dir DIR]``

Binds an ephemeral port on 127.0.0.1, prints it on one stdout line,
serves until SIGTERM, then drains.  With ``--trace-dir`` every layer
boundary below the transport is wrapped in a span, and the spans are
written to ``DIR/spans-<pid>.ndjson`` after the drain.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading

sys.path[:0] = [
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), p)
    for p in ("src", "")
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-dir")
    parser.add_argument("--cpu", type=int,
                        help="pin the process (all its threads) to one core")
    args = parser.parse_args()
    if args.cpu is not None:
        # Before any thread exists, so every thread inherits the mask.
        os.sched_setaffinity(0, {args.cpu})

    from repro.service.async_server import AsyncMarketplaceServer

    from perfbench.tracing import Patches, SpanSink, install_layers

    sink = None
    if args.trace_dir:
        sink = SpanSink()
        install_layers(Patches(), sink)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    server = AsyncMarketplaceServer("127.0.0.1", 0)
    _, port = server.start_background()
    print(port, flush=True)
    while not stop.wait(0.2):
        pass
    server.shutdown(timeout=10.0)
    if sink is not None:
        sink.flush(args.trace_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
