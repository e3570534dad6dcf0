"""Launch the image server for the ``serve-read`` workload.

    python3 perfbench/daemon.py --workspace DIR --workers N \
        --port-file FILE --report FILE [--trace]

Runs :class:`repro.service.server.ImageServer` over the durable
workspace ``DIR`` in this process, writes ``HOST:PORT`` to the port
file once listening, and serves until a remote ``shutdown`` (or
SIGTERM) drains it.  On exit it writes a JSON report: the process's
peak RSS, the Algorithm 2 selection counters of the marked window and,
with ``--trace``, the span summary of that window.

The window is marked by the load generator with two ``ping`` requests
carrying ``{"bench": "start"}`` and ``{"bench": "end"}``; the server
ignores ping arguments, and this launcher's hook only reads them.
Without ``--trace`` nothing of the program is wrapped.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workspace", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro.service.server import ImageServer, ServerConfig

    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer(layers.IDLE_SPANS)
        layers.install(tracer)

    server = ImageServer.for_workspace(
        args.workspace, ServerConfig(workers=args.workers)
    )
    memo_stats = server.system.publisher.selection_memo.stats
    window: dict = {}
    ping = server._op_ping

    def marked_ping(tenant, ping_args):
        mark = ping_args.get("bench")
        if mark == "start":
            window["selection"] = memo_stats.snapshot()
            if tracer is not None:
                tracer.reset()
        elif mark == "end":
            window["selection"] = vars(
                memo_stats.since(window["selection"])
            )
            if tracer is not None:
                window["trace"] = tracer.summary()
        return ping(tenant, ping_args)

    # the dispatcher looks handlers up on the instance
    server._op_ping = marked_ping
    signal.signal(signal.SIGTERM, lambda *_: server.request_shutdown())
    host, port = server.start()
    port_file = Path(args.port_file)
    tmp = port_file.with_suffix(".tmp")
    tmp.write_text(f"{host}:{port}\n")
    tmp.replace(port_file)
    server.wait()
    server.stop()
    if tracer is not None:
        tracer.uninstall()
    Path(args.report).write_text(json.dumps({
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "requests_served": server.requests_served,
        "selection": window.get("selection"),
        "trace": window.get("trace"),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
