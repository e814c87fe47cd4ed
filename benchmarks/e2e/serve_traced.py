"""``repro serve`` under the benchmark's span tracer.

Usage: ``python -m benchmarks.e2e.serve_traced SPANS.json serve ARGS...``

Problem-build wrappers go in first; the engine and serving wrappers go
in only once ``EngineHub.warm`` has returned, so any worker pool the
server forks runs unwrapped code.  The server's own SIGTERM handler
drains and returns from ``repro.cli.main``; the spans are written then.
"""

from __future__ import annotations

import sys

from repro import cli
from repro.serve.batcher import EngineHub

from .trace import Tracer, install_build, install_serving


def main(argv: list[str]) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    install_build(tracer)
    warm = EngineHub.warm

    def warm_then_trace(hub: EngineHub) -> None:
        warm(hub)
        install_serving(tracer)

    EngineHub.warm = warm_then_trace
    try:
        return cli.main(serve_args)
    finally:
        EngineHub.warm = warm
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
