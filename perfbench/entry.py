"""Run the ``repro`` CLI in a subprocess, optionally with layer tracing.

Usage: ``python3 perfbench/entry.py <repro cli arguments>``, with ``src`` on
``PYTHONPATH``.  Without ``PERFBENCH_SPANS`` this is ``python3 -m repro``.
With ``PERFBENCH_SPANS=<file>`` it installs the :mod:`tracing` wrappers
before calling :func:`repro.cli.main` and writes the spans to ``<file>`` when
the command returns or is interrupted.  ``PERFBENCH_SPAWN`` (a ``time.time()``
stamp taken by the parent just before it started this process) lets the
``import`` span cover interpreter start as well as ``import repro.cli``.
"""

import os
import sys
import time

spawned = float(os.environ.get("PERFBENCH_SPAWN", time.time()))
import repro.cli  # noqa: E402

imported = time.time()


def main() -> int:
    spans_path = os.environ.get("PERFBENCH_SPANS")
    if not spans_path:
        return repro.cli.main()
    from tracing import Tracer, install

    tracer = Tracer()
    now = time.perf_counter()
    tracer.add_span("import", now - (imported - spawned), now)
    start = time.perf_counter()
    install(tracer)
    tracer.add_span("trace.install", start, time.perf_counter())
    try:
        return repro.cli.main()
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
