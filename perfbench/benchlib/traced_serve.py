"""``repro serve`` with span recording around the daemon's layer calls.

Usage (``PYTHONPATH`` must hold ``perfbench`` and ``src``)::

    python -m benchlib.traced_serve SPANS.json -- [repro serve options]

Installs :func:`benchlib.layers.install_server` wrappers, runs the
daemon in this process, and writes every recorded span to SPANS.json
once the daemon has drained and exited.  Pool workers are forked from
this process and inherit the wrappers, but record nothing (see
:meth:`benchlib.tracer.Tracer.wrap`); their compute time is derived
from what they report back.
"""

from __future__ import annotations

import json
import sys

from . import layers
from .tracer import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_serve SPANS.json -- [serve options]", file=sys.stderr)
        return 2
    out, serve_args = argv[0], argv[2:]
    tracer = Tracer()
    layers.install_server(tracer)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        with open(out, "w", encoding="utf8") as fh:
            json.dump({"spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
