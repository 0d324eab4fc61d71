"""Run ``python -m repro.service serve`` with the layer tracer installed.

Usage::

    python3 campaign_bench/traced_serve.py OUT_DIR STEM serve STATE_DIR [serve flags]

The wrappers go onto the classes before the service builds its runners,
so the daemon's executor threads and HTTP threads are traced exactly like
an in-process campaign.  After the graceful (SIGINT) shutdown the pair
table and the trace events are written to ``OUT_DIR/STEM.layers.json`` and
``OUT_DIR/STEM.trace.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import import_repro  # noqa: E402


def main() -> int:
    out_dir, stem, *serve_argv = sys.argv[1:]
    import_repro()
    from tracer import LayerTracer

    tracer = LayerTracer().install()
    from repro.service.cli import main as service_main

    try:
        return service_main(serve_argv)
    finally:
        tracer.uninstall()
        tracer.write(Path(out_dir), stem)


if __name__ == "__main__":
    sys.exit(main())
