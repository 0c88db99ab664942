"""Run a repro server with the benchmark's layer tracer installed.

    python3 perfbench/launch.py --out FILE [--trace] daemon -- <repro-serve args>
    python3 perfbench/launch.py --out FILE [--trace] router -- <repro-cluster args>

Runs the core-speed probe (speedprobe.py) as the process starts and once
the server is up, to calibrate the set-up time, then samples it on the
server's event loop.  With ``--trace`` it also installs the layer timing
wrappers and a ``gc.callbacks`` hook.  Then it calls the real
``repro.service.cli.main`` / ``repro.cluster.cli.main``.  Probe samples and spans stay in memory and
are written to ``--out`` when the server exits (SIGTERM drains it as
usual).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import speedprobe  # noqa: E402
from layertrace import LayerTracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True,
                        help="JSON file written at exit (probes, and spans with --trace)")
    parser.add_argument("--trace", action="store_true",
                        help="install the layer timing wrappers and gc.callbacks")
    parser.add_argument("role", choices=("daemon", "router"))
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    server_args = [a for a in args.server_args if a != "--"]
    probe = speedprobe.LoopProbe()
    probe.boot += speedprobe.probe_runs()
    tracer = LayerTracer().install(args.role) if args.trace else None
    if args.role == "daemon":
        from repro.service.cli import main as server_main
        from repro.service.daemon import ReservationDaemon as daemon_class
    else:
        from repro.cluster.cli import main as server_main
        from repro.cluster.router import ClusterDaemon as daemon_class
    speedprobe.attach(daemon_class, probe)
    try:
        return server_main(server_args)
    finally:
        document = {"probes": probe.samples, "boot_probes": probe.boot}
        if tracer is not None:
            tracer.uninstall()
            document.update(tracer.document())
        Path(args.out).write_text(json.dumps(document), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
