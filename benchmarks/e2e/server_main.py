"""The benchmark's server child: ``repro serve`` and nothing else.

``python server_main.py <serve argv...>`` calls
``repro.cli.main(["serve", ...])`` — the same code path as ``python -m repro
serve``.  Two environment variables add measurement around (never inside)
that call:

* ``BENCH_TRACE=<file>`` installs :mod:`spans` wrappers before the service is
  built and dumps the recorded spans to ``<file>`` at exit;
* ``BENCH_EXIT_REPORT=<file>`` writes the process's peak RSS (``VmHWM``, which
  unlike ``ru_maxrss`` is not inherited from the parent across ``exec``) as
  JSON at exit.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))


def _vm_hwm_kb() -> int:
    with open("/proc/self/status") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(argv) -> int:
    trace_path = os.environ.get("BENCH_TRACE")
    report_path = os.environ.get("BENCH_EXIT_REPORT")
    recorder = None
    if trace_path:
        import spans

        recorder = spans.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *argv])
    finally:
        if recorder is not None:
            recorder.dump(trace_path)
        if report_path:
            with open(report_path, "w") as fp:
                json.dump({"vm_hwm_kb": _vm_hwm_kb()}, fp)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
