"""Census server in its own process, for the ``serve`` workload.

Runs :func:`repro.service.server.start_in_thread` over a page directory
and prints one JSON line ``{"port": ..., "boot_s": ...}`` once the server
listens, so the load generator in the parent process does not share the
server's interpreter lock.  A ``stop`` line on standard input stops the
server; the process then prints ``{"tree_peak_rss_kb": ...}`` (the peak
resident set of its worker processes, read before they exit) and ends.

    python3 perfbench/server_proc.py PAGES_DIR WORKERS
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def _children_peak_kb() -> int:
    """Sum of VmHWM over this process's live child processes."""
    me = str(os.getpid())
    total = 0
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            status = (entry / "status").read_text()
        except OSError:
            continue
        fields = dict(
            line.split(":", 1) for line in status.splitlines() if ":" in line
        )
        if fields.get("PPid", "").strip() == me and "VmHWM" in fields:
            total += int(fields["VmHWM"].split()[0])
    return total


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.service.server import start_in_thread

    pages, workers = argv[0], int(argv[1])
    handle = start_in_thread(pages=pages, workers=workers)
    try:
        print(
            json.dumps({"port": handle.port, "boot_s": time.perf_counter() - started}),
            flush=True,
        )
        for line in sys.stdin:
            if line.strip() == "stop":
                break
        peak = _children_peak_kb()
    finally:
        handle.stop()
    print(json.dumps({"tree_peak_rss_kb": peak}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
