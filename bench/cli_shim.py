"""Run one `qtsl` CLI command with the benchmark's tracer installed.

    python3 bench/cli_shim.py RAW_OUT <qtsl arguments...>

Behaves like `python -m qtsl.cli <qtsl arguments...>` (same exit code and
output) and writes the tracer's per-function totals and its spans to RAW_OUT
as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402


def main() -> int:
    raw_out, argv = sys.argv[1], sys.argv[2:]
    import qtsl.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = qtsl.cli.main(argv)
    finally:
        tracer.restore()
    Path(raw_out).write_text(json.dumps({"raw": tracer.raw(), "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main())
