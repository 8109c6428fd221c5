"""One traced CLI process: `identicals.cli.main(argv)` with span recording.

Usage: python3 bench/cli_shim.py <command> --config FILE [--output FILE]

It reads two environment variables: BENCH_SPAN_FILE, where it writes its
spans as JSON when main returns, and BENCH_SPAWN_T, the parent's
time.monotonic() just before it started this process.
"""

import json
import os
import sys
import time

from identicals import cli

IMPORTED = time.monotonic()

import spans  # noqa: E402  (imported after the CLI so import_ms covers only the CLI)


def main() -> int:
    recorder = spans.Recorder()
    recorder.op = 0
    instrumentation = spans.Instrumentation(recorder)
    instrumentation.enable()
    try:
        return cli.main(sys.argv[1:])
    finally:
        payload = {
            **recorder.dump(),
            "wrapped": instrumentation.names,
            "import_ms": (IMPORTED - float(os.environ["BENCH_SPAWN_T"])) * 1e3,
        }
        with open(os.environ["BENCH_SPAN_FILE"], "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
