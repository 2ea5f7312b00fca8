"""Traced ``ffm`` command: ``python3 perfbench/cli_boot.py SPANS.json ARGS...``.

Times the import of the CLI in this fresh process, wraps ffm's public
functions with the span recorder, runs ``ffm.cli.main(ARGS)`` and writes
the spans to SPANS.json.  The exit code is the command's own.
"""

import sys
import time


def main() -> int:
    start = time.perf_counter()
    import ffm.cli
    import_ms = 1e3 * (time.perf_counter() - start)

    import spans
    recorder = spans.install()
    code = ffm.cli.main(sys.argv[2:])
    recorder.dump(sys.argv[1], import_ms=import_ms)
    return code


if __name__ == "__main__":
    sys.exit(main())
