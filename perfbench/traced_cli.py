"""Run one raytail CLI call in this fresh interpreter with the span tracer
installed, then write the spans to a file.

    python3 perfbench/traced_cli.py SPANS.json estimate lambda --input x.csv ...

The CLI's own stdout and exit code pass through unchanged, so the caller
checks the traced call exactly like a plain ``python -m raytail.cli`` call.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def main():
    span_path, argv = sys.argv[1], sys.argv[2:]
    from raytail import cli
    from spans import Tracer, import_raytail_modules

    tracer = Tracer()
    tracer.install(import_raytail_modules())
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.write(span_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
