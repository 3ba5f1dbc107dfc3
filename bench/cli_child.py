"""Run one kreincalc CLI command under the span tracer and save the totals.

    python bench/cli_child.py TOTALS.json <command> --input FILE [...]

The command's report goes to stdout and its exit code is returned, as with
``python -m kreincalc.cli``; the tracer totals go to TOTALS.json.
"""

import json
import sys
from pathlib import Path

from tracing import Tracer


def main() -> int:
    totals_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    from kreincalc import cli

    try:
        code = tracer.request(cli.main, argv)
    finally:
        tracer.uninstall()
        Path(totals_path).write_text(json.dumps(tracer.totals()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
