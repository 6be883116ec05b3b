"""Run one `frs` command under the span recorder.

    python3 traced_cli.py OUT.json <frs arguments...>

Exits with the command's exit code and writes the recorder's spans and
counts to OUT.json when the command ends.
"""

from __future__ import annotations

import json
import sys

from spans import Recorder


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import frs.cli

    recorder = Recorder()
    recorder.install()
    try:
        return frs.cli.main(argv)
    finally:
        recorder.uninstall()
        with open(out_path, "w", encoding="utf-8") as out:
            json.dump(recorder.dump(), out)


if __name__ == "__main__":
    sys.exit(main())
