"""Run one `hexlat` command in this fresh interpreter.

    python3 perfbench/cli_child.py SPANS_FILE|- COMMAND [hexlat arguments ...]

With `-` this does what the `hexlat` console script does.  With a spans
file it first installs the benchmark's span wrappers, then writes the
spans and the moment `hexlat.cli` finished importing to that file as
JSON.  hexlat must be importable (the benchmark sets PYTHONPATH).
"""

import sys
import time

import hexlat.cli

IMPORTED = time.perf_counter()


def traced_main(spans_file: str, argv: list[str]) -> int:
    import json

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return hexlat.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_file, "w") as fh:
            json.dump({"imported": IMPORTED, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    spans_file, argv = sys.argv[1], sys.argv[2:]
    sys.exit(hexlat.cli.main(argv) if spans_file == "-" else traced_main(spans_file, argv))
