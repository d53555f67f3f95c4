"""One fixed width for the package source, so that line counts compare."""

from pathlib import Path

import hexlat

_MAX_COLUMNS = 100


def test_no_source_line_exceeds_the_width():
    src = Path(hexlat.__file__).parent
    long = [f"{path.name}:{n}" for path in sorted(src.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > _MAX_COLUMNS]
    assert not long, f"lines over {_MAX_COLUMNS} columns: {long}"
