"""Count the package's lines of code: per module of ``src/pcs_shaper`` and in
total, the lines that are not blank and do not start with ``#`` once their
indentation is stripped.  Docstrings count as code.

Usage: ``python tools/ncloc.py``
"""
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pcs_shaper"


def ncloc(path: Path) -> int:
    """Non-blank lines of ``path`` that do not start with ``#``."""
    lines = (line.strip() for line in path.read_text().splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main() -> int:
    counts = {p.name: ncloc(p) for p in sorted(PACKAGE.glob("*.py"))}
    for name, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
