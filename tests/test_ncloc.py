"""``tools/ncloc.py``, the package's line counter: one line per module and a
total that is their sum."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ncloc_lists_every_module_and_their_sum():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "ncloc.py")],
                         capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()]
    counts = {name: int(n) for n, name in rows}
    total = counts.pop("total")
    modules = {p.name for p in (ROOT / "src" / "pcs_shaper").glob("*.py")}
    assert set(counts) == modules
    assert all(n > 0 for n in counts.values())
    assert total == sum(counts.values())
    assert rows[-1][1] == "total"
