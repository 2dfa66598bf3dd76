"""The README's library quickstart runs against the current API, and its
scenario list is the CLI's."""
import re
from pathlib import Path

from pcs_shaper.cli import SCENARIOS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quickstart_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_lists_exactly_the_cli_scenarios():
    text = README.read_text()
    listed = text.split("`config.json` selects one scenario:\n\n", 1)[1].split("\n\n", 1)[0]
    heads = re.findall(r"^\* (.*?) - ", listed, re.M)
    assert sorted(name for head in heads for name in re.findall(r"`(\w+)`", head)) \
        == sorted(SCENARIOS)
