"""The README's examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    # each print(...) line ends in a comment with what it prints
    printed = re.findall(r"^print\(.*\)\s+#\s*(.+?)\s*$", "".join(blocks), re.M)
    assert capsys.readouterr().out.splitlines() == printed
