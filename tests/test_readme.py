"""The README's Library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "the Library section holds one python block"
    return blocks[0]


def test_readme_library_example_runs():
    scope = {}
    exec(compile(_library_block(), f"{README}:Library", "exec"), scope)
    assert scope["D"].shape == (8, 2)
    assert scope["D_mr"].shape == scope["D_cnn"].shape == (2, 8, 15)
