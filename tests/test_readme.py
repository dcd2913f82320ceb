"""README's "Library use" block runs as written against the package."""

import os
import re

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def library_block() -> str:
    with open(README) as f:
        text = f.read()
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(capsys):
    scope: dict = {}
    exec(compile(library_block(), "README.md", "exec"), scope)
    ratio, accuracy = (float(v) for v in capsys.readouterr().out.split())
    assert ratio > 1.0
    assert 0.0 <= accuracy <= 1.0
    assert scope["small"].weights[0].size < scope["net"].weights[0].size
