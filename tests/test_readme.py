"""README's "Library use" block runs as written against the package, and its
configuration block shows the defaults."""

import os
import re

import yaml

from increg.config import default_config, parse_config

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def fenced_block(heading: str, lang: str) -> str:
    with open(README) as f:
        text = f.read()
    section = text.split(f"## {heading}", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(capsys):
    scope: dict = {}
    exec(compile(fenced_block("Library use", "python"), "README.md", "exec"), scope)
    ratio, accuracy = (float(v) for v in capsys.readouterr().out.split())
    assert ratio > 1.0
    assert 0.0 <= accuracy <= 1.0
    assert scope["small"].weights[0].size < scope["net"].weights[0].size


def test_configuration_block_shows_the_defaults():
    block = yaml.safe_load(fenced_block("Configuration", "yaml"))
    parse_config(block)

    def same(shown: dict, default: dict, path: str) -> None:
        for key, val in shown.items():
            if isinstance(val, dict):
                same(val, default[key], f"{path}{key}.")
            else:
                assert val == default[key], f"README shows {path}{key}: {val!r}"

    same(block, default_config(), "")
