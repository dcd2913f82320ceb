"""README's "Library use" block runs as written against the package, and its
configuration section shows the defaults and the layer schema."""

import os
import re

import yaml

from increg.config import default_config, parse_config
from increg.network import LAYER_KEYS

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def section(heading: str) -> str:
    with open(README) as f:
        text = f.read()
    return text.split(f"## {heading}", 1)[1].split("\n## ", 1)[0]


def fenced_block(heading: str, lang: str) -> str:
    return re.search(rf"```{lang}\n(.*?)```", section(heading), re.S).group(1)


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


def test_layer_key_table_matches_the_schema():
    shown = {}
    for kind, cell in re.findall(r"^\| `([\w-]+)` \| (.*) \|$", section("Configuration"), re.M):
        keys = {}
        for entry in ([] if cell == "none" else cell.split(", ")):
            key, default = re.fullmatch(r"`(\w+)` \((required|\d+)\)", entry).groups()
            keys[key] = None if default == "required" else int(default)
        shown[kind] = keys
    assert shown == LAYER_KEYS
