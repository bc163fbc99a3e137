"""The README's examples stay runnable: its config block loads as a `train`
config, and each `caggnet` command in its CLI block parses."""

import json
import re
import shlex
from pathlib import Path

from caggnet.cli import _leaves, build_parser, default_config, load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(),
                      flags=re.M | re.S)


def commands(block: str, program: str) -> list[list[str]]:
    """The argv after `program` of each command line in a shell block,
    with backslash-continued lines joined."""
    lines = block.replace("\\\n", " ").splitlines()
    argvs = (shlex.split(line, comments=True) for line in lines)
    return [argv[1:] for argv in argvs if argv[:1] == [program]]


def test_config_example_loads_as_a_train_config(tmp_path):
    (block,) = fenced_blocks("json")
    path = tmp_path / "config.json"
    path.write_text(block)
    load_config(str(path), {}, "train", None)
    # it shows every key
    assert sorted(_leaves(json.loads(block))) == sorted(_leaves(default_config()))


def test_cli_examples_parse():
    argvs = [argv for block in fenced_blocks("sh")
             for argv in commands(block, "caggnet")]
    assert {argv[0] for argv in argvs} == {"synth", "train", "eval", "gradcheck"}
    parser = build_parser()
    for argv in argvs:
        parser.parse_args(argv)
