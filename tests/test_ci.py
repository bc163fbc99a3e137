"""The CI workflow is well formed: GitHub Actions refuses a mapping that
names a key twice, while a plain YAML loader keeps the last value and so
hides a step that was written over."""

import re
import shlex
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


class UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that raises on a key repeated within one mapping."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep)


def load(text: str):
    return yaml.load(text, Loader=UniqueKeyLoader)


def workflow_steps() -> list[dict]:
    jobs = load(WORKFLOW.read_text())["jobs"]
    return [step for job in jobs.values() for step in job["steps"]]


def test_loader_rejects_a_repeated_key():
    text = ("steps:\n"
            "  - name: CLI end to end\n"
            "    run: python -m caggnet.cli synth\n"
            "    run: python3 -m pytest -q bench/selftest.py\n")
    with pytest.raises(yaml.constructor.ConstructorError, match="'run'"):
        load(text)


def test_step_names_are_unique():
    names = [step["name"] for step in workflow_steps() if "name" in step]
    assert names and len(names) == len(set(names))


def test_each_step_has_one_run_or_uses():
    for step in workflow_steps():
        assert len(step.keys() & {"run", "uses"}) == 1, step


def install_step() -> list[str]:
    return next(step["run"] for step in workflow_steps()
                if step.get("name") == "Install test dependencies").split()


def test_ci_installs_yaml():
    # otherwise these checks would skip in CI
    assert "pyyaml" in install_step()


def test_ci_installs_the_test_extra():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    installed = install_step()
    for requirement in project["optional-dependencies"]["test"]:
        # the package name, without a version bound or extras
        package = re.match(r"[A-Za-z0-9._-]+", requirement).group(0).lower()
        assert package in installed, requirement


def test_ci_cli_commands_parse():
    # a removed flag would otherwise go stale here unnoticed
    from caggnet.cli import build_parser

    prefix = ["python", "-m", "caggnet.cli"]
    argvs = [shlex.split(line)[len(prefix):]
             for step in workflow_steps() if "run" in step
             for line in step["run"].splitlines()
             if shlex.split(line)[:len(prefix)] == prefix]
    assert {argv[0] for argv in argvs} == {"synth", "train", "eval", "gradcheck"}
    parser = build_parser()
    for argv in argvs:
        parser.parse_args(argv)
