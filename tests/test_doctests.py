import doctest
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import gapboot
from gapboot import cli

MODULES = sorted(
    f"gapboot.{info.name}" for info in pkgutil.iter_modules(gapboot.__path__)
) + ["gapboot"]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_gb2_has_examples():
    tests = doctest.DocTestFinder().find(importlib.import_module("gapboot.gb2"))
    assert sum(len(t.examples) for t in tests) >= 5


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    documented = re.search(r"print\(.*\)\s*#\s*(\[.*\])\s*$", block, flags=re.M).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    expected = [float(x) for x in re.findall(r"[-+.\deE]+", documented)]
    got = [float(x) for x in re.findall(r"[-+.\deE]+", printed)]
    assert len(got) == len(expected) == 2
    assert [round(x, 4) for x in got] == expected, printed


#: Backticked README names that are formula symbols, not package names.
README_SYMBOLS = {"w_ak"}


def test_readme_names_exist():
    # every backticked snake_case name (or dotted path holding one) in
    # README, outside code blocks, must resolve from ``gapboot``
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    prose = re.sub(r"^```.*?^```$", "", readme, flags=re.S | re.M)
    names = set()
    for span in re.findall(r"`([^`\n]+)`", prose):
        match = re.fullmatch(r"([A-Za-z]\w*(?:\.\w+)*)(?:\(.*\))?", span)
        if match and re.search(r"[a-z0-9]_[a-z0-9]", match.group(1)):
            names.add(match.group(1))
    assert "od_standard_errors" in names
    missing = []
    for name in sorted(names - README_SYMBOLS):
        target = gapboot
        for part in name.split("."):
            target = getattr(target, part, None)
        if target is None:
            missing.append(name)
    assert missing == []


def test_readme_commands_parse():
    # every ``gapboot ...`` command in README's sh blocks, its backslash
    # continuations joined, must parse: a removed or renamed flag fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = "\n".join(re.findall(r"^```sh\n(.*?)^```$", readme, flags=re.S | re.M))
    commands = [
        shlex.split(line)[1:]
        for line in blocks.replace("\\\n", " ").splitlines()
        if line.startswith("gapboot ")
    ]
    assert len(commands) >= 5
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv)
