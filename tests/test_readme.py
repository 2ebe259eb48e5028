"""Every fenced python block of README.md runs as it is written."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.S | re.M)


def test_readme_has_an_operator_example():
    assert any("def map(self, x)" in block for block in BLOCKS)


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_install_lines_match_pyproject():
    # a test cannot run pip without a network, so the install lines are
    # checked as text: the first is CI's, which installs the test extra, and
    # a --no-build-isolation line
    # names the build requirements, which such a build takes as installed.
    # Those are pyproject's and wheel: setuptools before 70.1 builds through
    # wheel, which an isolated build asks for and installs by itself.
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = README.read_text(encoding="utf-8").split("## Install and test\n")[1]
    lines = re.findall(r"^pip install .*$", section.split("\n## ")[0], re.M)
    assert re.search(r"^test = \[", pyproject, re.M)
    assert lines[0].startswith('pip install -e ".[test]"')
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert f"run: {lines[0].split('#')[0].strip()}\n" in workflow
    requires = re.findall(r'"([^"]+)"', re.search(r"^requires = \[(.*)\]$", pyproject, re.M)[1])
    offline = [line for line in lines if "--no-build-isolation" in line]
    assert offline and all(req in line for line in offline for req in [*requires, "wheel"])
