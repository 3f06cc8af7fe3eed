"""The README's sample output and the demos stay true to the code."""

import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from locc_lab.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_samples() -> dict[str, str]:
    """Command line -> stdout for each `$ locc-lab ...` entry of the
    README's "Sample output" block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("Sample output:\n\n```\n", 1)[1].split("```", 1)[0]
    samples = {}
    for chunk in block.strip("\n").split("\n\n"):
        command, *output = chunk.split("\n")
        samples[command.removeprefix("$ locc-lab ")] = "\n".join(output) + "\n"
    return samples


SAMPLES = readme_samples()

#: `expression   # literal` lines of the README's Library block whose
#: comment starts with the value the expression evaluates to.
CLAIM = re.compile(r"(?P<expr>\S.*?)\s+# (?P<value>False|True|Fraction\(\d+, \d+\))(?!\w)")


def readme_library_block() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_readme_samples_found():
    assert len(SAMPLES) >= 3
    assert "compare eq2 eq3" in SAMPLES


@pytest.mark.parametrize("command", SAMPLES)
def test_readme_sample_output(capsys, command):
    assert main(shlex.split(command)) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (SAMPLES[command], "")


def test_readme_library_block():
    block = readme_library_block()
    namespace = {}
    exec(block, namespace)
    claims = [m for m in map(CLAIM.match, block.splitlines()) if m]
    assert len(claims) >= 4
    for claim in claims:
        got = eval(claim["expr"], namespace)
        want = eval(claim["value"], {"Fraction": Fraction})
        assert (type(got), got) == (type(want), want), claim[0]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point():
    proc = run_python("-m", "locc_lab.cli", "compare", "eq2", "eq3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == SAMPLES["compare eq2 eq3"]
