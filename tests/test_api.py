"""The package's public surface: what `locc_lab.__all__` promises."""

import inspect
import re
from pathlib import Path

import locc_lab

ROOT = Path(__file__).resolve().parent.parent

#: The CLI and the documented workflows: a public name must appear in one.
CALLERS = [
    ROOT / "src" / "locc_lab" / "cli.py",
    ROOT / "README.md",
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def test_every_exported_name_resolves():
    for name in locc_lab.__all__:
        assert getattr(locc_lab, name) is not None, name


def test_test_oracles_are_not_exported():
    exported = set(locc_lab.__all__) | set(vars(locc_lab))
    assert not [name for name in exported if name.endswith("_dense")]
    assert not exported & {"OracleCapExceeded", "DEFAULT_ORACLE_CAP"}


def _calls(text: str, name: str) -> bool:
    """True iff text uses name and does not define it at top level."""
    n = re.escape(name)
    defines = re.search(rf"^(?:{n}\s*(?::|=(?!=))|def {n}\b|class {n}\b)", text, re.M)
    return not defines and re.search(rf"\b{n}\b", text) is not None


def test_every_exported_function_has_a_documented_caller():
    texts = [path.read_text(encoding="utf-8") for path in CALLERS]
    uncalled = [
        name for name in locc_lab.__all__
        if not inspect.isclass(getattr(locc_lab, name))
        and not any(_calls(text, name) for text in texts)
    ]
    assert uncalled == []


def test_every_exported_class_is_defined_in_the_package():
    foreign = [
        name for name in locc_lab.__all__
        if inspect.isclass(cls := getattr(locc_lab, name))
        and cls.__module__.partition(".")[0] != "locc_lab"
    ]
    assert foreign == []
