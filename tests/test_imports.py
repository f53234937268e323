"""Every module of the package uses each name it imports (the package
__init__ imports only to re-export, so it is left out), every function,
class and method it defines is named somewhere in it, no module but
profile.py reads a profile's slots, only `serial_place` uses the
sentinel segment, no module makes a check with
`assert`, every SolverConfig field is read somewhere, and the package
imports nothing outside the standard library, nor multiprocessing until
a benchmark pool starts."""

import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from rcpsp_hybrid.solver import SolverConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rcpsp_hybrid"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # a dotted use such as np.asarray starts with the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_guard_sees_unused_names():
    source = "import os\nimport numpy as np\nfrom typing import Optional, Sequence\nx: Sequence = np.zeros(1)\n"
    assert unused_imports(source) == ["os (line 1)", "Optional (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unnamed_definitions(sources: dict[str, str]) -> list[str]:
    """The functions, classes and methods defined in `sources` (module name
    to source text), dunders aside, whose name no module ever uses as a
    name, an attribute or an imported name, so that a re-export in the
    package __init__ counts as a use."""
    defined = []
    named = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node.lineno))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return [
        f"{module}.{name} (line {line})"
        for module, name, line in sorted(defined)
        if name not in named and not (name.startswith("__") and name.endswith("__"))
    ]


def test_guard_sees_unnamed_definitions():
    sources = {
        "a": "class C:\n    def __len__(self):\n        return 0\n    def m(self):\n"
        "        return helper()\n    def dead(self):\n        pass\n"
        "def helper():\n    return C().m()\ndef gone():\n    pass\n",
        "__init__": "from .a import C\n",
    }
    assert unnamed_definitions(sources) == ["a.dead (line 6)", "a.gone (line 10)"]


def test_every_definition_is_named():
    """A definition nothing names is dead code: only tests could reach it."""
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unnamed_definitions(sources) == []


def profile_field_reads(source: str) -> list[int]:
    """The lines that read an attribute named `slots`: the storage of a
    profile, whose format only profile.py may know."""
    tree = ast.parse(source)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "slots"
    )


def test_guard_sees_profile_field_reads():
    source = "def f(rem):\n    slots = rem.slots\n    return rem.slots[0], slots\n"
    assert profile_field_reads(source) == [2, 3]


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "profile.py"],
    ids=lambda p: p.name,
)
def test_only_profile_reads_the_change_points(path):
    """No module but profile.py reads a profile's `slots`, its storage."""
    assert profile_field_reads(path.read_text()) == []


def sentinel_users(sources: dict[str, str]) -> list[str]:
    """The functions and methods of `sources` (module name to source text)
    that name `_all_fit`, the sentinel segment of the flat serial loop."""
    return sorted(
        f"{module}.{node.name}"
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(n, ast.Name) and n.id == "_all_fit"
            or isinstance(n, ast.Attribute) and n.attr == "_all_fit"
            for n in ast.walk(node)
        )
    )


def test_guard_sees_sentinel_users():
    sources = {
        "a": "def _all_fit(g):\n    return g\ndef f(g):\n    return _all_fit(g)\n"
        "class C:\n    def m(self):\n        return _all_fit(1)\n",
        "b": "from . import a\ndef g():\n    return a._all_fit(2)\n",
    }
    assert sentinel_users(sources) == ["a.f", "a.m", "b.g"]


def test_only_serial_place_uses_the_sentinel():
    """The sentinel pays only in the loop that makes nearly every placement;
    the Profile methods share one scan without it."""
    sources = {path.stem: path.read_text() for path in MODULES}
    assert sentinel_users(sources) == ["profile.serial_place"]


def assert_lines(source: str) -> list[int]:
    """The lines of every assert statement: `python -O` drops them, so a
    check made with one vanishes."""
    tree = ast.parse(source)
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_guard_sees_asserts():
    source = "def f(x):\n    assert x, 'x'\n    return x\nassert f(1)\n"
    assert assert_lines(source) == [2, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text()) == []


def unread_fields(names, sources) -> list[str]:
    """The names never read as `config.<name>` in any of the sources."""
    read = {
        node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "config"
    }
    return [name for name in names if name not in read]


def test_guard_sees_unread_fields():
    source = "def run(config, self):\n    self.knob = 1\n    return config.seed\n"
    assert unread_fields(["seed", "knob"], [source]) == ["knob"]


def test_every_config_field_is_read():
    """A field nothing reads is a dead knob: it can be set but changes nothing."""
    sources = [(PACKAGE / name).read_text() for name in ("solver.py", "bench.py", "cli.py")]
    assert unread_fields([f.name for f in fields(SolverConfig)], sources) == []


# lists every module that importing the package adds, other than the
# package's own and the standard library's (site hooks may load
# third-party modules at start-up, before the import; multiprocessing
# registers __main__ again as __mp_main__)
OUTSIDE_STDLIB = """
import sys
before = set(sys.modules)
import rcpsp_hybrid
for name in sorted(set(sys.modules) - before):
    top = name.split(".")[0]
    if sys.modules[name] is sys.modules["__main__"]:
        continue
    if top != "rcpsp_hybrid" and top not in sys.stdlib_module_names:
        print(name)
"""


def test_package_needs_only_the_standard_library():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", OUTSIDE_STDLIB],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.split() == []


def test_import_starts_no_process_machinery():
    """`import rcpsp_hybrid` leaves multiprocessing out: only a benchmark
    pool of two or more workers needs it, and it costs every command
    about 20 ms of start-up."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, rcpsp_hybrid; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))",
        ],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.split() == ["[]"]
