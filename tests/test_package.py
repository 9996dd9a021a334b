"""The package surface: every public name resolves on first access to the object its module defines,
no module imports a name it never uses, and no module defines a name that is neither exported nor read."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import scalefit

SOURCES = sorted(Path(scalefit.__file__).parent.glob("*.py"))
README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_every_public_name_is_its_defining_modules_object():
    for name in scalefit.__all__:
        value = getattr(scalefit, name)
        module = importlib.import_module(f"scalefit.{scalefit._MODULE_OF[name]}")
        assert getattr(module, name) is value, name
        # The table names the defining module, not one that re-exports the name.
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_dir_covers_all():
    assert set(scalefit.__all__) <= set(dir(scalefit))
    assert "__version__" in dir(scalefit)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from scalefit import *", namespace)
    assert {name: namespace[name] for name in scalefit.__all__} == {
        name: getattr(scalefit, name) for name in scalefit.__all__
    }


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        scalefit.no_such_name
    assert not hasattr(scalefit, "_MODULE_OF_typo")


def _unused_imports(source: str) -> list[str]:
    """The names a module's imports bind and its code never reads, a string annotation's names counted as read."""
    tree = ast.parse(source)
    imported, used, annotations = {}, set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.partition(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a Literal's text, not a forward reference
                    continue
                used.update(name.id for name in ast.walk(parsed) if isinstance(name, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(module):
    assert _unused_imports(module.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\nimport os, os.path as osp\nimport numpy.linalg\n"
        "from typing import TYPE_CHECKING, Sequence\nfrom operator import le\n"
        "if TYPE_CHECKING:\n    from .records import ScaledFamily\n"
        "def f(x: 'ScaledFamily') -> Sequence:\n    return numpy.linalg.norm(x)\n"
    )
    assert _unused_imports(source) == ["line 2: os", "line 2: osp", "line 5: le"]


def _module_names(source: str) -> list[str]:
    """The names a module binds at its top level, dunder names aside: functions, classes and assignments;
    imports are the unused-import check's."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [leaf.id for target in targets for leaf in ast.walk(target) if isinstance(leaf, ast.Name)]
    return [name for name in names if not name.startswith("__")]


def _reads(source: str) -> set[str]:
    """Every name a module reads: as a bare name, as an attribute, or imported from another module by name."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def test_every_module_name_is_exported_or_read_somewhere_in_the_package():
    read = set().union(*(_reads(path.read_text(encoding="utf-8")) for path in SOURCES), scalefit.__all__)
    orphans = [f"{path.name}: {name}" for path in SOURCES
               for name in _module_names(path.read_text(encoding="utf-8")) if name not in read]
    assert orphans == []


def test_an_orphan_module_name_is_found():
    source = ("_CHUNK = 128\n_USED, _PAIR = 1, 2\ndef _helper():\n    return _USED\nclass _Kept: pass\n_Kept()\n"
              "DEFAULT_CUTOFF_TOKENS = 10\n__all__ = ()\n")
    assert _module_names(source) == ["_CHUNK", "_USED", "_PAIR", "_helper", "_Kept", "DEFAULT_CUTOFF_TOKENS"]
    orphans = {"_CHUNK", "_PAIR", "_helper", "DEFAULT_CUTOFF_TOKENS"}
    assert {"_USED", "_Kept"} <= _reads(source) and not orphans & _reads(source)


def _unread_exports(names, sources: list[str], readme: str) -> list[str]:
    """The public names that no module source reads and that the README names in neither a code span nor its
    Python block."""
    read = set().union(*map(_reads, sources))
    code = re.findall(r"```python\n(.*?)```", readme, re.S) + re.findall(r"`([^`\n]+)`", readme)
    named = set(re.findall(r"\w+", "\n".join(code)))
    return sorted(set(names) - read - named)


def test_every_public_name_is_read_in_src_or_named_in_the_readme():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES if path.name != "__init__.py"]
    assert _unread_exports(scalefit.__all__, sources, README) == []


def test_an_unread_export_is_found():
    readme = "Fit with `sf.fit(train)`, or not at all (fit_all).\n```python\nsf.are(p, t)\n```\n```\nsf.prose\n```\n"
    sources = ["x = huber(1)", "from .records import ingest"]
    names = ["are", "fit", "fit_all", "huber", "ingest", "prose"]
    assert _unread_exports(names, sources, readme) == ["fit_all", "prose"]
