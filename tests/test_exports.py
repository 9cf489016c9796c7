"""Every name a module exports must exist, so a deletion cannot leave a
stale export behind, and the package exports exactly its modules' names,
so each public name is written once, in its own module.  Every private
module-level name is used in the package, so no dead helper stays behind."""

import ast
import importlib
import io
import pathlib
import pkgutil
import tokenize

import pytest

import stepfdr

MODULES = ["stepfdr"] + [f"stepfdr.{info.name}"
                         for info in pkgutil.iter_modules(stepfdr.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_package_exports_the_union_of_its_modules():
    modules = [importlib.import_module(name) for name in MODULES[1:]]
    union = {attr for module in modules for attr in getattr(module, "__all__", [])}
    assert sorted(stepfdr.__all__) == sorted(union)


def test_every_private_module_level_name_is_used():
    """Each module-level private function, class or constant of the package
    appears as a name token in its source outside its own definition (a
    mention in a comment or docstring does not count)."""
    sources = {path.name: path.read_text() for path in
               sorted(pathlib.Path(stepfdr.__file__).parent.glob("*.py"))}
    tokens = {name: [(tok.string, tok.start[0]) for tok in
                     tokenize.generate_tokens(io.StringIO(text).readline)
                     if tok.type == tokenize.NAME]
              for name, text in sources.items()}
    unused = []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [leaf.id for target in targets for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name)]
            else:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            for name in names:
                if name.startswith("_") and not name.startswith("__") and not any(
                        string == name and (other != module or line not in own)
                        for other, found in tokens.items() for string, line in found):
                    unused.append(f"{module}:{node.lineno} {name}")
    assert unused == []


def test_no_name_is_exported_by_two_modules():
    """Each public name is exported from the one module that defines it."""
    owners = {}
    for name in MODULES[1:]:
        for attr in getattr(importlib.import_module(name), "__all__", []):
            owners.setdefault(attr, []).append(name)
    assert {attr: found for attr, found in owners.items() if len(found) > 1} == {}
