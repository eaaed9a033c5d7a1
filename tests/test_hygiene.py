"""Source hygiene: every name a package or test module imports is used
there, every private module-level function or class is used somewhere in the
package, no module imports another module's private names, and only the
fork-join helper and the experiment harness manage processes.

No linter ships with the project, so this walks each module's AST.  Names
re-exported through the package's `__all__` count as used in `__init__.py`.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "targeted_psm"


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.name
)
def test_module_imports_are_all_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    if path.name == "__init__.py":
        used |= _exported_names(tree)
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{path.name} imports unused names: {unused}"


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_private_definitions_are_referenced():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    used = {name for tree in trees.values() for name in _referenced_names(tree)}
    unused = sorted(
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in used
    )
    assert not unused, f"private definitions nothing in the package uses: {unused}"


def test_no_module_imports_private_names_of_another():
    found = sorted(
        f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("targeted_psm"))
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert not found, f"private names imported across modules: {found}"


# The fork-join helper and the experiment's worker pool; no other module
# starts processes.
PROCESS_MODULES = {"_parallel.py", "evaluate.py"}


def _process_management(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            if node.module == "os":
                modules += [f"os.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            modules = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        for name in modules:
            if name == "os.fork" or name.split(".")[0] in ("multiprocessing", "concurrent"):
                yield node.lineno, name


def test_processes_are_managed_in_one_place():
    found = sorted(
        f"{path.name}:{line}: {name}"
        for path in PACKAGE.glob("*.py")
        if path.name not in PROCESS_MODULES
        for line, name in _process_management(ast.parse(path.read_text(), filename=str(path)))
    )
    assert not found, f"process management outside {sorted(PROCESS_MODULES)}: {found}"
