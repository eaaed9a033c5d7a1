"""Source hygiene: every name a package or test module imports is used there,
every private module-level function or class is used somewhere in the
package, every public top-level name is named outside its own definition (in
the package, the README or perfbench/), no module imports another module's
private names, only the fork-join helper manages processes, and its
docstring lists exactly the functions that call it, no module reads the
environment, every default of a package-private function is one some call
overrides, numeric CSVs are written and parsed in one place each, every
model choice goes through core.first_best, every seed, class count, study
id, study row and source count is checked, above and below, by
core.check_count alone, every penalty, CV multiplier, dispersion and real
scenario parameter by core.check_real alone, no isfinite, isnan or 0/1 test
is made outside core.check_real, study predictors are stacked only into
a stage's design and a study CSV, and solver problems are built only by
transfer._fit_class.

No linter ships with the project, so this walks each module's AST.  Names
re-exported through the package's `__all__` count as used in `__init__.py`.
"""

import ast
import re
from collections import Counter
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


# Public names only tests reach, kept as the oracles the tests check the
# package's own computations against.
TEST_ORACLES = {"glm.objective_value", "transfer.penalized_mixture_objective"}


def _public_definitions(tree):
    """(name, node) of every public top-level function, class and assigned
    name of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def test_every_public_name_is_named_outside_its_definition():
    """A public function, class or constant is named somewhere other than
    its own definition: in package code, the package's `__all__`, the
    README or perfbench/.  A name that only such unnamed definitions name
    (the helper of a reader only tests call) is unnamed too.  A name only
    tests reach is code to delete, unless it is one of TEST_ORACLES."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    package = Counter(name for tree in trees.values() for name in _referenced_names(tree))
    package.update(_exported_names(trees["__init__"]))
    docs = [PACKAGE.parents[1] / "README.md", *(PACKAGE.parents[1] / "perfbench").glob("*.py")]
    mentioned = set(re.findall(r"\w+", " ".join(p.read_text() for p in docs)))
    candidates = {
        f"{module}.{name}": (name, Counter(_referenced_names(node)))
        for module, tree in trees.items()
        for name, node in _public_definitions(tree)
        if name not in mentioned
    }
    unnamed = set()
    while True:
        found = {
            key for key, (name, _) in candidates.items()
            if package[name] == sum(candidates[k][1][name] for k in unnamed | {key})
        }
        if found == unnamed:
            break
        unnamed = found
    assert sorted(unnamed) == sorted(TEST_ORACLES), f"public names only tests reach: {sorted(unnamed)}"


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


# The fork-join helper; no other module starts processes.
PROCESS_MODULES = {"_parallel.py"}


def _process_management(tree, module):
    """(line, name) of every os.fork, multiprocessing or concurrent use in
    `tree`, unless `module` is the fork-join helper."""
    if module in PROCESS_MODULES:
        return
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


ENVIRONMENT_READERS = {"environ", "getenv"}


def _environment_reads(tree, module):
    """(line, text) of every environment read in `tree`, whatever `module`:
    settings come from flags and config files, and an environment variable
    would be a second, hidden route to the same setting."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENVIRONMENT_READERS:
                    yield node.lineno, f"from os import {alias.name}"
        elif isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            yield node.lineno, ast.unparse(node)


def _functions(tree, nested=False, owner=None):
    """(function node, nested in a function?, enclosing class name) for every
    function of a module, methods and nested helpers included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, nested, owner
            yield from _functions(node, True, None)
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, nested, node.name)
        else:
            yield from _functions(node, nested, owner)


def _callee(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _overridden(call, index, name) -> bool:
    """Whether `call` passes the parameter `name` (position `index`, None
    for keyword-only) by keyword, by position or through a * or ** unpack."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_private_default_is_passed_by_some_call():
    """A default that no call in the package overrides is a knob only tests
    turn: make it a constant in the body instead.  Package-private means a
    function the package calls by name that is not a documented entry point
    (a name in `__all__`, a method of a class there, or a console script);
    a helper nested in a function counts whatever its name.  A function the
    package also hands around as a value is skipped, since its caller is not
    in sight."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    scripts = re.findall(r'"targeted_psm\.\w+:(\w+)"', (TESTS.parent / "pyproject.toml").read_text())
    public = _exported_names(trees["__init__.py"]) | set(scripts)
    calls, values = {}, set()
    for tree in trees.values():
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
                callees.add(id(node.func))
        values |= {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and id(node) not in callees
        }
    unpassed = []
    for module, tree in trees.items():
        for fn, nested, owner in _functions(tree):
            if not nested and (fn.name in public or owner in public):
                continue
            if fn.name not in calls or fn.name in values:
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            # a method's first parameter is bound, not passed
            shift = 1 if owner is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
            ) else 0
            defaulted = [
                (positional.index(a) - shift, a.arg)
                for a in positional[len(positional) - len(args.defaults):]
            ] + [
                (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            unpassed += [
                f"{module}:{fn.lineno}: {fn.name}({name}=)"
                for index, name in defaulted
                if not any(_overridden(call, index, name) for call in calls[fn.name])
            ]
    assert not unpassed, f"defaults no call in the package overrides: {sorted(unpassed)}"


def _with_owner(node, owner=None):
    """(node, name of the innermost enclosing function) for every node under
    `node`."""
    for child in ast.iter_child_nodes(node):
        yield child, owner
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        yield from _with_owner(child, inner)


def _numpy_text_io(tree):
    """(line, name, innermost enclosing function) of every np.savetxt and
    np.loadtxt in `tree`."""
    for node, owner in _with_owner(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("savetxt", "loadtxt")
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            yield node.lineno, node.attr, owner


def test_one_csv_writer_and_one_reader():
    """Study and score files are written by core._write_rows and parsed by
    core._parse_rows: np.savetxt appears nowhere in the package, and
    np.loadtxt only in core._parse_rows."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for line, name, owner in _numpy_text_io(ast.parse(path.read_text(), filename=str(path))):
            if (name, path.name, owner) != ("loadtxt", "core.py", "_parse_rows"):
                found.add(f"{path.name}:{line}: np.{name}")
    assert not found, f"numeric text I/O outside core's writer and reader: {sorted(found)}"


def test_the_fork_join_helper_lists_its_callers():
    """The callers paragraph of _parallel.py's docstring names every package
    function that calls fan_out as `module.function`, and every function it
    names calls fan_out.  Upper-case names there are constants, not callers."""
    doc = ast.get_docstring(ast.parse((PACKAGE / "_parallel.py").read_text()))
    listed = {
        f"{module}.{name}"
        for module, name in re.findall(r"`(\w+)\.(\w+)`", doc.split("Callers:", 1)[1])
        if not name.isupper()
    }
    calling = {
        f"{path.stem}.{owner}"
        for path in PACKAGE.glob("*.py")
        for node, owner in _with_owner(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and _callee(node) == "fan_out"
    }
    assert calling - listed == set(), "fan_out callers missing from _parallel.py's docstring"
    assert listed - calling == set(), "functions _parallel.py's docstring lists that do not call fan_out"


# Names that pick a best index; only core.first_best may use them.
CHOICE_NAMES = {"argmin", "argmax", "nanargmin", "nanargmax"}


def _in_place_choices(tree, module):
    """(line, text) of every argmin / argmax named or imported and every
    min / max called with key= in `tree`, outside core.first_best.  The CV
    penalty, the latent class restart, the BIC class count and the class
    alignment are each picked by core.first_best, with one tie convention;
    any of these elsewhere would be a second rule."""
    for node, owner in _with_owner(tree):
        if (module, owner) == ("core.py", "first_best"):
            continue
        if isinstance(node, ast.Attribute) and node.attr in CHOICE_NAMES:
            yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.Name) and node.id in CHOICE_NAMES:
            yield node.lineno, node.id
        elif isinstance(node, ast.alias) and node.name in CHOICE_NAMES:
            yield node.lineno, f"import of {node.name}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("min", "max") and any(k.arg == "key" for k in node.keywords)):
            yield node.lineno, ast.unparse(node)


# Parameters and fields whose integer rule is core.check_count alone.
COUNT_NAMES = {"seed", "n_classes", "study_id", "study_row", "n_sources"}


def _names_a_count(node) -> bool:
    """Whether `node` is a name, or a `self.` field, in COUNT_NAMES."""
    if isinstance(node, ast.Name):
        return node.id in COUNT_NAMES
    return (isinstance(node, ast.Attribute) and node.attr in COUNT_NAMES
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _is_number(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _in_place_integer_rules(tree, module):
    """(line, text) of every int(...) of a COUNT_NAMES name and every
    ordering comparison of one, a lower bound (`seed < 0`, `0 > study_row`)
    or an upper bound (`n_classes > data.n_total`, `k < self.study_id`), in
    `tree`, outside core.check_count: an int(...) would truncate 2.5 to 2,
    and a `< 0` or `> n_total` of its own would be a second rule that lets
    2.5 through and words its own message."""
    for node, owner in _with_owner(tree):
        if (module, owner) == ("core.py", "check_count"):
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "int" and any(_names_a_count(a) for a in node.args)):
            yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                   and (_names_a_count(left) or _names_a_count(right))
                   for left, op, right in zip(operands, node.ops, operands[1:])):
                yield node.lineno, ast.unparse(node)


# Parameters and fields whose real-number rule is core.check_real alone.
REAL_NAMES = {"h", "rho", "coef_value", "dispersion", "lam", "lambda_pool", "lambda_bias",
              "cv_grid", "grid"}


def _names_a_real(node) -> bool:
    """Whether `node` is a name, or a `self.` field, in REAL_NAMES."""
    if isinstance(node, ast.Name):
        return node.id in REAL_NAMES
    return (isinstance(node, ast.Attribute) and node.attr in REAL_NAMES
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _in_place_real_rules(tree, module):
    """(line, text) of every ordering comparison of a REAL_NAMES name with a
    number (`h < 0`, `0.0 <= self.rho < 1.0`) and every isinstance(one,
    ...bool...) in `tree`, outside core.check_real: a `< 0` of its own lets
    NaN through (every comparison with NaN is false), and a boolean test of
    its own would be a second rule.  An isnan or isfinite of one is
    _finiteness_tests' to find."""
    for node, owner in _with_owner(tree):
        if (module, owner) == ("core.py", "check_real"):
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                   and ((_names_a_real(left) and _is_number(right))
                        or (_is_number(left) and _names_a_real(right)))
                   for left, op, right in zip(operands, node.ops, operands[1:])):
                yield node.lineno, ast.unparse(node)
        elif (isinstance(node, ast.Call) and _callee(node) == "isinstance" and node.args
              and _names_a_real(node.args[0]) and "bool" in ast.unparse(node.args[-1])):
            yield node.lineno, ast.unparse(node)


def _outside_check_real(tree, module):
    """Every node of `tree` outside core.check_real and anything nested in it."""
    for top in tree.body:
        if not (module == "core.py" and isinstance(top, ast.FunctionDef)
                and top.name == "check_real"):
            yield from ast.walk(top)


def _finiteness_tests(tree, module):
    """(line, text) of every isfinite or isnan call (np., numpy., math. or a
    bare imported name) in `tree`, outside core.check_real and anything
    nested in it: whether an array or a number is finite, or NaN, is
    check_real's to say, and a test of its own lets booleans and strings
    through (np.asarray converts them first) and words its own message."""
    for node in _outside_check_real(tree, module):
        if isinstance(node, ast.Call) and _callee(node) in ("isfinite", "isnan") and (
                isinstance(node.func, ast.Name)
                or (isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy", "math"))):
            yield node.lineno, ast.unparse(node)


def _compared_number(node):
    """The number of a single `x == number` or `number == x`, else None."""
    if isinstance(node, ast.Compare) and len(node.ops) == 1 and isinstance(node.ops[0], ast.Eq):
        for side in (node.left, node.comparators[0]):
            if _is_number(side):
                return side.value
    return None


def _binary_tests(tree, module):
    """(line, text) of every isin of an entry against the literal 0 and 1,
    and every `(x == 0) | (x == 1)`, `x == 0 or x == 1` or
    logical_or(x == 0, x == 1), in `tree`, outside core.check_real and
    anything nested in it: whether an entry is 0 or 1 is check_real's set
    "{0, 1}" to say, and a test of its own runs after np.asarray has read
    "1" and True as 1.0."""
    for node in _outside_check_real(tree, module):
        if isinstance(node, ast.Call) and _callee(node) == "isin":
            elements = node.args[1:2] + [k.value for k in node.keywords if k.arg == "test_elements"]
            if any(isinstance(e, (ast.Tuple, ast.List, ast.Set)) and len(e.elts) == 2
                   and all(_is_number(x) for x in e.elts) and {x.value for x in e.elts} == {0, 1}
                   for e in elements):
                yield node.lineno, ast.unparse(node)
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            operands = [node.left, node.right]
        elif isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            operands = node.values
        elif isinstance(node, ast.Call) and _callee(node) == "logical_or":
            operands = node.args
        else:
            continue
        if len(operands) == 2 and {_compared_number(o) for o in operands} == {0, 1}:
            yield node.lineno, ast.unparse(node)


# The functions that may stack study predictors: the stage design and the
# study CSV writer.
PREDICTOR_STACKERS = {("transfer.py", "_stage_rows"), ("core.py", "write_study_csv")}
STACKING = {"vstack", "column_stack", "hstack", "concatenate"}


def _stacked_predictors(tree, module):
    """(line, text) of every vstack, column_stack, hstack or concatenate
    call in `tree` whose arguments read a `.predictors`, outside
    transfer._stage_rows and core.write_study_csv: a fit stage holds one
    copy of its rows, the design _stage_rows fills from the studies, and a
    second stacked copy would add the largest array a fit holds."""
    for node, owner in _with_owner(tree):
        if (module, owner) in PREDICTOR_STACKERS:
            continue
        if isinstance(node, ast.Call) and _callee(node) in STACKING and any(
                isinstance(sub, ast.Attribute) and sub.attr == "predictors"
                for arg in [*node.args, *(k.value for k in node.keywords)]
                for sub in ast.walk(arg)):
            yield node.lineno, ast.unparse(node)


# The one function that builds a solver problem: every class fit, an EM
# M-step's or a CV candidate's.
PROBLEM_BUILDERS = {("transfer.py", "_fit_class")}


def _built_problems(tree, module):
    """(line, text) of every WeightedGlmProblem(...) call in `tree` outside
    transfer._fit_class: the penalty a class fit hands the solver is
    rescaled there alone, and a second construction would be a second rule
    for it."""
    for node, owner in _with_owner(tree):
        if (module, owner) in PROBLEM_BUILDERS:
            continue
        if isinstance(node, ast.Call) and _callee(node) == "WeightedGlmProblem":
            yield node.lineno, ast.unparse(node)


# Each scan walks every package module and must find nothing there.
SCANS = {
    "processes": (_process_management, f"process management outside {sorted(PROCESS_MODULES)}"),
    "environment": (_environment_reads, "environment reads in the package"),
    "choices": (_in_place_choices, "model choices outside core.first_best"),
    "integers": (_in_place_integer_rules, "integer rules outside core.check_count"),
    "reals": (_in_place_real_rules, "real-number rules outside core.check_real"),
    "finiteness": (_finiteness_tests, "finiteness tests outside core.check_real"),
    "binary": (_binary_tests, "0/1 tests outside core.check_real"),
    "stacked-rows": (_stacked_predictors, "study predictors stacked outside "
                                          f"{sorted(PREDICTOR_STACKERS)}"),
    "class-fits": (_built_problems, f"solver problems built outside {sorted(PROBLEM_BUILDERS)}"),
}


@pytest.mark.parametrize("scan", list(SCANS))
def test_no_module_breaks_a_one_place_rule(scan):
    find, rule = SCANS[scan]
    found = sorted(
        f"{path.name}:{line}: {text}"
        for path in PACKAGE.glob("*.py")
        for line, text in find(ast.parse(path.read_text(), filename=str(path)), path.name)
    )
    assert not found, f"{rule}: {found}"


# (id, scan, module, planted source): the scan finds the planted rule once.
PLANTED = [
    ("np.argmin", "choices", "transfer.py", "def _pick(scores):\n    return np.argmin(scores, axis=1)\n"),
    ("max-key", "choices", "lca.py", "def _pick(fits):\n    return max(fits, key=lambda m: m.log_lik)\n"),
    ("min-key", "choices", "cli.py", "def _pick(rows):\n    return min(rows, key=lambda r: r['bic'])\n"),
    ("method-argmax", "choices", "core.py", "def _pick(scores):\n    return scores.argmax()\n"),
    ("imported-argmin", "choices", "evaluate.py", "from numpy import argmin\n"),
    ("seed-below-0", "integers", "transfer.py",
     "def _check(seed):\n    if seed < 0:\n        raise ValueError(seed)\n"),
    ("int-n-classes", "integers", "lca.py", "def _classes(n_classes):\n    return int(n_classes)\n"),
    ("int-self-study-id", "integers", "core.py",
     "class _Id:\n    def check(self):\n        return int(self.study_id)\n"),
    ("0-above-study-row", "integers", "lca.py", "def _row(study_row):\n    return 0 > study_row\n"),
    ("self-n-classes-at-most-0", "integers", "simulate.py",
     "def _c(self):\n    return self.n_classes <= 0\n"),
    ("n-classes-above-n-total", "integers", "lca.py",
     "def _c(n_classes, data):\n    if n_classes > data.n_total:\n        raise ValueError(n_classes)\n"),
    ("study-row-at-least-n-studies", "integers", "lca.py",
     "def _r(study_row, model):\n    return study_row >= model.n_studies\n"),
    ("n-sources-in-a-chain", "integers", "simulate.py",
     "def _k(n_sources, table):\n    return 0 <= n_sources <= len(table) - 1\n"),
    ("self-study-id-above-k", "integers", "core.py",
     "class _Id:\n    def check(self, k):\n        return k < self.study_id\n"),
    ("h-below-0", "reals", "simulate.py", "def _check(h):\n    if h < 0:\n        raise ValueError(h)\n"),
    ("self-rho-chain", "reals", "simulate.py",
     "class _S:\n    def check(self):\n        return 0.0 <= self.rho < 1.0\n"),
    ("isnan-or-below-0-lam", "reals", "glm.py", "def _l(lam):\n    return np.isnan(lam) or 0 > lam\n"),
    ("isinstance-bool-grid", "reals", "transfer.py",
     "def _g(cv_grid):\n    return isinstance(cv_grid, (bool, np.bool_))\n"),
    ("isfinite-dispersion", "finiteness", "core.py",
     "def _d(dispersion):\n    return np.isfinite(dispersion)\n"),
    ("isnan-lam", "finiteness", "glm.py", "def _l(lam):\n    return np.isnan(lam) or 0 > lam\n"),
    ("np-isfinite", "finiteness", "glm.py", "def _x(X):\n    return np.all(np.isfinite(X))\n"),
    ("numpy-isnan", "finiteness", "core.py", "def _s(scores):\n    return numpy.isnan(scores).any()\n"),
    ("method-isfinite", "finiteness", "core.py",
     "class _M:\n    def check(self, b):\n        return np.all(np.isfinite(b))\n"),
    ("math-isfinite", "finiteness", "transfer.py",
     "def _l(lambdas, c):\n    return math.isfinite(lambdas[c])\n"),
    ("bare-isnan", "finiteness", "evaluate.py",
     "from math import isnan\n\n\ndef _a(scores):\n    return isnan(scores[0])\n"),
    ("eq-0-or-eq-1", "binary", "lca.py", "def _z(z):\n    return np.all((z == 0.0) | (z == 1.0))\n"),
    ("isin-0-1", "binary", "core.py", "def _y(y):\n    return np.isin(y, (0.0, 1.0)).all()\n"),
    ("isin-keyword-1-0", "binary", "evaluate.py",
     "def _l(labels):\n    return numpy.isin(labels, test_elements=[1, 0])\n"),
    ("logical-or-1-eq-z", "binary", "transfer.py", "def _z(z):\n    return np.logical_or(1 == z, 0 == z)\n"),
    ("eq-0-or-eq-1-bool", "binary", "simulate.py", "def _b(v):\n    return v == 0 or v == 1\n"),
    ("vstack-predictors", "stacked-rows", "transfer.py",
     "def _rows(data):\n    return np.vstack([s.predictors for s in data.studies])\n"),
    ("problem-in-a-cv-loop", "class-fits", "transfer.py",
     "def _cv(family, X, y, w, lam):\n"
     "    return WeightedGlmProblem(family=family, X=X, y=y, weights=w, lam=lam * 2)\n"),
]


@pytest.mark.parametrize("scan, module, planted", [row[1:] for row in PLANTED],
                         ids=[row[0] for row in PLANTED])
def test_a_scan_finds_a_planted_rule_once(scan, module, planted):
    tree = ast.parse((PACKAGE / module).read_text() + "\n\n" + planted)
    assert len(list(SCANS[scan][0](tree, module))) == 1
