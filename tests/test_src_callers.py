"""Every function and method in ``src/hamext`` has a caller in ``src``,
and every name a module binds at module level is read in ``src``.

Code that only the tests call is not part of what the package ships.
The scan reads each module of the package with ``ast``.  A module-level
function counts as called when another module of the package imports
it by name, or when its own module loads it as a bare name: a call, a
reference handed on or a decorator.  A method counts as called when its
name appears anywhere in the package as a name or an attribute, a
property read included, as the scan cannot tell which class an
attribute belongs to.  Methods that Python calls itself (``__init__``,
``__contains__`` and the like) are exempt, and so are the names below.
A module-level name counts as read when it is loaded anywhere in the
package, as a name or an attribute; dunders such as ``__all__`` and
``__version__`` are exempt.
"""

import ast
from pathlib import Path

import hamext

SRC = Path(__file__).resolve().parents[1] / "src" / "hamext"

# qualified name (module, class, function): why nothing in src calls it
EXEMPT = {
    "cli.main": "the console script that pyproject.toml installs",
}
# called or wrapped by name only by the benchmark in perfbench/; once its
# tracer wraps what the package runs instead, these leave src or this list
BENCHMARK_ONLY = {
    "extension.apply_extension",
    "extension.extension_sequence",
    "graphcore.ball",
}


def definitions_and_calls():
    """The package's module-level functions and class methods, by
    qualified name, and the qualified names of those called in it."""
    functions, methods, imported, loaded, names = {}, {}, set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[f"{module}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods[f"{module}.{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update(f"{node.module}.{a.name}" for a in node.names)
            elif isinstance(node, ast.Name):
                names.add(node.id)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(f"{module}.{node.id}")
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    called = (functions.keys() & (imported | loaded)) | {
        qualified for qualified, name in methods.items() if name in names
    }
    return {**functions, **methods}, called


def test_every_function_in_src_has_a_caller_in_src():
    defined, called = definitions_and_calls()
    exempt = EXEMPT.keys() | BENCHMARK_ONLY
    uncalled = [
        qualified
        for qualified, name in defined.items()
        if qualified not in called
        and not (name.startswith("__") and name.endswith("__"))
        and name not in hamext.__all__
        and qualified not in exempt
    ]
    assert uncalled == []


def test_exempt_names_are_defined_and_the_benchmark_ones_uncalled():
    # the lists shrink as code leaves: a name that is gone, or that src
    # now calls, comes off them
    defined, called = definitions_and_calls()
    assert (EXEMPT.keys() | BENCHMARK_ONLY) <= defined.keys()
    assert sorted(BENCHMARK_ONLY & called) == []


def module_level_names_and_reads():
    """The names each module binds by a module-level assignment, by
    qualified name, and every name the package loads as a name or
    attribute."""
    bound, reads = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound[f"{path.stem}.{name.id}"] = name.id
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return bound, reads


def test_every_module_level_name_in_src_is_read_in_src():
    bound, reads = module_level_names_and_reads()
    unread = [
        qualified
        for qualified, name in bound.items()
        if name not in reads and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unread == []
