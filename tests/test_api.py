import ast
import dataclasses
import importlib
import math
import pkgutil
from pathlib import Path

import pytest

import tramkit

MODULES = ["tramkit"] + [
    f"tramkit.{m.name}" for m in pkgutil.iter_modules(tramkit.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a stale name in __all__ breaks `import *` and anything that walks it
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
    exec(f"from {name} import *", {})


def _module_trees():
    for path in sorted(Path(tramkit.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            yield path.stem, ast.parse(path.read_text())


def test_no_unused_imports():
    # only names read in Load context count: a dataclass field of the same
    # name as an import would otherwise hide it
    unused = {}
    for name, tree in _module_trees():
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        if imported - read:
            unused[name] = sorted(imported - read)
    assert unused == {}


def test_only_the_data_layer_imports_csv():
    # data owns the CSV formats; tradeoff reads the Lambda schema it defines
    importers = {
        name
        for name, tree in _module_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "csv"
    }
    assert importers <= {"data", "tradeoff"}


def test_no_module_starts_threads_or_processes():
    # the library runs on its caller's thread, so each clock wraps one
    # thread's work
    banned = {"concurrent", "threading", "multiprocessing"}
    importers = {
        name
        for name, tree in _module_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        and any(a.name.split(".")[0] in banned for a in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] in banned
    }
    assert importers == set()


def _private_names(stmt):
    """The private names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_no_orphan_private_helpers():
    # every private module-level function, class and constant is read by
    # some statement other than its own definition, so a deletion cannot
    # leave behind a helper that nothing calls
    defined, readers = [], {}
    for module, tree in _module_trees():
        for i, stmt in enumerate(tree.body):
            defined += [(module, i, name) for name in _private_names(stmt)]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.id, set()).add((module, i))
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add((module, i))
    orphans = [
        f"{module}.{name}"
        for module, i, name in defined
        if not readers.get(name, set()) - {(module, i)}
    ]
    assert defined
    assert orphans == []


# the private names each module imports from another, by importer
PRIVATE_IMPORTS = {
    "cli": {"data._write_table"},
    "coreset": {"core._wrap", "solver._dsquared"},
    "data": {"core._BLOCK_ROWS", "core._as_points", "core._wrap"},
    "solver": {"core._BLOCK_ROWS", "core._EPS", "core._TINY", "core._wrap"},
    "tradeoff": {"data._write_table"},
    "tram": {"data._write_table"},
}


def test_cross_module_private_imports_are_pinned():
    # each such import couples two modules' internals: a new one fails here
    # until PRIVATE_IMPORTS is changed on purpose
    found = {}
    for name, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    if alias.name.startswith("_") and not alias.name.startswith("__"):
                        found.setdefault(name, set()).add(f"{node.module}.{alias.name}")
    assert found == PRIVATE_IMPORTS


# a valid instance's arguments for each config dataclass with float fields
CONFIGS = {
    "AnalyticParams": {},
    "EtaModel": {},
    "SolverConfig": {"k": 1},
    "SyntheticSpec": {"n": 1},
    "TramParams": {"eps_total": 1.0, "delta": 0.1, "k": 1},
}


def _float_configs():
    # every dataclass that checks its fields and has one of floats
    found = {}
    for name in MODULES:
        for obj in vars(importlib.import_module(name)).values():
            if (
                isinstance(obj, type)
                and dataclasses.is_dataclass(obj)
                and "__post_init__" in vars(obj)
                and any("float" in f.type for f in dataclasses.fields(obj))
            ):
                found[obj.__name__] = obj
    return found


def test_every_config_rejects_nan_in_each_float_field():
    # NaN passes every `x <= bound` test, so each range check must be
    # written so that NaN fails it
    configs = _float_configs()
    assert sorted(configs) == sorted(CONFIGS)
    for name, given in CONFIGS.items():
        cls = configs[name]
        base = cls(**given)
        for f in dataclasses.fields(cls):
            value = getattr(base, f.name)
            if f.type.startswith("float"):
                bad = [math.nan]
            elif f.type.startswith("tuple[float"):
                bad = [value[:i] + (math.nan,) + value[i + 1 :] for i in range(len(value))]
            else:
                continue
            for v in bad:
                with pytest.raises(ValueError):
                    cls(**{**given, f.name: v})
