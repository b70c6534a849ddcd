import ast
import dataclasses
import importlib
import math
import pkgutil
import typing
from pathlib import Path

import numpy as np
import pytest

import tramkit
from tramkit import (
    Centers,
    CoresetParams,
    Dataset,
    SolverConfig,
    TramParams,
    WeightedSet,
    bicriteria_init,
    run_tram,
    solve,
    uniform_weighted,
)
from tramkit.data import SyntheticSpec, gen_synthetic, split_validation
from tramkit.rng import derive_rng

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


def _twin_solves():
    ws = uniform_weighted(Dataset(np.arange(40.0).reshape(20, 2)))
    return [solve(ws, SolverConfig(k=2, seed=3)) for _ in range(2)]


def _twin_traces():
    data = Dataset(np.random.default_rng(0).normal(size=(400, 2)))
    train, pool = split_validation(data, 0.25, seed=1)
    params = TramParams(eps_total=1e6, delta=0.1, k=2, seed=1)
    return [run_tram(train, pool, params, SolverConfig(k=2, seed=1)) for _ in range(2)]


# each dataclass that holds arrays, directly or through a field of another
# -> two instances built from equal arrays, and one of those arrays
TWINS = {
    "Dataset": (lambda: [Dataset(np.eye(3)) for _ in range(2)], lambda x: x.points),
    "Centers": (lambda: [Centers(np.eye(3)) for _ in range(2)], lambda x: x.centers),
    "WeightedSet": (
        lambda: [WeightedSet(np.eye(3), np.ones(3)) for _ in range(2)],
        lambda x: x.weights,
    ),
    "SolveResult": (_twin_solves, lambda x: x.centers.centers),
    "Bicriteria": (
        lambda: [
            bicriteria_init(Dataset(np.eye(4)), CoresetParams(k=1, size=2), derive_rng(0))
            for _ in range(2)
        ],
        lambda x: x.point_costs,
    ),
    "SyntheticResult": (
        lambda: [gen_synthetic(SyntheticSpec(n=10, d=2, k_true=3)) for _ in range(2)],
        lambda x: x.means,
    ),
    "TramTrace": (_twin_traces, lambda x: x.final_centers.centers),
}


@pytest.mark.parametrize("name", sorted(TWINS))
def test_array_holder_is_its_own_equal_and_a_dict_key(name):
    build, array = TWINS[name]
    a, b = build()
    assert type(a).__name__ == name
    assert np.array_equal(array(a), array(b))
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a)
    table = {a: "a", b: "b"}
    assert table[a] == "a" and len(table) == 2


def _holds(hint, types) -> bool:
    return hint in types or any(_holds(arg, types) for arg in typing.get_args(hint))


def test_array_holders_compare_and_hash_by_identity():
    # a generated __eq__ compares arrays, whose truth value raises, and a
    # generated __hash__ hashes them, which raises: so every dataclass that
    # holds an array, or one of the types that do, keeps object's methods
    hints = {
        obj: typing.get_type_hints(obj).values()
        for name in MODULES
        for obj in vars(importlib.import_module(name)).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
    }
    holders = set()
    while True:
        held = holders | {np.ndarray}
        more = {cls for cls, hs in hints.items() if any(_holds(h, held) for h in hs)}
        if more == holders:
            break
        holders = more
    assert set(TWINS) <= {cls.__name__ for cls in holders}
    raising = [
        cls.__name__
        for cls in holders
        if cls.__eq__ is not object.__eq__ or cls.__hash__ is not object.__hash__
    ]
    assert raising == []
