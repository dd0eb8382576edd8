"""Package-level checks: every exported name exists and is used by the
package itself, every top-level name, dataclass field and property of the
package is read somewhere, every package dataclass is built through its
constructor, and a stage's import path stays free of scipy: none for
simulate, extract, attack and verify, only ``scipy.special`` for test."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sdiqrng

MODULES = sorted(m.name for m in pkgutil.iter_modules(sdiqrng.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"sdiqrng.{name}")
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"sdiqrng.{name}.__all__ names missing attributes: {missing}"


def _defined_names(stmt):
    """The names the top-level statement ``stmt`` defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [
        getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _defines(stmt, name):
    """Whether the top-level statement ``stmt`` defines ``name``."""
    return name in _defined_names(stmt)


def _reads(stmt):
    """Every name read and attribute taken in ``stmt``; strings do not count."""
    return ({n.id for n in ast.walk(stmt)
             if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            | {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)})


def test_every_exported_name_is_used_by_the_package():
    # public API that only tests use is dead weight: each name in an
    # __all__ must be read somewhere in the package outside its own definition
    src = Path(sdiqrng.__file__).resolve().parent
    statements = [(path.stem, stmt, _reads(stmt))
                  for path in sorted(src.glob("*.py"))
                  for stmt in ast.parse(path.read_text(), str(path)).body]
    exports = {name: getattr(importlib.import_module(f"sdiqrng.{name}"), "__all__", ())
               for name in MODULES}
    unused = [f"{name}.{export}"
              for name, names in exports.items() for export in names
              if not any(export in reads for module, stmt, reads in statements
                         if not (module == name and _defines(stmt, export)))]
    assert not unused, f"exported but unused in src/: {unused}"


SRC = Path(sdiqrng.__file__).resolve().parent


def _statements():
    """(path, statement, names it reads) of each top-level statement in the
    package and in the tests."""
    return [(path, stmt, _reads(stmt))
            for directory in (SRC, Path(__file__).resolve().parent)
            for path in sorted(directory.glob("*.py"))
            for stmt in ast.parse(path.read_text(), str(path)).body]


def test_every_top_level_name_is_read():
    # a module-level name, exported or private, that nothing in the package
    # or its tests reads outside its own definition is dead code
    statements = _statements()
    unread = [f"{path.stem}.{name}"
              for path, stmt, _ in statements if path.parent == SRC
              for name in _defined_names(stmt)
              if not (name.startswith("__") and name.endswith("__"))
              and not any(name in reads for other_path, other, reads in statements
                          if not (other_path == path and _defines(other, name)))]
    assert not unread, f"defined but never read in src/ or tests/: {unread}"


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list)


def test_every_field_and_property_is_read():
    # a dataclass field or property that no code reads as an attribute is
    # dead weight carried by every instance
    statements = _statements()
    nodes = [n for _, stmt, _ in statements for n in ast.walk(stmt)]
    # a class pattern's keywords, as in ``case Fock(n=n)``, read attributes too
    attributes = {n.attr for n in nodes
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    attributes.update(a for n in nodes if isinstance(n, ast.MatchClass)
                      for a in n.kwd_attrs)

    unread = []
    for path, stmt, _ in statements:
        if path.parent != SRC:
            continue
        for cls in ast.walk(stmt):
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if (_is_dataclass(cls) and isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    name = item.target.id
                elif isinstance(item, ast.FunctionDef) and any(
                        isinstance(d, ast.Name) and d.id == "property"
                        for d in item.decorator_list):
                    name = item.name
                else:
                    continue
                if name not in attributes:
                    unread.append(f"{path.stem}.{cls.name}.{name}")
    assert not unread, f"never read as an attribute in src/ or tests/: {unread}"


def test_no_package_dataclass_is_built_past_its_constructor():
    # X.__new__(Cls) skips __init__ and __post_init__: every instance of a
    # package dataclass must be built through its constructor, so that the
    # checks it declares hold for every instance
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    classes = {cls.name for tree in trees.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)}
    bypasses = [f"{path.stem}:{node.lineno}"
                for path, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__new__" and node.args
                and isinstance(node.args[0], ast.Name) and node.args[0].id in classes]
    assert not bypasses, f"package dataclasses built with __new__: {bypasses}"


STAGE_RUN = """\
import json
import sys


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


if sys.argv[1:] == ["scipy.special"]:
    import scipy.special
    print(json.dumps(scipy_modules()))
    sys.exit()

from sdiqrng.attacklab import _kstwo_sf
from sdiqrng.cli import main

loaded = {"import": scipy_modules()}
cfg, out = sys.argv[1:]
for stage in ("simulate", "extract", "verify", "attack", "test"):
    code = main([stage, "--config", cfg, "--out", out])
    # the battery verdict on a few dozen strings is not what is checked here
    assert code == 0 or (stage, code) == ("test", 5), f"{stage} exited {code}"
    loaded[stage] = scipy_modules()
    if stage == "attack":
        # the KS tail's one-sided Smirnov branch, n x^2 in [2.2, 370)
        assert 0.0 < _kstwo_sf(0.03, 10_000) < 1e-6
        loaded["smirnov"] = scipy_modules()
print(json.dumps(loaded))
"""

TINY_CHAIN_CONFIG = """\
[run]
timestamp = 1786752000.0

[dsp]
autocorr_max_lag = 50
autocorr_samples = 2000

[simulate]
pulses = 20000
blocks = 2

[extractor]
h_min_override = 5.55

[stats]
string_bits = 5000

[attack]
rounds = 10000

[verify]
fock_n_max = 5
deltas = 0.1 0.5
equivalence_states = 5
equivalence_dim_max = 5
"""


def test_stages_do_not_import_scipy_signal_or_stats(tmp_path):
    # fresh interpreters: pytest's own test modules import scipy throughout;
    # test loads scipy.special and nothing of scipy beyond it, and no other
    # stage, nor the attack's KS tail on any branch, loads scipy at all
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CHAIN_CONFIG)
    env = dict(os.environ, PYTHONPATH=str(Path(sdiqrng.__file__).resolve().parents[1]))

    def run(*args):
        proc = subprocess.run([sys.executable, "-c", STAGE_RUN, *args], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    special = set(run("scipy.special"))
    loaded = run(str(cfg), str(tmp_path / "out"))
    for step in ("import", "simulate", "extract", "verify", "attack", "smirnov"):
        assert loaded[step] == [], f"after {step}: {loaded[step]}"
    assert "scipy.special" in loaded["test"]
    assert set(loaded["test"]) <= special, f"after test: {loaded['test']}"
    assert not [m for m in loaded["test"]
                if m.split(".")[:2] in (["scipy", "signal"], ["scipy", "stats"],
                                        ["scipy", "fft"])]
