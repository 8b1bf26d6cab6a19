"""The package itself: the core stays stdlib-only, draws nothing at random,
and imports its own modules at module level only, so its import graph is
the one the module headers show: rings, below trusses and modules, decide
their laws without them."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trusskit import core, modules, trusses
from trusskit.rings import (FiniteRing, RModule, rmodule_homs, rmodule_isomorphism,
                            validate_ring, validate_rmodule)

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "trusskit").glob("*.py"))


def absolute_imports(path):
    """(line, top-level module) for each absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        yield from ((node.lineno, name.split(".")[0]) for name in names)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_stdlib_or_trusskit(path):
    # numpy and others may be installed where the tests run, so an
    # accidental import would not fail there; read the imports instead
    allowed = sys.stdlib_module_names | {"trusskit"}
    for line, name in absolute_imports(path):
        assert name in allowed, f"{path.name}:{line} imports {name}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_random(path):
    # every verdict is exact, so none may depend on a draw
    for line, name in absolute_imports(path):
        assert name != "random", f"{path.name}:{line} imports random"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_package_is_imported_at_module_level_only(path):
    # an import inside a function hides a cycle from the module headers
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        own = (isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "trusskit")
               or isinstance(node, ast.Import)
               and any(alias.name.split(".")[0] == "trusskit" for alias in node.names))
        assert not own or node in tree.body, f"{path.name}:{node.lineno} imports inside a block"


def test_rings_decide_their_laws_without_trusses_or_modules():
    script = ("import sys\n"
              "from trusskit.rings import FiniteRing, RModule, validate_ring, validate_rmodule\n"
              "assert validate_ring(FiniteRing.Zn(6)).ok\n"
              "assert validate_rmodule(RModule.power(FiniteRing.Zn(2), 2)).ok\n"
              "print(' '.join(sorted(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "trusskit.laws" in loaded
    assert not loaded & {"trusskit.trusses", "trusskit.modules"}


def test_ring_validators_build_no_truss_and_no_truss_module(monkeypatch):
    # a ring holds its truss, so the rings are built before the spies
    ring = FiniteRing.Zn(6)
    bad = FiniteRing(ring.add, [[(a * b + 1) % 6 for b in range(6)] for a in range(6)],
                     validate=False)
    module = RModule.power(FiniteRing.Zn(2), 2)
    bad_module = RModule(module.ring, module.group, [[0, 1, 2, 3], [0, 1, 3, 2]], validate=False)
    built = []
    for cls in (trusses.FiniteTruss, modules.FiniteTModule):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=cls.__init__, **kwargs:
                            built.append(type(self).__name__) or init(self, *args, **kwargs))
    assert validate_ring(ring).ok and not validate_ring(bad).ok
    assert validate_rmodule(module).ok and not validate_rmodule(bad_module).ok
    assert built == []
    # the spies do see a truss and a truss module built
    modules.FiniteTModule.regular(trusses.truss_TZn(2))
    assert built == ["FiniteTruss", "FiniteTModule"]


def test_a_ring_and_T_of_it_share_one_truss(monkeypatch):
    """T(R) is the ring's own truss and a retract ring is the truss pointed
    at an absorber: no truss and no table-built ring is made from the other's
    heap and table (every table constructor of a ring goes through
    ``FiniteRing.__init__``)."""
    z3, tz6 = FiniteRing.Zn(3), trusses.truss_TZn(6)
    t0, tz = trusses.ring_extension(trusses.truss_TZn(3)), trusses.integer_truss()
    rm, free, not_free = RModule.power(z3, 2), RModule.regular(z3), RModule.power(z3, 2)
    built = []
    for cls in (trusses.FiniteTruss, FiniteRing):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=cls.__init__,
                            name=cls.__name__, **kwargs:
                            built.append(name) or init(self, *args, **kwargs))
    for t, zero in ((tz6, 0), (t0, t0.absorber), (tz, 0)):
        assert trusses.retract_ring(t, zero).truss is t
    assert trusses.truss_from_ring(z3) is z3.truss
    assert trusses.truss_from_ring(trusses.retract_ring(tz6, 0)) is tz6
    t_module = modules.FiniteTModule.from_rmodule(rm)
    assert t_module.truss is z3.truss
    assert modules.to_ring_module(t_module).ring.truss is z3.truss
    assert trusses.dorroh_compare(z3).ok
    assert modules.freeness_of_TN(free).ok and not modules.freeness_of_TN(not_free).ok
    assert modules.verify_abs_of_free(z3, 2).ok
    assert built == []
    # the spies do see a ring built from tables, and its truss
    FiniteRing.Zn(2)
    assert built == ["FiniteRing", "FiniteTruss"]


def test_an_R_module_and_T_of_it_share_one_module(monkeypatch):
    """T(N) is the T(R)-module that the R-module N holds, on T(R), the
    ring's own truss: no R-module routine builds a truss module or a truss
    from N's heap and table."""
    z2, z3 = FiniteRing.Zn(2), FiniteRing.Zn(3)
    rm, regular, target = RModule.power(z3, 2), RModule.regular(z2), RModule.power(z2, 2)
    bad = RModule(target.ring, target.group, [[0, 1, 2, 3], [0, 1, 3, 2]], validate=False)
    assert rm.module.truss is rm.ring.truss is z3.truss
    assert rm.action is rm.module.action and rm.heap is rm.module.heap
    built = []
    for cls in (trusses.FiniteTruss, modules.FiniteTModule):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=cls.__init__,
                            name=cls.__name__, **kwargs:
                            built.append(name) or init(self, *args, **kwargs))
    assert modules.FiniteTModule.from_rmodule(rm) is rm.module
    assert validate_rmodule(rm).ok and not validate_rmodule(bad).ok
    assert len(rmodule_homs(rm, rm)) == 81 and rmodule_isomorphism(rm, rm) is not None
    t_regular = modules.FiniteTModule.from_rmodule(regular)
    assert modules.tmodule_homs_to_TN(t_regular, target) == [(0, y) for y in range(4)]
    assert modules.freeness_of_TN(regular).ok and not modules.freeness_of_TN(target).ok
    assert built == []
    # the spies do see an R-module build its T(R)-module
    RModule.regular(z2)
    assert built == ["FiniteTModule"]


def test_ring_modules_and_rings_on_heaps_build_no_group_and_no_heap_table(monkeypatch):
    """R^n, the absorber quotients, the ring module of a truss module and
    the retract ring of a finite truss hold a pointed carrier heap: no
    group and no ternary table is built for them."""
    z3 = FiniteRing.Zn(3)
    t_module = modules.FiniteTModule.from_rmodule(RModule.power(z3, 2))
    # TZ3 fixing the C2 factor of C2 x Z3: absorbers (0, 0) and (1, 0)
    two_absorbers = modules.FiniteTModule(
        trusses.truss_TZn(3), core.product(FiniteRing.Zn(2).heap, z3.heap),
        [[x - x % 3 + r * x % 3 for x in range(6)] for r in range(3)])
    free = modules.free_module(trusses.truss_TZn(2), 3)
    truss = trusses.truss_TZn(6)
    fired = []
    for cls, name in ((core.FiniteGroup, "__init__"), (core.FiniteHeap, "table")):
        monkeypatch.setattr(cls, name, lambda self, *args, f=getattr(cls, name), name=name,
                            **kwargs: fired.append(name) or f(self, *args, **kwargs))
    assert RModule.power(FiniteRing.Zn(5), 6).size == 5 ** 6
    assert modules.verify_abs_of_free(FiniteRing.Zn(5), 5).ok
    assert modules.abs_quotient(t_module)[0].size == 9
    assert modules.abs_quotient(two_absorbers)[0].size == 3
    assert modules.abs_quotient(free)[0].size == 8
    assert modules.to_ring_module(t_module).heap is t_module.heap
    assert trusses.retract_ring(truss, 0).heap is truss.heap
    assert fired == []
    # the spies do see a group and a table built
    assert core.FiniteGroup.cyclic(2).size == 2 and core.product(z3.heap).table()
    assert fired == ["__init__", "table"]
