"""JSON structure documents: round trips (fixed examples, and Hypothesis draws
of every document kind) and rejection of malformed input."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trusskit import cli, modules, serialize
from trusskit.core import FiniteGroup, FiniteHeap, StructureError, heap_from_group, small_groups
from trusskit.rings import FiniteRing, RModule
from trusskit.trusses import (
    ExtensionTruss,
    FiniteTruss,
    constant_truss,
    integer_truss,
    ring_extension,
    tc2_brace_truss,
    terminal_truss,
    truss_TZn,
    truss_from_ring,
    unital_extension,
)

TZ, TZ3 = integer_truss(), truss_TZn(3)

STRUCTURES = {
    "group": FiniteGroup.cyclic(4),
    "heap": heap_from_group(FiniteGroup.dihedral(3)),
    "subheap": serialize.SubHeapSpec((0, 2)),
    "ring": FiniteRing.Zn(4),
    "finite truss": truss_TZn(4),
    "TZ": TZ,
    "Zc3": constant_truss(3),
    "TC2": tc2_brace_truss(),
    "terminal truss": terminal_truss(),
    "T1(TZ)": unital_extension(TZ),
    "T1(TZ) basepoint 1": ExtensionTruss(TZ, "one", basepoint=1),
    "T0(Zc3)": ring_extension(constant_truss(3)),
    "T0(TZ3) basepoint 2": ExtensionTruss(TZ3, "zero", basepoint=2),
    "finite module": modules.FiniteTModule.regular(truss_TZn(4)),
    "trivial module": modules.TrivialIntModule(),
    "free module": modules.free_module(TZ3, 2),
    "free module basepoint 1": modules.free_module(TZ3, 2, basepoint=1),
}


@pytest.mark.parametrize("label", sorted(STRUCTURES))
def test_round_trip(label):
    x = STRUCTURES[label]
    text = serialize.dumps(x)
    assert serialize.loads(text) == x
    assert serialize.dumps(serialize.loads(text)) == text


def test_default_basepoint_is_not_written():
    assert "basepoint" not in serialize.structure_to_obj(unital_extension(TZ))
    assert "basepoint" not in serialize.structure_to_obj(modules.free_module(TZ3, 2))


def test_documents_with_a_window_key_still_load():
    obj = serialize.structure_to_obj(modules.free_module(TZ3, 2))
    obj["window"] = 7
    assert serialize.loads(json.dumps(obj)) == modules.free_module(TZ3, 2)


def test_builtin_truss_documents_load_star_and_refuse_an_unknown_name():
    assert serialize.loads(json.dumps({"kind": "truss", "builtin": "star"})) == terminal_truss()
    with pytest.raises(StructureError, match="unknown builtin truss 'XYZ'"):
        serialize.loads(json.dumps({"kind": "truss", "builtin": "XYZ"}))


MALFORMED = {
    "group table is a number": {"kind": "group", "table": 5},
    "Zc with a text c": {"kind": "truss", "builtin": "Zc", "c": "x"},
    "heap without a table": {"kind": "heap"},
    "ring with a text mul": {"kind": "ring", "add": [[0, 1], [1, 0]], "mul": "x"},
}


@pytest.mark.parametrize("label", sorted(MALFORMED))
def test_malformed_document_is_a_structure_error(label, tmp_path, capsys):
    text = json.dumps(MALFORMED[label])
    with pytest.raises(StructureError):
        serialize.loads(text)
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert cli.main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


TZ2_DOC = {"kind": "truss", "builtin": "TZn", "n": 2}

OUTSIDE_INPUT = {
    "names that are not strings": (
        {"kind": "group", "table": [[0]], "names": [1]},
        "'names' must be a list of 1 strings"),
    "a module whose heap is a group document": (
        {"kind": "module", "truss": TZ2_DOC, "heap": {"kind": "group", "table": [[0]]},
         "action": [[0], [0]]},
        "'heap' must be a FiniteHeap document"),
    "a truss document that is not an object": (
        {"kind": "free-module", "truss": [1], "generators": 2},
        "a truss document must be an object"),
    "a document that is not an object": (
        [1], "a structure document must be an object with a 'kind'"),
    "subheap members that are not ids": (
        {"kind": "subheap", "members": [True]},
        "'members' must be a list of element ids or names"),
    "a builtin truss named by a list": (
        {"kind": "truss", "builtin": ["TZ"]}, "unknown builtin truss ['TZ']"),
    "a table-backed module over TZ": (
        {"kind": "module", "truss": {"kind": "truss", "builtin": "TZ"},
         "heap": serialize.structure_to_obj(TZ3.heap), "action": []},
        "table-backed modules need a finite truss"),
}


@pytest.mark.parametrize("label", sorted(OUTSIDE_INPUT))
def test_outside_input_is_refused_with_its_reason(label, tmp_path, capsys):
    doc, message = OUTSIDE_INPUT[label]
    text = json.dumps(doc)
    with pytest.raises(StructureError) as caught:
        serialize.loads(text)
    assert str(caught.value) == message
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert cli.main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# every kind round-trips: Hypothesis draws relabelled and renamed structures


def relabel_binary(table, perm):
    """A binary table with element x renamed perm[x]."""
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            out[perm[a]][perm[b]] = perm[v]
    return out


def names_for(size):
    return st.one_of(st.none(), st.lists(st.text(max_size=3), min_size=size, max_size=size))


@st.composite
def groups(draw):
    g = draw(st.sampled_from([g for _, g in small_groups(8)]))
    perm = draw(st.permutations(range(g.size)))
    return FiniteGroup(relabel_binary(g.op_table(), perm), names=draw(names_for(g.size)))


@st.composite
def heaps(draw):
    g = draw(groups())
    if draw(st.booleans()):
        return heap_from_group(g)
    h = heap_from_group(g)
    return FiniteHeap.from_table(h.table(), names=draw(names_for(g.size)))


@st.composite
def rings(draw):
    n = draw(st.integers(1, 4))
    ring = draw(st.sampled_from([FiniteRing.Zn(n), FiniteRing.product(FiniteRing.Zn(2),
                                                                     FiniteRing.Zn(n))]))
    perm = draw(st.permutations(range(ring.size)))
    names = draw(names_for(ring.size))
    add = FiniteGroup(relabel_binary(ring.add.op_table(), perm), names=names)
    return FiniteRing(add, relabel_binary(ring.mul_table, perm), names=names)


def table_trusses():
    return st.one_of(rings().map(truss_from_ring), st.integers(1, 6).map(truss_TZn),
                     st.sampled_from([tc2_brace_truss(), terminal_truss()]))


BUILTIN_TRUSSES = st.one_of(st.just(TZ), st.integers(-20, 20).map(constant_truss))


@st.composite
def extensions(draw):
    base = draw(st.one_of(BUILTIN_TRUSSES, st.integers(1, 5).map(truss_TZn)))
    if draw(st.booleans()):
        basepoint = None
    elif isinstance(base, FiniteTruss):
        basepoint = draw(st.integers(0, base.size - 1))
    else:
        basepoint = draw(st.integers(-20, 20))
    ext = ExtensionTruss(base, draw(st.sampled_from(["one", "zero"])), basepoint)
    return unital_extension(ext) if draw(st.booleans()) else ext


@st.composite
def finite_modules(draw):
    n = draw(st.integers(1, 4))
    choice = draw(st.sampled_from(["regular", "power", "trivial"]))
    if choice == "regular":
        return modules.FiniteTModule.regular(draw(table_trusses()))
    if choice == "power":
        return modules.FiniteTModule.from_rmodule(
            RModule.power(FiniteRing.Zn(n), draw(st.integers(1, 2))))
    heap = draw(heaps().filter(lambda h: h.abelian))
    t = draw(table_trusses())
    return modules.FiniteTModule(t, heap, [list(range(heap.size))] * t.size)


@st.composite
def free_modules(draw):
    truss = draw(st.one_of(st.just(TZ), st.integers(1, 5).map(truss_TZn)))
    if draw(st.booleans()):
        basepoint = None
    elif isinstance(truss, FiniteTruss):
        basepoint = draw(st.integers(0, truss.size - 1))
    else:
        basepoint = draw(st.integers(-20, 20))
    return modules.free_module(truss, draw(st.integers(1, 3)), basepoint)


KINDS = {
    "group": ("group", groups()),
    "heap": ("heap", heaps()),
    "subheap": ("subheap", st.lists(st.one_of(st.integers(-5, 50), st.text(max_size=3)))
                .map(lambda ms: serialize.SubHeapSpec(tuple(ms)))),
    "ring": ("ring", rings()),
    "table truss": ("truss", table_trusses()),
    "built-in truss": ("truss", BUILTIN_TRUSSES),
    "extension": ("truss", extensions()),
    "module": ("module", finite_modules()),
    "ZTrivial": ("module", st.just(modules.TrivialIntModule())),
    "free-module": ("free-module", free_modules()),
}


@pytest.mark.parametrize("label", sorted(KINDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_kind_round_trips(label, data):
    kind, strategy = KINDS[label]
    x = data.draw(strategy)
    text = serialize.dumps(x)
    assert json.loads(text)["kind"] == kind
    assert serialize.loads(text) == x
    assert serialize.dumps(serialize.loads(text)) == text


# ---------------------------------------------------------------------------
# structures with no document: each refusal with its exact message

_T1 = unital_extension(integer_truss())

UNSERIALIZABLE = {
    "an extension at a basepoint that is no integer": (
        ExtensionTruss(_T1, "zero", basepoint=_T1.element(1, 0)),
        "only integer basepoints can be serialized"),
    "a free module at a basepoint that is no integer": (
        modules.free_module(_T1, 2, basepoint=_T1.element(1, 0)),
        "only integer basepoints can be serialized"),
}


@pytest.mark.parametrize("label", list(UNSERIALIZABLE))
def test_a_structure_with_no_document_is_refused_with_its_reason(label):
    x, message = UNSERIALIZABLE[label]
    with pytest.raises(StructureError) as caught:
        serialize.dumps(x)
    assert str(caught.value) == message
