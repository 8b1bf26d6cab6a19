"""JSON structure documents: round trips and rejection of malformed input."""

import json

import pytest

from trusskit import cli, modules, serialize
from trusskit.core import FiniteGroup, StructureError, heap_from_group
from trusskit.rings import FiniteRing
from trusskit.trusses import (
    ExtensionTruss,
    constant_truss,
    integer_truss,
    ring_extension,
    tc2_brace_truss,
    terminal_truss,
    truss_TZn,
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
