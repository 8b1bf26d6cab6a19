"""JSON structure files for groups, heaps, trusses, rings, and modules.

Documents are dicts with a "kind" discriminator; tables are row-major nested
arrays of element ids, ternary tables are nested as table[a][b][c].  Dumps
are deterministic (sorted keys, fixed separators) so byte-stable output can
be asserted.  Every emitted document re-parses to an equal value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import FiniteGroup, FiniteHeap, StructureError
from .modules import FiniteTModule, FreeTModule, TrivialIntModule, free_module
from .rings import FiniteRing
from .trusses import (
    ConstantTruss,
    ExtensionTruss,
    FiniteTruss,
    IntegerTruss,
    _default_basepoint,
    tc2_brace_truss,
    terminal_truss,
    truss_TZn,
)


@dataclass(frozen=True)
class SubHeapSpec:
    """A sub-heap given by members only; the parent is supplied at use time."""

    members: tuple


def _basepoint(x, truss) -> dict:
    """The "basepoint" entry of an extension or free module: present only
    when it differs from the default the loader would choose."""
    if x.basepoint == _default_basepoint(truss):
        return {}
    if not isinstance(x.basepoint, int):
        raise StructureError("only integer basepoints can be serialized")
    return {"basepoint": x.basepoint}


def structure_to_obj(x) -> dict:
    if isinstance(x, FiniteGroup):
        return {"kind": "group", "names": list(x.names),
                "table": [list(r) for r in x.op_table()]}
    if isinstance(x, FiniteHeap):
        return {"kind": "heap", "names": list(x.names), "abelian": x.abelian,
                "table": [[list(l) for l in p] for p in x.table()]}
    if isinstance(x, SubHeapSpec):
        return {"kind": "subheap", "members": list(x.members)}
    if isinstance(x, FiniteRing):
        return {"kind": "ring", "names": list(x.names),
                "add": [list(r) for r in x.add.op_table()],
                "mul": [list(r) for r in x.mul_table]}
    if isinstance(x, FiniteTruss):
        return {"kind": "truss", "heap": structure_to_obj(x.heap),
                "names": list(x.names),
                "mul": [list(r) for r in x.mul_table]}
    if isinstance(x, IntegerTruss):
        return {"kind": "truss", "builtin": "TZ"}
    if isinstance(x, ConstantTruss):
        return {"kind": "truss", "builtin": "Zc", "c": x.c}
    if isinstance(x, ExtensionTruss):
        return {"kind": "truss", "extension": x.adjoined,
                "base": structure_to_obj(x.base), **_basepoint(x, x.base)}
    if isinstance(x, FiniteTModule):
        return {"kind": "module", "truss": structure_to_obj(x.truss),
                "heap": structure_to_obj(x.heap),
                "action": [list(r) for r in x.action]}
    if isinstance(x, TrivialIntModule):
        return {"kind": "module", "builtin": "ZTrivial"}
    if isinstance(x, FreeTModule):
        return {"kind": "free-module", "truss": structure_to_obj(x.truss),
                "generators": x.n, **_basepoint(x, x.truss)}
    raise StructureError(f"cannot serialize {type(x).__name__}")


# ---------------------------------------------------------------------------
# schema checks: a malformed document raises StructureError before any
# constructor sees it


def _require(obj, key):
    if key not in obj:
        raise StructureError(f"document is missing {key!r}")
    return obj[key]


def _integer(value, what) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise StructureError(f"{what} must be an integer, got {value!r}")
    return value


def _nested_ints(value, depth, what):
    """``value`` as lists nested ``depth`` deep around integers."""
    if depth == 0:
        return _integer(value, f"every entry of {what}")
    if not isinstance(value, list):
        raise StructureError(f"{what} must be a list nested {depth} deep, got {value!r}")
    for item in value:
        _nested_ints(item, depth - 1, what)
    return value


def _id_table(obj, key, rows, cols):
    """A rows x cols table of ids in 0..cols-1 (products and actions)."""
    table = _nested_ints(_require(obj, key), 2, repr(key))
    if len(table) != rows or any(len(r) != cols or not all(0 <= v < cols for v in r)
                                 for r in table):
        raise StructureError(f"{key!r} must be a {rows} x {cols} table of ids in 0..{cols - 1}")
    return table


def _names(obj, size):
    names = obj.get("names")
    if names is None:
        return None
    if (not isinstance(names, list) or len(names) != size
            or not all(isinstance(v, str) for v in names)):
        raise StructureError(f"'names' must be a list of {size} strings")
    return names


def _nested(obj, key, cls):
    """The nested document obj[key], which must load as a ``cls``."""
    x = obj_to_structure(_require(obj, key))
    if not isinstance(x, cls):
        raise StructureError(f"{key!r} must be a {cls.__name__} document")
    return x


def _load_truss(obj):
    if not isinstance(obj, dict):
        raise StructureError("a truss document must be an object")
    builtin = obj.get("builtin")
    if builtin is not None:
        if builtin == "TZ":
            return IntegerTruss()
        if builtin == "TZn":
            return truss_TZn(_integer(_require(obj, "n"), "'n'"))
        if builtin == "Zc":
            return ConstantTruss(_integer(obj.get("c", 0), "'c'"))
        if builtin == "TC2":
            return tc2_brace_truss()
        if builtin == "star":
            return terminal_truss()
        raise StructureError(f"unknown builtin truss {builtin!r}")
    if "extension" in obj:
        base = _load_truss(_require(obj, "base"))
        basepoint = _integer(obj["basepoint"], "'basepoint'") if "basepoint" in obj else None
        return ExtensionTruss(base, obj["extension"], basepoint)
    heap = _nested(obj, "heap", FiniteHeap)
    return FiniteTruss(heap, _id_table(obj, "mul", heap.size, heap.size),
                       names=_names(obj, heap.size))


def obj_to_structure(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise StructureError("a structure document must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "group":
        table = _nested_ints(_require(obj, "table"), 2, "'table'")
        return FiniteGroup(table, names=_names(obj, len(table)))
    if kind == "heap":
        table = _nested_ints(_require(obj, "table"), 3, "'table'")
        return FiniteHeap.from_table(table, names=_names(obj, len(table)))
    if kind == "subheap":
        members = _require(obj, "members")
        if not isinstance(members, list) or not all(
                isinstance(m, (int, str)) and not isinstance(m, bool) for m in members):
            raise StructureError("'members' must be a list of element ids or names")
        return SubHeapSpec(tuple(members))
    if kind == "ring":
        table = _nested_ints(_require(obj, "add"), 2, "'add'")
        names = _names(obj, len(table))
        add = FiniteGroup(table, names=names)
        return FiniteRing(add, _id_table(obj, "mul", add.size, add.size), names=names)
    if kind == "truss":
        return _load_truss(obj)
    if kind == "module":
        if obj.get("builtin") == "ZTrivial":
            return TrivialIntModule()
        truss = _load_truss(_require(obj, "truss"))
        if not isinstance(truss, FiniteTruss):
            raise StructureError("table-backed modules need a finite truss")
        heap = _nested(obj, "heap", FiniteHeap)
        return FiniteTModule(truss, heap, _id_table(obj, "action", truss.size, heap.size))
    if kind == "free-module":
        truss = _load_truss(_require(obj, "truss"))
        n = _integer(_require(obj, "generators"), "'generators'")
        basepoint = _integer(obj["basepoint"], "'basepoint'") if "basepoint" in obj else None
        return free_module(truss, n, basepoint)
    raise StructureError(f"unknown structure kind {kind!r}")


def dumps(x) -> str:
    return json.dumps(structure_to_obj(x), sort_keys=True, indent=2)


def loads(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"malformed JSON: {exc}") from None
    return obj_to_structure(obj)


def load_path(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads(text)
