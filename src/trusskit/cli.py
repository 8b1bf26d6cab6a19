"""Command-line front end: parse structure files and word expressions,
dispatch operations, emit canonical forms, tables, and verification reports.

Exit codes: 0 on pass/success, 1 on verification failure, 2 on usage or
parse errors.  Output is deterministic for fixed inputs and options; nothing
is printed until a command has fully succeeded.

The argument parser is built once per process, on the first ``main`` call,
and never mutated; every call parses with it and then runs the verb's
``cmd_<verb>`` looked up by name, so a function patched in later still runs.

Loading a heap file decides exactly, at every size, whether its table is a
heap; ``verify`` reports every violated instance.  Groups, heaps, rings and
finite trusses and modules are checked exhaustively; symbolic trusses and
modules are decided exactly on a frame of their group form.  Every verdict
is exact: ``verify --samples N`` is accepted (N positive) and ignored.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import serialize
from .core import (
    FiniteGroup,
    FiniteHeap,
    StructureError,
    SubHeap,
    quotient,
    retract,
    validate_group_table,
    validate_heap,
)
from .coproduct import DirectSum, HeapSummand
from .modules import (
    FiniteTModule,
    FreeTModule,
    TrivialIntModule,
    absorbers,
    basis_check,
    validate_module,
)
from .reports import PASS
from .rings import FiniteRing, validate_ring
from .trusses import (
    ConstantTruss,
    ExtensionTruss,
    FiniteTruss,
    IntegerTruss,
    constant_truss,
    dorroh_compare,
    double_extension,
    product_table,
    retract_ring,
    ring_extension,
    tc2_brace_truss,
    terminal_truss,
    truss_TZn,
    unital_extension,
    validate_truss,
)
from .words import eval_expr_abelian, eval_expr_free, parse_word_expr, shortest_word


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _resolve(names, token):
    """An element id from a display name, falling back to a numeric id."""
    if token in names:
        return names.index(token)
    try:
        idx = int(token)
    except ValueError:
        raise StructureError(f"unknown element {token!r}") from None
    if not 0 <= idx < len(names):
        raise StructureError(f"element id {idx} out of range")
    return idx


def parse_builtin_truss(spec: str):
    if spec == "TZ":
        return IntegerTruss()
    if spec == "TC2":
        return tc2_brace_truss()
    if spec == "star":
        return terminal_truss()
    m = re.fullmatch(r"TZ(\d+)", spec)
    if m:
        return truss_TZn(int(m.group(1)))
    m = re.fullmatch(r"Zc(-?\d+)", spec)
    if m:
        return constant_truss(int(m.group(1)))
    raise StructureError(f"unknown builtin truss {spec!r} "
                         "(expected TZ, TZ<n>, Zc<c>, TC2, or star)")


def parse_ring_spec(spec: str) -> FiniteRing:
    m = re.fullmatch(r"Z(\d+)", spec)
    if m:
        return FiniteRing.Zn(int(m.group(1)))
    structure = serialize.load_path(spec)
    if not isinstance(structure, FiniteRing):
        raise StructureError(f"{spec!r} is not a ring")
    return structure


# ---------------------------------------------------------------------------
# table rendering


def _extension_pool(t: ExtensionTruss, window: int):
    return [t.element(g, m) for g in t.base.sample_elements(window)
            for m in range(-window, window + 1)]


def _grid(labels, cells) -> str:
    width = max([len(s) for row in [labels, *cells] for s in row], default=0)
    head = " " * (width + 2) + "| " + "  ".join(s.rjust(width) for s in labels)
    sep = "-" * len(head)
    lines = [head, sep]
    for label, row in zip(labels, cells):
        lines.append(label.rjust(width + 2) + "| " + "  ".join(s.rjust(width) for s in row))
    return "\n".join(lines)


def _cells(op):
    """The table of a binary operation op over xs x ys, cell by cell."""
    return lambda xs, ys: [[op(a, b) for b in ys] for a in xs]


def _table_form(structure, window: int):
    """(kind, labels, tables): the display names of the elements and each
    operation table as rows of display names.  Symbolic trusses show the
    elements of a window.  A truss's table comes from
    ``trusses.product_table``: an extension makes each distinct base product
    once, not three per cell, and checks that it lies in the carrier."""
    if isinstance(structure, FiniteHeap):
        names = structure.names
        return "heap-table", list(names), {
            "table": [[[names[v] for v in lvl] for lvl in pl] for pl in structure.table()]}
    if isinstance(structure, FiniteGroup):
        kind, ops = "group-table", {"table": _cells(structure.op)}
    elif isinstance(structure, FiniteRing):
        kind, ops = "ring-tables", {"add": _cells(structure.plus), "mul": _cells(structure.mul)}
    elif isinstance(structure, (ExtensionTruss, FiniteTruss, IntegerTruss, ConstantTruss)):
        kind, ops = "truss-table", {"table": functools.partial(product_table, structure)}
    else:
        raise StructureError("no table form for this structure")
    if isinstance(structure, ExtensionTruss):
        pool, fmt = _extension_pool(structure, window), structure.format_element
    elif kind == "truss-table":
        pool, fmt = structure.sample_elements(window), structure.format_element
    else:
        pool, fmt = range(structure.size), structure.names.__getitem__
    tables = {name: [[fmt(v) for v in row] for row in table(pool, pool)]
              for name, table in ops.items()}
    return kind, [fmt(x) for x in pool], tables


_TABLE_TITLES = {"add": "addition", "mul": "multiplication"}


def emit_table(structure, window: int, as_json: bool) -> str:
    """A structure's operation tables as JSON, or as grids; a heap's
    ternary table has no grid form and is always JSON."""
    kind, labels, tables = _table_form(structure, window)
    if as_json or kind == "heap-table":
        return _dumps({"kind": kind, "labels": labels, **tables})
    if list(tables) == ["table"]:
        return _grid(labels, tables["table"])
    return "\n\n".join(f"{_TABLE_TITLES[name]}\n{_grid(labels, cells)}"
                       for name, cells in tables.items())


# ---------------------------------------------------------------------------
# verbs


def cmd_reduce(args) -> tuple[int, str]:
    node = parse_word_expr(args.expr)
    if args.free:
        word = eval_expr_free(node)
        if args.json:
            return 0, _dumps({"word": list(word)})
        return 0, " ".join(word)
    counts = eval_expr_abelian(node)
    if args.json:
        return 0, _dumps({"coeffs": counts})
    return 0, " ".join(shortest_word(counts))


def _load_abelian_heap(path) -> FiniteHeap:
    structure = serialize.load_path(path)
    if not isinstance(structure, FiniteHeap):
        raise StructureError(f"{path!r} is not a heap file")
    if not structure.abelian:
        raise StructureError("direct sums need Abelian heaps")
    return structure


def cmd_coproduct(args) -> tuple[int, str]:
    left = _load_abelian_heap(args.left)
    right = _load_abelian_heap(args.right)
    base_left = 0 if args.base_left is None else _resolve(left.names, args.base_left)
    base_right = 0 if args.base_right is None else _resolve(right.names, args.base_right)
    ds = DirectSum((HeapSummand(left, base_left), HeapSummand(right, base_right)))
    letters = []
    for token in args.word.split():
        tag, _, name = token.partition(":")
        if tag == "A":
            letters.append((0, _resolve(left.names, name)))
        elif tag == "B":
            letters.append((1, _resolve(right.names, name)))
        else:
            raise StructureError(f"letter {token!r} is from neither summand "
                                 "(tag letters as A:x or B:y)")
    x = ds.normalize_word(letters)
    word = ds.word_form(x)
    tagged = " ".join(
        ("A:" + left.names[v]) if i == 0 else ("B:" + right.names[v]) for i, v in word)
    canonical = f"({left.names[x.alpha]}, {right.names[x.beta]}, {x.n})"
    if args.json:
        return 0, _dumps({"alpha": left.names[x.alpha], "beta": right.names[x.beta],
                          "n": x.n, "word": tagged.split()})
    return 0, f"{canonical}\nword: {tagged}"


def cmd_extend(args) -> tuple[int, str]:
    if args.window <= 0:
        raise StructureError("window must be positive")
    want_table = False
    path = None
    for item in args.rest:
        if item == "table":
            want_table = True
        elif path is None:
            path = item
        else:
            raise StructureError(f"unexpected argument {item!r}")
    if (args.builtin is None) == (path is None):
        raise StructureError("give exactly one of --builtin NAME or a truss file")
    base = parse_builtin_truss(args.builtin) if args.builtin else serialize.load_path(path)
    if isinstance(base, FiniteHeap) or isinstance(base, FiniteGroup):
        raise StructureError("extensions take a truss, not a bare heap or group")
    if args.unital:
        ext = unital_extension(base)
    elif args.zero:
        ext = ring_extension(base)
    else:
        ext = double_extension(base)
    if want_table:
        return 0, emit_table(ext, args.window, args.json)
    info = {
        "extension": ext.adjoined if not args.both else "zero of unital",
        "unital": ext.unital,
        "ring_type": ext.ring_type,
        "identity": None if ext.identity is None else ext.format_element(ext.identity),
        "absorber": None if ext.absorber is None else ext.format_element(ext.absorber),
    }
    if args.json:
        return 0, _dumps(info)
    lines = [f"{k}: {v}" for k, v in sorted(info.items())]
    return 0, "\n".join(lines)


def cmd_retract(args) -> tuple[int, str]:
    structure = serialize.load_path(args.file)
    if isinstance(structure, FiniteHeap):
        e = _resolve(structure.names, args.at)
        return 0, serialize.dumps(retract(structure, e))
    if isinstance(structure, FiniteTruss):
        e = _resolve(structure.names, args.at)
        return 0, serialize.dumps(retract_ring(structure, e))
    raise StructureError("retract takes a heap (to a group) or a finite truss (to a ring)")


def cmd_quotient(args) -> tuple[int, str]:
    structure = serialize.load_path(args.file)
    if not isinstance(structure, FiniteHeap):
        raise StructureError("quotient takes a heap file")
    spec = serialize.load_path(args.by)
    if not isinstance(spec, serialize.SubHeapSpec):
        raise StructureError(f"{args.by!r} is not a subheap file")
    members = tuple(_resolve(structure.names, str(m)) for m in spec.members)
    sub = SubHeap(structure, members)
    qheap, proj = quotient(structure, sub)
    obj = {"quotient": serialize.structure_to_obj(qheap),
           "projection": list(proj.mapping)}
    return 0, _dumps(obj)


def cmd_abs(args) -> tuple[int, str]:
    structure = serialize.load_path(args.file)
    if isinstance(structure, (FiniteTModule, TrivialIntModule, FreeTModule)):
        aset = absorbers(structure)
        if aset.kind == "finite":
            names = [structure.names[x] for x in aset.members] \
                if isinstance(structure, FiniteTModule) else list(aset.members)
            return 0, _dumps({"absorbers": names})
        if aset.kind == "all":
            return 0, _dumps({"absorbers": "all"})
        return 0, _dumps({"absorbers": "tails", "tail_rank": structure.n - 1})
    raise StructureError("abs takes a module file")


def cmd_verify(args) -> tuple[int, str]:
    if args.samples is not None and args.samples <= 0:
        raise StructureError("samples must be positive")
    structure = serialize.load_path(args.file)
    if isinstance(structure, FiniteGroup):
        report = validate_group_table(structure.op_table())
    elif isinstance(structure, FiniteHeap):
        report = validate_heap(structure.table(), abelian=structure.abelian)
    elif isinstance(structure, FiniteRing):
        report = validate_ring(structure)
    elif isinstance(structure, (FiniteTruss, IntegerTruss, ConstantTruss, ExtensionTruss)):
        report = validate_truss(structure)
    elif isinstance(structure, (FiniteTModule, TrivialIntModule, FreeTModule)):
        report = validate_module(structure)
    else:
        raise StructureError("nothing to verify in this file")
    return (0 if report.status == PASS else 1), report.to_json()


def cmd_table(args) -> tuple[int, str]:
    if args.window <= 0:
        raise StructureError("window must be positive")
    structure = serialize.load_path(args.file)
    return 0, emit_table(structure, args.window, args.json)


def cmd_basis(args) -> tuple[int, str]:
    structure = serialize.load_path(args.file)
    tokens = [t for t in args.candidates.split(",") if t]
    if isinstance(structure, FiniteTModule):
        candidates = [_resolve(structure.names, t) for t in tokens]
    elif isinstance(structure, FreeTModule):
        gens = structure.generators()
        candidates = []
        for t in tokens:
            m = re.fullmatch(r"g(\d+)", t)
            if not m or int(m.group(1)) >= len(gens):
                raise StructureError(f"free-module candidates are g0..g{len(gens)-1}, got {t!r}")
            candidates.append(gens[int(m.group(1))])
    elif isinstance(structure, TrivialIntModule):
        if not all(re.fullmatch(r"-?\d+", t) for t in tokens):
            raise StructureError(f"candidates of the integer module are integers, got {tokens!r}")
        candidates = [int(t) for t in tokens]
    else:
        raise StructureError("basis takes a module file")
    report = basis_check(structure, candidates)
    return (0 if report.status == PASS else 1), report.to_json()


def cmd_dorroh(args) -> tuple[int, str]:
    report = dorroh_compare(parse_ring_spec(args.ring), window=args.window)
    return (0 if report.status == PASS else 1), report.to_json()


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="trusskit",
        description="Exact computations with heaps, trusses, and modules over trusses.")
    sub = p.add_subparsers(dest="verb", required=True)

    r = sub.add_parser("reduce", help="normalize a word expression")
    mode = r.add_mutually_exclusive_group(required=True)
    mode.add_argument("--free", action="store_true", help="free heap reduction")
    mode.add_argument("--abelian", action="store_true",
                      help="free Abelian heap reduction to signed letter counts "
                           "(printed as the shortest word with them unless --json)")
    r.add_argument("expr", help='e.g. "a b b" or "[a b a, a, b]"')
    r.add_argument("--json", action="store_true")

    c = sub.add_parser("coproduct", help="canonical form in a direct sum of two heaps")
    c.add_argument("left", help="left summand heap file")
    c.add_argument("right", help="right summand heap file")
    c.add_argument("--word", required=True, help='tagged letters, e.g. "A:1 B:0 A:0"')
    c.add_argument("--base-left", default=None)
    c.add_argument("--base-right", default=None)
    c.add_argument("--json", action="store_true")

    e = sub.add_parser("extend", help="unital/ring extension of a truss")
    which = e.add_mutually_exclusive_group(required=True)
    which.add_argument("--unital", action="store_true")
    which.add_argument("--zero", action="store_true")
    which.add_argument("--both", action="store_true")
    e.add_argument("--builtin", default=None, help="TZ, TZ<n>, Zc<c>, TC2, star")
    e.add_argument("rest", nargs="*", metavar="[FILE] [table]",
                   help="a truss file and/or the word 'table'")
    e.add_argument("--window", type=int, default=5)
    e.add_argument("--json", action="store_true")

    rt = sub.add_parser("retract", help="group of a heap / ring of a truss at a base point")
    rt.add_argument("--at", required=True, metavar="ELEM")
    rt.add_argument("file")

    q = sub.add_parser("quotient", help="quotient heap by a normal sub-heap")
    q.add_argument("--by", required=True, metavar="SUBHEAP_FILE")
    q.add_argument("file")

    a = sub.add_parser("abs", help="absorber set of a module")
    a.add_argument("file")

    v = sub.add_parser(
        "verify", help="validate a structure file",
        description="Check a structure file against its axioms.  Finite tables are "
                    "checked exhaustively (heaps exactly, from the retract); symbolic "
                    "trusses and modules exactly, on a frame: a point and that point "
                    "moved by each generator.  Exit 0 on pass, 1 on fail.")
    v.add_argument("--samples", type=int, default=None, metavar="N",
                   help="ignored: every verdict is exact (must be positive)")
    v.add_argument("file", help="a JSON structure file")

    t = sub.add_parser("table", help="operation table of a structure")
    t.add_argument("--window", type=int, default=5)
    t.add_argument("--json", action="store_true")
    t.add_argument("file")

    b = sub.add_parser("basis", help="decide exactly whether module candidates are a basis "
                                     "(exit 0) or not (exit 1, with a witness)")
    b.add_argument("--candidates", required=True, metavar="LIST",
                   help="element names or ids, g0,g1,... of a free module, or integers; "
                        "a list that starts with '-' needs the --candidates=-1,2 form")
    b.add_argument("file")

    d = sub.add_parser("dorroh", help="compare a unital extension against the Dorroh product")
    d.add_argument("--ring", required=True, metavar="SPEC", help="Z<n> or a ring file")
    d.add_argument("--window", type=int, default=3,
                   help="kept only for the CLI contract; the verdict covers every tail in Z^2")

    return p


_PARSER = None


def main(argv=None) -> int:
    """Run one verb and return its exit code (0, 1 or 2).  The parser is
    built once per process, on the first call, and never mutated; the verb's
    ``cmd_<verb>`` is looked up by name when the call runs."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, output = globals()[f"cmd_{args.verb}"](args)
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early (``| head -1``): send what is still
        # buffered to os.devnull, so that exiting prints nothing on stderr
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except (AttributeError, OSError, ValueError):
            sys.stdout = os.fdopen(devnull, "w")
    return code


if __name__ == "__main__":
    sys.exit(main())
