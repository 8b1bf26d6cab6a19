"""`cli`: in-process `trusskit.cli.main(argv)` on fixture files, plus
`serialize.dumps` -> `loads` round trips of every structure kind.

The only workload that runs the `cli` and `serialize` layers.  It reaches
the validators through their fail and error paths.  Every verb runs with
input that passes (exit 0), fails verification (exit 1), and is malformed
or misused (exit 2, and no traceback).  Malformed documents, a deeply
nested `reduce`, `verify --samples 0`, an undecided `verify`/`basis` and
non-default basepoints are included on purpose: they are where the CLI
and serialization contract breaks today.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import oracles as O
from harness import BREACH, DECIDED, WRONG, Case

FIXTURES = Path(__file__).resolve().parent / "fixtures"

MALFORMED = ("group_table_int", "truss_zc_text", "heap_no_table", "ring_mul_text",
             "not_json", "unknown_kind", "heap_ragged", "group_not_assoc",
             "heap_c4_bad", "ring_z4_bad", "module_bad_shape")
VERIFY_PASS = (("group_z4",), ("heap_c4",), ("heap_s3",), ("ring_z4",), ("truss_tz4",),
               ("truss_tz",), ("truss_zc3",), ("truss_tc2",), ("truss_tz5",),
               ("truss_t1_tz", "--samples", "200"), ("module_tz4",),
               ("module_ztrivial", "--samples", "500"), ("free_tz3", "--samples", "500"),
               # a heap by construction; an exact validator passes it
               ("heap_c20",))
VERIFY_FAIL = (("truss_tz4_bad",), ("module_tz4_bad",), ("truss_t1_bad", "--samples", "200"))
DEEP_NESTING = 5000


def fixture(name):
    return str(FIXTURES / f"{name}.json")


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def expect(code, check=None):
    """Judge (exit code, stdout, stderr) against an expected exit code and an
    optional predicate on stdout.  A verdict contradicting the known answer
    is wrong; any other mismatch breaks the CLI contract."""
    def judge(result):
        got, out, _ = result
        if got != code:
            if got in (0, 1) and code in (0, 1) and _status(out) in ("pass", "fail"):
                return WRONG
            return BREACH
        if check is not None and not check(out):
            return WRONG
        return DECIDED
    return judge


def _status(out):
    try:
        return json.loads(out).get("status")
    except (ValueError, AttributeError):
        return None


def _json_is(expected):
    return lambda out: json.loads(out) == expected


def cli_case(tk, label, argv, code, check=None):
    return Case(f"cli {label}", lambda: run_cli(tk.cli, argv), expect(code, check))


def _reduce_cases(tk, seed):
    rng = O.seeded(seed, "reduce")
    cases = []
    for i in range(4):
        node = O.random_expr(rng, 4)
        cases.append(cli_case(tk, f"reduce --abelian --json #{i}",
                              ["reduce", "--abelian", "--json", O.render_expr(node)], 0,
                              _json_is({"coeffs": O.abelian_coeffs(node)})))
    for i in range(2):
        node = O.random_expr(rng, 4)
        want = " ".join(O.free_reduce(node))
        cases.append(cli_case(tk, f"reduce --free #{i}",
                              ["reduce", "--free", O.render_expr(node)], 0,
                              lambda out, want=want: out.strip() == want))
    for depth in (50, DEEP_NESTING):
        text, coeffs = O.nested_expr(depth)
        cases.append(cli_case(tk, f"reduce --abelian nested {depth}",
                              ["reduce", "--abelian", "--json", text], 0,
                              _json_is({"coeffs": coeffs})))
    cases += [
        cli_case(tk, "reduce unclosed", ["reduce", "--free", "[a, b"], 2),
        cli_case(tk, "reduce even word", ["reduce", "--abelian", "a b"], 2),
        cli_case(tk, "reduce without mode", ["reduce", "a"], 2),
    ]
    return cases


def _coproduct_cases(tk, seed):
    rng = O.seeded(seed, "coproduct")
    c4 = fixture("heap_c4")
    cases = []
    for i in range(3):
        letters = [(rng.choice("AB"), rng.randrange(4)) for _ in range(rng.choice((3, 5, 7)))]
        alpha, beta, tail = O.coproduct_form(4, 4, letters)
        word = " ".join(f"{side}:{x}" for side, x in letters)

        def check(out, alpha=alpha, beta=beta, tail=tail):
            got = json.loads(out)
            return (got["alpha"], got["beta"], got["n"]) == (str(alpha), str(beta), tail)

        cases.append(cli_case(tk, f"coproduct #{i}",
                              ["coproduct", c4, c4, "--word", word, "--json"], 0, check))
    cases += [
        cli_case(tk, "coproduct non-Abelian",
                 ["coproduct", fixture("heap_s3"), c4, "--word", "A:0"], 2),
        cli_case(tk, "coproduct bad letter", ["coproduct", c4, c4, "--word", "C:1"], 2),
    ]
    return cases


def _table_cells(out, n, product):
    got = json.loads(out)
    return got["table"] == [[str(product(a, b)) for b in range(n)] for a in range(n)]


def build(tk, seed):
    ser, trusses, modules, core, rings = tk.serialize, tk.trusses, tk.modules, tk.core, tk.rings
    c4, tz4, free = fixture("heap_c4"), fixture("truss_tz4"), fixture("free_tz3")
    cases = _reduce_cases(tk, seed) + _coproduct_cases(tk, seed)

    cases += [
        cli_case(tk, "extend --unital TZ", ["extend", "--unital", "--builtin", "TZ", "--json"],
                 0, lambda out: json.loads(out)["unital"] and json.loads(out)["ring_type"]),
        cli_case(tk, "extend --zero Zc3", ["extend", "--zero", "--builtin", "Zc3", "--json"],
                 0, lambda out: json.loads(out)["ring_type"] and not json.loads(out)["unital"]),
        cli_case(tk, "extend --both TC2 table",
                 ["extend", "--both", "--builtin", "TC2", "table", "--window", "2"], 0),
        cli_case(tk, "extend --unital file table",
                 ["extend", "--unital", tz4, "table", "--json", "--window", "2"], 0,
                 lambda out: len(json.loads(out)["labels"]) == 4 * 5),
        cli_case(tk, "extend unknown builtin", ["extend", "--unital", "--builtin", "XYZ"], 2),
        cli_case(tk, "extend without base", ["extend", "--unital"], 2),

        cli_case(tk, "retract heap", ["retract", "--at", "1", c4], 0,
                 lambda out: json.loads(out)["table"]
                 == [[(a - 1 + b) % 4 for b in range(4)] for a in range(4)]),
        cli_case(tk, "retract truss", ["retract", "--at", "0", tz4], 0,
                 lambda out: json.loads(out)["mul"] == O.zn_mul(4)),
        cli_case(tk, "retract out of range", ["retract", "--at", "9", c4], 2),

        cli_case(tk, "quotient", ["quotient", "--by", fixture("subheap_c4"), c4], 0,
                 lambda out: json.loads(out)["projection"] == [0, 1, 0, 1]),
        cli_case(tk, "quotient by a heap", ["quotient", "--by", c4, c4], 2),

        cli_case(tk, "abs finite", ["abs", fixture("module_tz4")], 0,
                 _json_is({"absorbers": ["0"]})),
        cli_case(tk, "abs trivial", ["abs", fixture("module_ztrivial")], 0,
                 _json_is({"absorbers": "all"})),
        cli_case(tk, "abs free", ["abs", free], 0,
                 _json_is({"absorbers": "tails", "tail_rank": 1})),
        cli_case(tk, "abs of a group", ["abs", fixture("group_z4")], 2),
    ]

    for name, *opts in VERIFY_PASS:
        cases.append(cli_case(tk, f"verify {name}", ["verify", *opts, fixture(name)], 0,
                              lambda out: _status(out) == "pass"))
    for name, *opts in VERIFY_FAIL:
        cases.append(cli_case(tk, f"verify {name}", ["verify", *opts, fixture(name)], 1,
                              lambda out: _status(out) == "fail"))
    for name in MALFORMED:
        cases.append(cli_case(tk, f"verify {name}", ["verify", fixture(name)], 2))
    cases += [
        cli_case(tk, "verify --samples 0", ["verify", "--samples", "0", fixture("truss_tz")], 2),
        cli_case(tk, "verify missing file", ["verify", fixture("no_such_file")], 2),

        cli_case(tk, "table group", ["table", "--json", fixture("group_z4")], 0,
                 lambda out: _table_cells(out, 4, lambda a, b: (a + b) % 4)),
        cli_case(tk, "table ring", ["table", "--json", fixture("ring_z4")], 0,
                 lambda out: json.loads(out)["mul"]
                 == [[str(a * b % 4) for b in range(4)] for a in range(4)]),
        cli_case(tk, "table TZ", ["table", "--json", "--window", "3", fixture("truss_tz")], 0,
                 lambda out: json.loads(out)["table"]
                 == [[str(a * b) for b in range(-3, 4)] for a in range(-3, 4)]),
        cli_case(tk, "table T1(TZ)", ["table", "--json", "--window", "2",
                                      fixture("truss_t1_tz")], 0,
                 lambda out: len(json.loads(out)["labels"]) == 25),
        cli_case(tk, "table heap", ["table", c4], 0),
        cli_case(tk, "table free module", ["table", free], 2),
        cli_case(tk, "table window 0", ["table", "--window", "0", fixture("group_z4")], 2),

        cli_case(tk, "basis unit", ["basis", "--candidates", "1", fixture("module_tz4")], 0),
        cli_case(tk, "basis non-unit", ["basis", "--candidates", "2", fixture("module_tz4")], 1),
        cli_case(tk, "basis two in finite",
                 ["basis", "--candidates", "1,3", fixture("module_tz4")], 1),
        # the generators of a free module are its basis
        cli_case(tk, "basis free generators", ["basis", "--candidates", "g0,g1", free], 0),
        cli_case(tk, "basis unknown generator", ["basis", "--candidates", "g7", free], 2),

        cli_case(tk, "dorroh Z3", ["dorroh", "--ring", "Z3", "--window", "2"], 0,
                 lambda out: _status(out) == "pass"),
        cli_case(tk, "dorroh ring file", ["dorroh", "--ring", fixture("ring_z4"),
                                          "--window", "2"], 0,
                 lambda out: _status(out) == "pass"),
        cli_case(tk, "dorroh unknown ring", ["dorroh", "--ring", "Q"], 2),
        cli_case(tk, "dorroh window 0", ["dorroh", "--ring", "Z3", "--window", "0"], 2),

        cli_case(tk, "no verb", [], 2),
        cli_case(tk, "unknown verb", ["frobnicate"], 2),
    ]

    tz, tz3 = trusses.integer_truss(), trusses.truss_TZn(3)
    structures = {
        "group": core.FiniteGroup.cyclic(4),
        "heap": core.heap_from_group(core.FiniteGroup.dihedral(3)),
        "subheap": ser.SubHeapSpec((0, 2)),
        "ring": rings.FiniteRing.Zn(4),
        "finite truss": trusses.truss_TZn(4),
        "TZ": tz,
        "Zc3": trusses.constant_truss(3),
        "TC2": trusses.tc2_brace_truss(),
        "terminal truss": trusses.terminal_truss(),
        "T1(TZ)": trusses.unital_extension(tz),
        "T0(Zc3)": trusses.ring_extension(trusses.constant_truss(3)),
        "finite module": modules.FiniteTModule.regular(trusses.truss_TZn(4)),
        "trivial module": modules.TrivialIntModule(),
        "free module": modules.free_module(tz3, 2),
        "T1(TZ) basepoint 1": trusses.ExtensionTruss(tz, "one", basepoint=1),
        "free module basepoint 1": modules.free_module(tz3, 2, basepoint=1),
    }
    for label, x in structures.items():
        cases.append(Case(f"round trip {label}", lambda x=x: ser.loads(ser.dumps(x)),
                          lambda y, x=x: DECIDED if y == x else BREACH))
    return cases
