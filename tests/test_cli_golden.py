"""Golden outputs of the command line: every verb, on the benchmark fixture
files, with its exit code and its exact stdout and stderr.

The expected outputs are in ``golden_cli.json``.  Fixture paths are written
as ``<fixtures>`` in both the arguments and the recorded outputs, and an
argparse usage error is kept as the name of the command it rejects.  To record
them again (only when an output is meant to change):

    PYTHONPATH=src python tests/test_cli_golden.py

which prints the command line of every entry whose exit code, stdout or stderr
changed, and of every entry added or removed.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from trusskit import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = str(ROOT / "perfbench" / "fixtures")
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
F = "<fixtures>/"

CASES = [
    ["reduce", "--abelian", "[a b a, a, b]"],
    ["reduce", "--abelian", "--json", "[a b c, [b, c, d], a]"],
    ["reduce", "--abelian", "[a b c, [b, c, d], a]"],
    ["reduce", "--abelian", "c b a b c"],
    ["reduce", "--abelian", "[z, a, y]"],
    ["reduce", "--free", "[a b a, a, b]"],
    ["reduce", "--free", "--json", "a b b c c"],
    ["reduce", "--free", "[a, b"],
    ["reduce", "--abelian", "a b"],
    ["reduce", "a"],
    ["coproduct", F + "heap_c4.json", F + "heap_c4.json", "--word", "A:1 B:2 A:3 B:0 A:1"],
    ["coproduct", F + "heap_c4.json", F + "heap_c4.json", "--word", "B:3 A:1 B:2", "--json"],
    ["coproduct", F + "heap_c4.json", F + "heap_c4.json", "--word", "A:2 A:0 B:1 B:3 B:1",
     "--base-left", "1", "--base-right", "3"],
    ["coproduct", F + "heap_c4.json", F + "heap_c4.json", "--word", "B:0"],
    ["coproduct", F + "heap_s3.json", F + "heap_c4.json", "--word", "A:0"],
    ["coproduct", F + "heap_c4.json", F + "heap_c4.json", "--word", "C:1"],
    ["coproduct", F + "heap_c4.json", F + "heap_c4.json", "--word", "A:1 B:2"],
    ["extend", "--unital", "--builtin", "TZ"],
    ["extend", "--unital", "--builtin", "TZ", "--json"],
    ["extend", "--zero", "--builtin", "Zc3", "--json"],
    ["extend", "--both", "--builtin", "TC2"],
    ["extend", "--both", "--builtin", "TC2", "table", "--window", "1"],
    ["extend", "--both", "--builtin", "TC2", "table", "--window", "2"],
    ["extend", "--both", "--builtin", "TZ3", "table", "--window", "2", "--json"],
    ["extend", "--zero", "--builtin", "TZ", "table", "--window", "2"],
    ["extend", "--zero", "--builtin", "Zc3", "table", "--window", "1", "--json"],
    ["extend", "--unital", "--builtin", "TZ3", "table", "--window", "1"],
    ["extend", "--unital", F + "truss_tz4.json", "table", "--json", "--window", "2"],
    ["extend", "--unital", F + "truss_tz4_bad.json", "table", "--window", "1"],
    ["extend", "--both", "--builtin", "Zc3", "table", "--window", "1"],
    ["extend", "--both", "--builtin", "star"],
    ["extend", "--unital", "--builtin", "TZ", "--window", "0"],
    ["extend", "--unital", F + "truss_tz4.json", F + "truss_tz4.json"],
    ["extend", "--unital", "--builtin", "XYZ"],
    ["extend", "--unital"],
    ["extend", "--unital", F + "heap_c4.json"],
    ["extend", "--unital", F + "ring_z4.json"],
    ["extend", "--unital", F + "module_tz4.json"],
    ["extend", "--unital", F + "module_tz4_bad.json"],
    ["extend", "--unital", F + "module_ztrivial.json"],
    ["extend", "--unital", F + "free_tz3.json"],
    ["extend", "--both", F + "subheap_c4.json", "table"],
    ["extend", "--both", F + "truss_t1_bad.json", "table"],
    ["extend", "--both", F + "truss_t1_bad.json", "table", "--window", "2", "--json"],
    ["retract", "--at", "1", F + "heap_c4.json"],
    ["retract", "--at", "0", F + "truss_tz4.json"],
    ["retract", "--at", "9", F + "heap_c4.json"],
    ["retract", "--at", "0", F + "group_z4.json"],
    ["quotient", "--by", F + "subheap_c4.json", F + "heap_c4.json"],
    ["quotient", "--by", F + "subheap_c4.json", F + "heap_c20.json"],
    ["quotient", "--by", F + "heap_c4.json", F + "heap_c4.json"],
    ["quotient", "--by", F + "subheap_c4.json", F + "group_z4.json"],
    ["abs", F + "module_tz4.json"],
    ["abs", F + "module_ztrivial.json"],
    ["abs", F + "free_tz3.json"],
    ["abs", F + "group_z4.json"],
    ["verify", F + "group_z4.json"],
    ["verify", F + "heap_c4.json"],
    ["verify", F + "heap_s3.json"],
    ["verify", F + "heap_c20.json"],
    ["verify", F + "ring_z4.json"],
    ["verify", F + "truss_tz4.json"],
    ["verify", F + "truss_tz.json"],
    ["verify", "--samples", "50", F + "truss_zc3.json"],
    ["verify", "--samples", "50", F + "truss_tc2.json"],
    ["verify", "--samples", "50", F + "truss_tz5.json"],
    ["verify", "--samples", "50", F + "truss_t1_tz.json"],
    ["verify", F + "module_tz4.json"],
    ["verify", "--samples", "50", F + "module_ztrivial.json"],
    ["verify", "--samples", "50", F + "free_tz3.json"],
    ["verify", F + "truss_tz4_bad.json"],
    ["verify", F + "module_tz4_bad.json"],
    ["verify", "--samples", "50", F + "truss_t1_bad.json"],
    ["verify", F + "group_table_int.json"],
    ["verify", F + "truss_zc_text.json"],
    ["verify", F + "heap_no_table.json"],
    ["verify", F + "ring_mul_text.json"],
    ["verify", F + "not_json.json"],
    ["verify", F + "unknown_kind.json"],
    ["verify", F + "heap_ragged.json"],
    ["verify", F + "group_not_assoc.json"],
    ["verify", F + "heap_c4_bad.json"],
    ["verify", F + "ring_z4_bad.json"],
    ["verify", F + "module_bad_shape.json"],
    ["verify", "--samples", "0", F + "truss_tz.json"],
    ["verify", F + "no_such_file.json"],
    ["verify", F + "subheap_c4.json"],
    ["table", F + "group_z4.json"],
    ["table", "--json", F + "group_z4.json"],
    ["table", F + "ring_z4.json"],
    ["table", "--json", F + "ring_z4.json"],
    ["table", F + "heap_c4.json"],
    ["table", F + "truss_tz4.json"],
    ["table", "--json", F + "truss_tz4.json"],
    ["table", "--window", "3", F + "truss_tz.json"],
    ["table", "--json", "--window", "2", F + "truss_zc3.json"],
    ["table", "--window", "2", F + "truss_tc2.json"],
    ["table", "--window", "2", F + "truss_t1_tz.json"],
    ["table", "--json", "--window", "1", F + "truss_t1_tz.json"],
    ["table", F + "free_tz3.json"],
    ["table", F + "module_tz4.json"],
    ["table", "--window", "0", F + "group_z4.json"],
    ["table", "--window", "200", F + "truss_tz.json"],
    ["basis", "--candidates", "1", F + "module_tz4.json"],
    ["basis", "--candidates", "2", F + "module_tz4.json"],
    ["basis", "--candidates", "1,3", F + "module_tz4.json"],
    ["basis", "--candidates", "g0,g1", F + "free_tz3.json"],
    ["basis", "--candidates", "g1", F + "free_tz3.json"],
    ["basis", "--candidates", "g7", F + "free_tz3.json"],
    ["basis", "--candidates", "g1,g1", F + "free_tz3.json"],
    ["basis", "--length-bound", "4", "--candidates", "g0,g1", F + "free_tz3.json"],
    ["basis", "--candidates", "1", F + "module_ztrivial.json"],
    ["basis", "--candidates", "1", F + "group_z4.json"],
    ["dorroh", "--ring", "Z3", "--window", "2"],
    ["dorroh", "--ring", F + "ring_z4.json", "--window", "2"],
    ["dorroh", "--ring", "Q"],
    ["dorroh", "--ring", "Z3", "--window", "0"],
    [],
    ["frobnicate"],
]


def run(argv):
    """(exit code, stdout, stderr) of ``cli.main`` with fixture paths hidden."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([a.replace(F, FIXTURES + "/") for a in argv])
    stderr = err.getvalue().replace(FIXTURES + "/", F)
    if stderr.startswith("usage:"):
        # argparse words its usage and messages differently across Python
        # versions; keep the line that names the failing command
        stderr = stderr.splitlines()[-1].partition(" error:")[0] + " error: ..."
    return {"argv": argv, "code": code,
            "stdout": out.getvalue().replace(FIXTURES + "/", F), "stderr": stderr}


def _golden():
    return {json.dumps(g["argv"]): g for g in json.loads(GOLDEN.read_text())}


def _name(argv):
    return " ".join(argv) or "<none>"


def test_every_verb_and_exit_code_is_covered():
    golden = _golden()
    assert sorted(golden) == sorted(json.dumps(argv) for argv in CASES)
    verbs = {g["argv"][0] for g in golden.values() if g["argv"] and g["code"] != 2}
    assert verbs == {"reduce", "coproduct", "extend", "retract", "quotient", "abs",
                     "verify", "table", "basis", "dorroh"}
    assert {g["code"] for g in golden.values()} == {0, 1, 2}


@pytest.mark.parametrize("argv", CASES, ids=_name)
def test_output_matches_the_golden(argv):
    assert run(argv) == _golden()[json.dumps(argv)]


def test_the_shared_parser_keeps_no_state_between_calls(monkeypatch):
    """One parser serves every call in the process: the goldens hold when
    they run forward and then in reverse, after a usage error and a --help
    that fall between the runs, and the parser is built once."""
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    golden = _golden()
    for argv in CASES:
        assert run(argv) == golden[json.dumps(argv)], _name(argv)
    usage = run(["verify", "--samples"])
    assert usage["code"] == 2 and usage["stdout"] == ""
    assert usage["stderr"] == "trusskit verify: error: ..."
    helped = run(["--help"])
    assert helped["code"] == 0 and helped["stderr"] == ""
    assert helped["stdout"].startswith("usage: trusskit")
    for argv in reversed(CASES):
        assert run(argv) == golden[json.dumps(argv)], _name(argv)
    assert run(["--help"]) == helped and run(["verify", "--samples"]) == usage
    assert built == [1]


def test_a_verb_patched_after_the_first_call_is_the_one_that_runs(monkeypatch):
    """Dispatch looks ``cmd_<verb>`` up when the call runs, so a parser built
    before a patch (a test's, or the layer tracer's) does not hold the old
    function."""
    assert run(["reduce", "--free", "a a b"])["stdout"] == "b\n"
    parser = cli._PARSER
    seen = []
    monkeypatch.setattr(cli, "cmd_reduce", lambda args: seen.append(args.expr) or (1, "patched"))
    assert run(["reduce", "--free", "a a b"]) == {
        "argv": ["reduce", "--free", "a a b"], "code": 1, "stdout": "patched\n", "stderr": ""}
    assert seen == ["a a b"] and cli._PARSER is parser
    monkeypatch.undo()
    assert run(["reduce", "--free", "a a b"])["stdout"] == "b\n"


if __name__ == "__main__":
    old, new = _golden(), [run(argv) for argv in CASES]
    for g in new:
        was = old.pop(json.dumps(g["argv"]), None)
        if was != g:
            print("added" if was is None else "changed", _name(g["argv"]))
    for g in old.values():
        print("removed", _name(g["argv"]))
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n")
