"""The trusskit command line: exit codes and the verify options."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trusskit import cli, serialize
from trusskit.coproduct import DirectSum
from trusskit.core import FiniteGroup, StructureError, heap_from_group
from trusskit.trusses import FiniteTruss, double_extension, integer_truss, unital_extension

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        return str(path)

    c20 = heap_from_group(FiniteGroup.cyclic(20))
    bad = json.loads(serialize.dumps(c20))
    bad["table"][0][1][2] = 0  # [0,1,2] is 1
    c3 = heap_from_group(FiniteGroup.cyclic(3))
    not_distributive = FiniteTruss(c3, [[max(a, b) for b in range(3)] for a in range(3)])
    return {
        "tz": write("tz", serialize.dumps(integer_truss())),
        "max_c3": write("max_c3", serialize.dumps(not_distributive)),
        "c20": write("c20", serialize.dumps(c20)),
        "c20_bad": write("c20_bad", json.dumps(bad)),
    }


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_non_positive_samples(samples, files, capsys):
    code, out, err = run(["verify", "--samples", samples, files["tz"]], capsys)
    assert (code, out) == (2, "")
    assert "samples must be positive" in err


def test_verify_samples_default_and_explicit(files, capsys):
    # the integer truss is decided on its frame {0, 1}; --samples governs
    # only carriers without a frame, which no structure file describes
    code, out, _ = run(["verify", files["tz"]], capsys)
    stats = json.loads(out)["stats"]
    assert code == 0 and stats["frame"] == 2 and stats["checked"] == 2 ** 3 + 2 * 2 ** 4
    assert stats["checked_by_law"]["identity law"] == stats["checked_by_law"]["absorber law"] == 2
    code, explicit, _ = run(["verify", "--samples", "7", files["tz"]], capsys)
    assert code == 0 and explicit == out


@pytest.mark.parametrize("flag", ["--exhaustive", "--threads=2"])
def test_verify_has_no_gate_or_thread_flags(flag, files, capsys):
    assert run(["verify", flag, files["c20"]], capsys)[0] == 2


def test_heap_above_sixteen_elements_is_decided(files, capsys):
    code, out, _ = run(["verify", files["c20"]], capsys)
    assert code == 0 and json.loads(out)["status"] == "pass"
    assert json.loads(out)["stats"] == {"size": 20, "associativity": {
        "algorithm": "retract", "basepoint": 0, "candidates": 0, "dirty": 0}}
    code, out, err = run(["verify", files["c20_bad"]], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: not a heap: heap associativity")


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv, code", [(["table", "c20"], 0), (["verify", "max_c3"], 1)])
def test_closed_stdout_keeps_the_exit_code_and_a_silent_stderr(argv, code, files, capsys,
                                                               monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert cli.main([argv[0], files[argv[1]]]) == code
    assert not isinstance(sys.stdout, ClosedPipe)   # now os.devnull
    print("dropped")
    sys.stdout.close()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("mode", ["--abelian", "--free"])
def test_reduce_at_nesting_depth_5000(mode, capsys):
    text = "[" * 5000 + "a" + ", b, c]" * 5000
    code, out, err = run(["reduce", mode, "--json", text], capsys)
    assert (code, err) == (0, "")
    if mode == "--abelian":
        assert json.loads(out) == {"coeffs": {"a": 1, "b": -5000, "c": 5000}}
    else:
        assert json.loads(out) == {"word": ["a"] + ["b", "c"] * 5000}


def test_verify_reports_how_distributivity_was_decided(files, capsys):
    code, out, _ = run(["verify", files["max_c3"]], capsys)
    stats = json.loads(out)["stats"]
    assert code == 1
    assert set(stats) == {"checked", "checked_by_law", "unital", "ring_type", "identity",
                          "absorber", "exhaustive", "unit_laws", "distributivity",
                          "associativity"}
    assert stats["distributivity"]["algorithm"] == "morphism rows"
    assert stats["distributivity"]["swept"]
    assert stats["associativity"]["algorithm"] == "sweep"
    code, out, _ = run(["verify", files["tz"]], capsys)
    assert json.loads(out)["stats"]["distributivity"] == \
        {"algorithm": "morphism rows", "swept": []}
    assert json.loads(out)["stats"]["associativity"] == \
        {"algorithm": "frame triples", "evaluated": 8}


@pytest.mark.parametrize("token, code", [("1", 1), ("-2,0", 1), ("x", 2), ("1.5", 2), ("g0", 2)])
def test_basis_takes_integer_candidates_of_the_integer_module(token, code, capsys):
    path = str(FIXTURES / "module_ztrivial.json")
    got, out, err = run(["basis", f"--candidates={token}", path], capsys)
    # t.m = m identifies every pair of scalars, so no family is free
    assert got == code and (json.loads(out)["status"] == "fail" if code == 1 else
                            out == "" and "integers" in err)


def test_basis_candidates_that_start_with_a_minus_need_the_equals_form(capsys):
    path = str(FIXTURES / "module_ztrivial.json")
    code, out, _ = run(["basis", "--candidates=-1,2", path], capsys)
    assert code == 1 and json.loads(out)["status"] == "fail"
    # argparse reads "-1,2" after a space as an option, not as the list
    code, out, err = run(["basis", "--candidates", "-1,2", path], capsys)
    assert code == 2 and out == "" and "--candidates" in err and "Traceback" not in err
    code, out, _ = run(["basis", "--help"], capsys)
    assert code == 0 and "--candidates=-1,2" in out


EDGE_DOCUMENTS = {
    "ext_list_basepoint": {"kind": "truss", "extension": "one", "basepoint": [1],
                           "base": {"kind": "truss", "builtin": "TZ"}},
    "ext_str_basepoint": {"kind": "truss", "extension": "one", "basepoint": "a",
                          "base": {"kind": "truss", "builtin": "TZ"}},
    "ext_bool_basepoint": {"kind": "truss", "extension": "one", "basepoint": True,
                           "base": {"kind": "truss", "builtin": "TZ"}},
    "free_bool_basepoint": {"kind": "free-module", "generators": 2, "basepoint": True,
                            "truss": {"kind": "truss", "builtin": "TZn", "n": 3}},
    "empty_group": {"kind": "group", "table": []},
    "tzn_negative": {"kind": "truss", "builtin": "TZn", "n": -2},
    "empty_truss": {"kind": "truss", "heap": {"kind": "heap", "table": []}, "mul": []},
}


@pytest.mark.parametrize("argv", [
    ["extend", "--unital", "--builtin", "TZ0"],
    ["dorroh", "--ring", "Z0"],
    ["verify", "ext_list_basepoint"],
    ["verify", "ext_str_basepoint"],
    ["verify", "ext_bool_basepoint"],
    ["verify", "free_bool_basepoint"],
    ["table", "empty_group"],
    ["verify", "empty_group"],
    ["verify", "tzn_negative"],
], ids=" ".join)
def test_empty_and_zero_order_inputs_are_usage_errors(argv, tmp_path, capsys):
    for name in set(argv) & set(EDGE_DOCUMENTS):
        (tmp_path / name).write_text(json.dumps(EDGE_DOCUMENTS[name]))
    code, out, err = run([str(tmp_path / a) if a in EDGE_DOCUMENTS else a for a in argv], capsys)
    assert (code, out) == (2, "") and err.startswith("error:") and "Traceback" not in err


def test_the_empty_truss_has_an_empty_table(tmp_path, capsys):
    path = tmp_path / "empty_truss.json"
    path.write_text(json.dumps(EDGE_DOCUMENTS["empty_truss"]))
    code, out, err = run(["table", str(path)], capsys)
    assert (code, out, err) == (0, "  | \n----\n", "")


def test_an_extension_table_makes_each_base_product_once(monkeypatch, capsys):
    """T0(T1(TC2)) at window 2 shows 50 x 50 cells, whose components come
    from 2 elements of TC2.  Cell by cell, each cell makes 3 products of
    T1(TC2) and so 9 of TC2 (22 504 in all); tabulated, the table makes 4,
    and building the two extensions 4 more."""
    products = []
    mul = FiniteTruss.mul
    monkeypatch.setattr(FiniteTruss, "mul", lambda t, a, b: products.append((a, b)) or mul(t, a, b))
    code, out, err = run(["extend", "--both", "--builtin", "TC2", "table", "--window", "2"], capsys)
    assert (code, err) == (0, "") and len(out.splitlines()) == 2 + 50
    assert len(products) <= 16


@pytest.mark.parametrize("window, bound", [(2, 2000), (4, 20000)])
def test_an_extension_table_adds_each_distinct_cell_once(window, bound, monkeypatch, capsys):
    """The outer extension of T0(T1(TC2)) computes on the carrier of
    T1(TC2), a direct sum.  In row form each row makes one A per
    component and one M per tail of the columns, and each distinct sum
    [A, e, M] is one ternary: 1 229 direct-sum ternaries at window 2 and
    11 873 at window 4, where three shifts per cell made 5 400 and 99 144."""
    calls, ternary = [], DirectSum.ternary
    monkeypatch.setattr(DirectSum, "ternary",
                        lambda ds, x, y, z: calls.append(1) or ternary(ds, x, y, z))
    argv = ["extend", "--both", "--builtin", "TC2", "table", "--window", str(window)]
    code, out, err = run(argv, capsys)
    side = 2 * (2 * window + 1) ** 2
    assert (code, err) == (0, "") and len(out.splitlines()) == 2 + side
    assert len(calls) <= bound


TABLE_TRUSSES = ["TZ", "Zc3", "TC2", "TZ3", "truss_t1_tz.json", "truss_t1_bad.json",
                 "truss_tz4.json"]


@pytest.mark.parametrize("spec, extend", [
    *[(spec, None) for spec in TABLE_TRUSSES + ["ring_z4.json", "group_z4.json"]],
    *[(spec, ext) for spec in TABLE_TRUSSES for ext in (unital_extension, double_extension)]])
def test_a_table_counts_its_elements_before_it_builds_them(spec, extend):
    """The count that bounds a table before it is built is the number of
    elements the table then shows, at windows 1 and 2, or the table is
    refused."""
    structure = (serialize.load_path(str(FIXTURES / spec)) if spec.endswith(".json")
                 else cli.parse_builtin_truss(spec))
    if extend is not None:
        structure = extend(structure)
    for window in (1, 2):
        size = (structure.size if isinstance(structure, FiniteGroup)
                else cli._sample_size(structure.heap, window))
        if size * size > cli.MAX_TABLE_CELLS:
            with pytest.raises(StructureError, match=f"would have {size * size} cells"):
                cli._table_form(structure, window)
        else:
            assert len(cli._table_form(structure, window)[1]) == size, window


def test_a_table_over_the_cell_bound_is_refused_before_it_is_built(monkeypatch, capsys):
    """Over ``MAX_TABLE_CELLS`` a table exits 2, naming its cells and the
    largest window that fits, with no product made past the 4 that build
    T1 and T0 of TC2; a finite table over the bound fits at no window."""
    products = []
    mul = FiniteTruss.mul
    monkeypatch.setattr(FiniteTruss, "mul", lambda t, a, b: products.append((a, b)) or mul(t, a, b))
    monkeypatch.setattr(cli, "MAX_TABLE_CELLS", 2500)
    code, out, err = run(["extend", "--both", "--builtin", "TC2", "table", "--window", "3"], capsys)
    assert (code, out) == (2, "") and len(products) <= 4
    assert err == ("error: the table would have 9604 cells, more than 2500;"
                   " the largest window that fits is 2\n")
    monkeypatch.setattr(cli, "MAX_TABLE_CELLS", 15)
    code, out, err = run(["table", str(FIXTURES / "ring_z4.json")], capsys)
    assert (code, out) == (2, "")
    assert err == "error: the table would have 16 cells, more than 15; no window fits\n"


def test_python_dash_m_runs_the_command_line(capsys):
    assert cli.main(["reduce", "--free", "a b b"]) == 0
    in_process = capsys.readouterr().out
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def main(module, *argv):
        return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    # the package's __main__ and the cli module run as a script
    for module in ("trusskit", "trusskit.cli"):
        no_verb = main(module)
        assert no_verb.returncode == 2 and no_verb.stdout == "", module
        assert "usage:" in no_verb.stderr and "Traceback" not in no_verb.stderr, module
        dorroh = main(module, "dorroh", "--ring", "Z2")
        assert dorroh.returncode == 0 and dorroh.stderr == "", module
        assert json.loads(dorroh.stdout)["stats"]["checked"] == 16, module
        reduce = main(module, "reduce", "--free", "a b b")
        assert (reduce.returncode, reduce.stdout, reduce.stderr) == (0, in_process, ""), module
        unknown = main(module, "frobnicate")
        assert unknown.returncode == 2 and unknown.stdout == "", module
        assert "invalid choice" in unknown.stderr and "Traceback" not in unknown.stderr, module


def test_an_element_is_a_name_else_a_numeric_id(tmp_path, capsys):
    c3 = FiniteGroup(FiniteGroup.cyclic(3).op_table(), names=("a", "b", "c"))
    path = tmp_path / "abc.json"
    path.write_text(serialize.dumps(heap_from_group(c3)))
    by_name = run(["retract", str(path), "--at", "c"], capsys)
    by_id = run(["retract", str(path), "--at", "2"], capsys)
    assert by_name == by_id and by_id[0] == 0 and by_id[2] == ""
    code, out, err = run(["retract", str(path), "--at", "z"], capsys)
    assert (code, out) == (2, "") and "unknown element 'z'" in err


@pytest.mark.parametrize("members, abelian", [([0, 1, 2], True), ([0], False)])
def test_the_quotient_of_s3_is_flagged_abelian_exactly_when_it_is(members, abelian, tmp_path,
                                                                  capsys):
    by = tmp_path / "sub.json"
    by.write_text(json.dumps({"kind": "subheap", "members": members}))
    code, out, err = run(["quotient", "--by", str(by), str(FIXTURES / "heap_s3.json")], capsys)
    quotient = json.loads(out)["quotient"]
    assert (code, err, len(quotient["names"])) == (0, "", 6 // len(members))
    assert quotient["abelian"] is abelian


def contract_argvs(path):
    """Each verb that reads a structure file, run on ``path`` (only read)."""
    c4, sub = str(FIXTURES / "heap_c4.json"), str(FIXTURES / "subheap_c4.json")
    return [
        ["verify", path],
        ["table", "--window", "1", path],
        ["abs", path],
        ["basis", "--candidates", "1", path],
        ["retract", "--at", "0", path],
        ["quotient", "--by", sub, path],
        ["quotient", "--by", path, c4],
        ["extend", "--unital", path],
        ["extend", "--both", path, "table", "--window", "1"],
        ["coproduct", path, c4, "--word", "A:0 B:1"],
        ["dorroh", "--ring", path, "--window", "1"],
    ]


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_every_verb_keeps_the_exit_code_contract_on_every_fixture(name, capsys):
    """Exit 0, 1 or 2 and no exception out of ``cli.main``, whatever the
    file holds; exit 2 prints nothing but one ``error:`` line."""
    for argv in contract_argvs(str(FIXTURES / name)):
        code, out, err = run(argv, capsys)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
        else:
            assert err == "", argv
