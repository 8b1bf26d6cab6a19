"""The trusskit command line: exit codes and the verify options."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trusskit import cli, serialize
from trusskit.core import FiniteGroup, heap_from_group
from trusskit.trusses import FiniteTruss, integer_truss

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
                          "absorber", "exhaustive", "unit_laws", "distributivity"}
    assert stats["distributivity"]["algorithm"] == "morphism rows"
    assert stats["distributivity"]["swept"]
    code, out, _ = run(["verify", files["tz"]], capsys)
    assert json.loads(out)["stats"]["distributivity"] == \
        {"algorithm": "morphism rows", "swept": []}


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


def test_python_dash_m_runs_the_command_line():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def main(*argv):
        return subprocess.run([sys.executable, "-m", "trusskit", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    no_verb = main()
    assert no_verb.returncode == 2 and no_verb.stdout == ""
    assert "usage:" in no_verb.stderr and "Traceback" not in no_verb.stderr
    dorroh = main("dorroh", "--ring", "Z2")
    assert dorroh.returncode == 0 and dorroh.stderr == ""
    assert json.loads(dorroh.stdout)["stats"]["checked"] == 16
