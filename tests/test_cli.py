"""The trusskit command line: exit codes and the verify options."""

import io
import json
import sys

import pytest

from trusskit import cli, serialize
from trusskit.core import FiniteGroup, heap_from_group
from trusskit.trusses import FiniteTruss, integer_truss


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
    code, out, _ = run(["verify", files["tz"]], capsys)
    assert code == 0 and json.loads(out)["stats"]["checked"] == 3 * 10_000
    # the identity and absorber laws cover the default window -5..5
    by_law = json.loads(out)["stats"]["checked_by_law"]
    assert by_law["identity law"] == by_law["absorber law"] == 11
    code, out, _ = run(["verify", "--samples", "7", files["tz"]], capsys)
    assert code == 0 and json.loads(out)["stats"]["checked"] == 3 * 7


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
    assert "distributivity" not in json.loads(out)["stats"]
