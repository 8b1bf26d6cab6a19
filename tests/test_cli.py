"""The trusskit command line: exit codes and the verify options."""

import json

import pytest

from trusskit import cli, serialize
from trusskit.core import FiniteGroup, heap_from_group
from trusskit.trusses import integer_truss


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        return str(path)

    c20 = heap_from_group(FiniteGroup.cyclic(20))
    bad = json.loads(serialize.dumps(c20))
    bad["table"][0][1][2] = 0  # [0,1,2] is 1
    return {
        "tz": write("tz", serialize.dumps(integer_truss())),
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
    code, out, _ = run(["verify", "--samples", "7", files["tz"]], capsys)
    assert code == 0 and json.loads(out)["stats"]["checked"] == 3 * 7


@pytest.mark.parametrize("flag", ["--exhaustive", "--threads=2"])
def test_verify_has_no_gate_or_thread_flags(flag, files, capsys):
    assert run(["verify", flag, files["c20"]], capsys)[0] == 2


def test_heap_above_sixteen_elements_is_decided(files, capsys):
    code, out, _ = run(["verify", files["c20"]], capsys)
    assert code == 0 and json.loads(out)["status"] == "pass"
    code, out, err = run(["verify", files["c20_bad"]], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: not a heap: heap associativity")
