"""The JSON encoding of reports against the encoding it replaced.

``reports._plain`` reads a dataclass field by field in the same walk.  The
oracle is the earlier encoding, which turned a dataclass into
``dataclasses.asdict(value)`` (a deep copy) and walked that copy again; every
report must encode byte for byte as it did.  ``CoproductElement`` was a
dataclass then and is a named tuple now, so the oracle turns a named tuple
into its ``_asdict()`` before its tuple branch, as the dataclass was turned.
"""

import contextlib
import dataclasses
import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from trusskit import reports
from trusskit.coproduct import CoproductElement
from trusskit.modules import basis_check, free_module, free_set_check
from trusskit.reports import FAIL, Finding, Report, _plain
from trusskit.trusses import FiniteTruss, truss_TZn, unital_extension, validate_truss

from test_cli_golden import CASES, _golden, run


def asdict_plain(value):
    """The encoding before ``_plain`` read dataclasses field by field."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        return asdict_plain(value._asdict())
    if isinstance(value, (list, tuple)):
        return [asdict_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): asdict_plain(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return asdict_plain(dataclasses.asdict(value))
    return str(value)


@contextlib.contextmanager
def old_encoding():
    plain = reports._plain
    reports._plain = asdict_plain
    try:
        yield
    finally:
        reports._plain = plain


def assert_encoded_as_before(report):
    new = report.to_json()
    with old_encoding():
        old = report.to_json()
    assert new == old, report.subject


def holds(value, cls):
    """Whether a finding or a stats value holds an instance of cls."""
    if isinstance(value, cls):
        return True
    if isinstance(value, (list, tuple)):
        return any(holds(v, cls) for v in value)
    if isinstance(value, dict):
        return any(holds(k, cls) or holds(v, cls) for k, v in value.items())
    if isinstance(value, Finding):
        return holds([value.at, value.lhs, value.rhs], cls)
    return False


def test_every_report_the_cli_goldens_print_encodes_as_before(monkeypatch):
    printed, to_json = [], Report.to_json
    monkeypatch.setattr(Report, "to_json",
                        lambda self: printed.append(self) or to_json(self))
    for argv in CASES:
        run(argv)
    monkeypatch.undo()
    assert len(printed) == sum(g["argv"][:1] in (["verify"], ["basis"], ["dorroh"])
                               and g["code"] < 2 for g in _golden().values())
    assert any(holds(r.findings, CoproductElement) for r in printed)
    for report in printed:
        assert_encoded_as_before(report)


@dataclasses.dataclass(frozen=True)
class Pair:
    left: object
    right: object = None


def test_findings_with_coproduct_elements_nested_tuples_and_odd_stats_keys():
    fm = free_module(truss_TZn(3), 2)
    bad_base = FiniteTruss(truss_TZn(3).heap, ((0, 0, 0), (0, 1, 2), (0, 2, 2)))
    p = CoproductElement((0, 1), (2, -3))
    built = Report("built", FAIL, [
        Finding("nested", (p, ((1, 2), (3, (4, p)))), lhs={(1, 2): p, 3: [p]},
                rhs=Pair({"k": (p, None), 7: Fraction(1, 3)}, Pair([True, -1]))),
        Finding("plain", (), lhs=0, rhs="x", note="n")],
        stats={1: "a", 10: {(0, 1): 2, "k": [1, (2, 3)]}, 2: None, "s": True,
               p: Pair(p, {(1, 2): (p,)}), Fraction(2, 3): 1.5})
    made = [free_set_check(fm, fm.generators() * 2),
            basis_check(fm, fm.generators()[:1]), validate_truss(unital_extension(bad_base)),
            built]
    assert all(holds(r.findings, CoproductElement) for r in made)
    for report in made:
        assert_encoded_as_before(report)


leaves = (st.none() | st.booleans() | st.integers(-10 ** 6, 10 ** 6) | st.text(max_size=3)
          | st.fractions(max_denominator=9) | st.floats(allow_nan=True))
keys = st.integers(-20, 20) | st.text(max_size=2) | st.tuples(st.integers(0, 3), st.integers(0, 3))
coproduct_elements = st.builds(lambda c, t: CoproductElement(tuple(c), tuple(t)),
                               st.lists(st.integers(0, 5), max_size=3),
                               st.lists(st.integers(-5, 5), max_size=3))
values = st.recursive(
    leaves | coproduct_elements,
    lambda inner: (st.lists(inner, max_size=3) | st.tuples(inner, inner)
                   | st.dictionaries(keys, inner, max_size=3) | st.builds(Pair, inner, inner)),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(values, values, st.dictionaries(keys, values, max_size=3))
def test_any_value_encodes_as_before(at, lhs, stats):
    assert json.dumps(_plain(lhs), sort_keys=True) == json.dumps(asdict_plain(lhs), sort_keys=True)
    assert_encoded_as_before(Report("drawn", FAIL, [Finding("law", (at,), lhs, at)], stats))
