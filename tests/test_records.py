"""Value semantics of the package's records: equality and hash of the
field tuple within one class, a ``Name(field=value, ...)`` repr, positional
and keyword construction with defaults, no assignment, pickling through the
constructor; a weakly referenceable ``SemigroupTable``; and a CLI start-up
that loads neither ``dataclasses`` nor ``inspect``."""

import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import schroeder
from schroeder import (
    AbundanceReport,
    EqPartition,
    Family,
    FamilySpec,
    RankResult,
)
from schroeder._record import Record
from schroeder.families import Census
from schroeder.green import target_table

# each record with its repr
RECORDS = [
    (FamilySpec(Family.IDEAL_K, 5, 2), "FamilySpec(kind=<Family.IDEAL_K: 'ideal'>, n=5, p=2)"),
    (FamilySpec(kind=Family.SS_PRIME, n=4), "FamilySpec(kind=<Family.SS_PRIME: 'ss-prime'>, n=4, p=None)"),
    (Census(3, (1, 1), (1, 2)), "Census(order=3, kernels=(1, 1), images=(1, 2))"),
    (EqPartition.from_keys("abab"), "EqPartition(class_id=(0, 1, 0, 1), classes=((0, 2), (1, 3)))"),
    (
        RankResult(2, frozenset({0, 1}), True, (0, 1)),
        "RankResult(rank=2, essential=frozenset({0, 1}), certified=True, generating_set=(0, 1), notes='')",
    ),
    (
        RankResult(rank=None, essential=frozenset(), certified=False, generating_set=(),
                   notes="lower bound 3"),
        "RankResult(rank=None, essential=frozenset(), certified=False, generating_set=(), "
        "notes='lower bound 3')",
    ),
    (
        AbundanceReport(True, False, (1, 1), (2, 3)),
        "AbundanceReport(right_abundant=True, left_abundant=False, "
        "rstar_idempotent_counts=(1, 1), lstar_witness=(2, 3))",
    ),
]


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


@pytest.mark.parametrize("record, text", RECORDS, ids=lambda x: type(x).__name__)
def test_record_value_semantics(record, text):
    cls, values = type(record), _fields(record)
    assert repr(record) == text
    same = cls(*values)
    assert same == record and not same != record
    assert hash(same) == hash(record) == hash(values)
    assert cls(**dict(zip(record._fields, values))) == record
    # a record is no tuple: it equals none, and has no items to unpack
    assert record != values
    with pytest.raises(TypeError):
        iter(record)

    class Twin(cls):
        __slots__ = ()

    assert Twin(*values) != record and record != Twin(*values)
    assert pickle.loads(pickle.dumps(record)) == record
    for name in (record._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert not hasattr(record, "__dict__")


def test_records_differ_across_classes():
    class Pair(Record):
        __slots__ = _fields = ("class_id", "classes")

    values = ((0,), ((0,),))
    assert Pair(*values) != EqPartition(*values) and EqPartition(*values) != Pair(*values)
    assert len({Pair(*values), EqPartition(*values), values}) == 3


def test_record_defaults():
    assert FamilySpec(Family.SS_PRIME, 4).p is None
    assert FamilySpec(Family.SS_PRIME, 4) == FamilySpec(Family.SS_PRIME, 4, None)
    assert RankResult(1, frozenset({0}), True, (0,)).notes == ""
    with pytest.raises(TypeError):
        RankResult(1, frozenset({0}), True)
    with pytest.raises(TypeError):
        Census(1, (1,), (1,), (1,))


@pytest.mark.parametrize("kind, n, p", [
    (Family.SS_PRIME, 1, None), (Family.IDEAL_K, 5, None), (Family.JSTAR_SLICE, 5, 5),
    (Family.SS_PRIME, 4, -1),
])
def test_family_spec_checks_at_construction(kind, n, p):
    with pytest.raises(ValueError):
        FamilySpec(kind, n, p)
    with pytest.raises(ValueError):
        FamilySpec(kind=kind, n=n, p=p)


def test_semigroup_table_is_weakly_referenceable():
    t = target_table(3, "ss-prime")
    ref = weakref.ref(t)
    assert ref() is t
    assert t._tables is t._classes is t._rows is t._gens is t._right is t._left is None
    del t
    assert ref() is None


def test_cli_import_loads_no_dataclasses_or_inspect():
    # importing dataclasses pulls in inspect, ast, dis and tokenize, a cost
    # every command would pay at start-up
    src = str(Path(schroeder.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, schroeder.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
