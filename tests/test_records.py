"""The immutable records: Descriptor, OracleEntry and OracleResult.

These pin what callers see of a record (equality, hash, repr text,
immutability, Descriptor validation) and the catalog order built from
Descriptors, whatever class implements them.
"""

import hashlib

import pytest

from topoidx.indices import Descriptor, registry_names
from topoidx.oracles import _ENTRIES, OracleEntry, OracleResult, run_verification

# (record, its repr text, a record differing in one field)
RECORDS = [
    (Descriptor("kv", 3, "general", "product", "exponential"),
     "Descriptor(source='kv', variant=3, transform='general', aggregation='product', "
     "form='exponential')",
     Descriptor("kv", 3, "general", "product", "value")),
    (OracleEntry("RL4/wheel", "wheel", "RL4", "3n^2|n-3|", "n >= 3"),
     "OracleEntry(id='RL4/wheel', family='wheel', index='RL4', formula_text='3n^2|n-3|', "
     "range_text='n >= 3')",
     OracleEntry("RL4/wheel", "wheel", "RL4", "3n^2|n-3|", "n >= 4")),
    (OracleResult("RL1/wheel", (("n", 3),), "162/1", "162/1", "CONFIRMED"),
     "OracleResult(oracle_id='RL1/wheel', params=(('n', 3),), oracle_value='162/1', "
     "direct_value='162/1', verdict='CONFIRMED')",
     OracleResult("RL1/wheel", (("n", 4),), "162/1", "162/1", "CONFIRMED")),
]


FIELDS = {
    Descriptor: ("source", "variant", "transform", "aggregation", "form"),
    OracleEntry: ("id", "family", "index", "formula_text", "range_text"),
    OracleResult: ("oracle_id", "params", "oracle_value", "direct_value", "verdict"),
}


def _fields(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


@pytest.mark.parametrize("record, text, other", RECORDS)
class TestRecordSemantics:
    def test_equality(self, record, text, other):
        twin = type(record)(*_fields(record))
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)
        assert other != record

    def test_hash_is_field_tuple_hash(self, record, text, other):
        assert hash(record) == hash(_fields(record))

    def test_repr(self, record, text, other):
        assert repr(record) == text

    def test_immutable(self, record, text, other):
        with pytest.raises(AttributeError):
            setattr(record, FIELDS[type(record)][0], "x")
        with pytest.raises(AttributeError):
            record.extra = 1


def test_records_built_by_the_program():
    assert _ENTRIES["RL4/wheel"] == RECORDS[1][0]
    assert run_verification(ids=["RL1/wheel"], lo=3, hi=3) == [RECORDS[2][0]]


@pytest.mark.parametrize("field, value, message", [
    ("source", "x", "bad source 'x'"),
    ("variant", 9, "bad variant 9"),
    ("transform", "foo", "bad transform 'foo'"),
    ("aggregation", "max", "bad aggregation 'max'"),
    ("form", "poly", "bad form 'poly'"),
])
def test_descriptor_validation(field, value, message):
    fields = dict(source="plain", variant=1, transform="identity", aggregation="sum", form="value")
    assert Descriptor(**fields).name == "RL1"
    with pytest.raises(ValueError) as info:
        Descriptor(**dict(fields, **{field: value}))
    assert str(info.value) == message


def test_registry_order_pinned():
    names = registry_names()
    assert len(names) == 448
    assert names[:4] == ["RL1", "RL1exp", "MRL1", "MRL1exp"]
    assert names[-2:] == ["MGNRL4", "MGNRL4exp"]
    digest = hashlib.sha256(",".join(names).encode()).hexdigest()
    assert digest == "741a72a0ceb952a98673b97e167b8990ffbe66da6f682e814cc035fdea517ac9"
