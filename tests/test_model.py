"""Tests for the data model: schemas, sort specs, tables, Desc wrapper."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.model import (
    Desc,
    Schema,
    SortColumn,
    SortSpec,
    Table,
    normalize_value,
)


class TestSchema:
    def test_lookup(self):
        s = Schema.of("A", "B")
        assert s.index_of("B") == 1
        assert s.indices_of(["B", "A"]) == (1, 0)
        assert "A" in s and "X" not in s
        assert len(s) == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema.of("A", "A")

    def test_missing_column(self):
        with pytest.raises(KeyError):
            Schema.of("A").index_of("B")

    def test_numbered(self):
        assert Schema.numbered("c", 3).columns == ("c0", "c1", "c2")


class TestSortSpec:
    def test_parsing_desc_suffix(self):
        spec = SortSpec.of("A", "B DESC", "C ASC")
        assert spec.directions == (True, False, True)
        assert spec.names == ("A", "B", "C")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            SortSpec.of("A", "A DESC")

    def test_satisfies_prefix(self):
        assert SortSpec.of("A", "B").satisfies(SortSpec.of("A"))
        assert not SortSpec.of("A").satisfies(SortSpec.of("A", "B"))
        assert not SortSpec.of("A DESC").satisfies(SortSpec.of("A"))

    def test_common_prefix(self):
        a = SortSpec.of("A", "B", "C")
        b = SortSpec.of("A", "B", "X")
        assert a.common_prefix_len(b) == 2

    def test_slicing(self):
        spec = SortSpec.of("A", "B", "C")
        assert spec.prefix(2).names == ("A", "B")
        assert spec.suffix(1).names == ("B", "C")
        assert spec[1:].names == ("B", "C")
        assert spec[0] == SortColumn("A")

    def test_key_for_descending(self):
        schema = Schema.of("A", "B")
        key = SortSpec.of("A DESC", "B").key_for(schema)
        rows = [(1, 5), (2, 1), (2, 3)]
        assert sorted(rows, key=key) == [(2, 1), (2, 3), (1, 5)]

    def test_hash_and_eq(self):
        assert SortSpec.of("A", "B") == SortSpec.of("A", "B")
        assert hash(SortSpec.of("A")) == hash(SortSpec.of("A"))
        assert SortSpec.of("A") != SortSpec.of("A DESC")

    def test_a_spec_is_a_value(self):
        # ``Query.order_by`` shares one spec between all requests for
        # an order, so no request may change it for the others.
        from repro import Query

        schema = Schema.of("A", "B")
        spec = Query(Table(schema, [(1, 2)])).order_by("A", "B").ordering
        for name in ("columns", "names", "label", "_hash", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, "X")
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(spec, name)
        again = Query(Table(schema, [(2, 1)])).order_by("A", "B").ordering
        assert again.label == "A,B" and again.names == ("A", "B")

    def test_names_and_label_survive_pickle(self):
        spec = SortSpec.of("A", "B DESC", "C")
        assert spec.names == ("A", "B", "C")
        assert spec.label == "A,B DESC,C"
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and hash(back) == hash(spec)
        assert (back.names, back.label) == (spec.names, spec.label)
        assert spec.prefix(2).label == "A,B DESC"


class TestDesc:
    def test_inverted_order(self):
        assert Desc("b") < Desc("a")
        assert Desc("a") > Desc("b")
        assert Desc("a") == Desc("a")
        assert Desc("a") != Desc("b")

    def test_normalize_round_trip(self):
        # Normalized values sort in the column's direction: the order
        # of any two values is kept ascending and inverted descending.
        for lo, hi in ((5, 7), ("x", "y"), (3.5, 4.0), (False, True)):
            for asc in (True, False):
                a, b = normalize_value(lo, asc), normalize_value(hi, asc)
                assert (a < b) == asc and (b < a) != asc

    def test_normalize_int_fast_path(self):
        assert normalize_value(5, False) == -5
        # A bool is the int it equals: ``True`` ties with ``1``.
        for value in (True, False):
            got = normalize_value(value, False)
            assert got == -int(value) and type(got) is int

    def test_sorting_strings_descending(self):
        values = ["pear", "apple", "fig"]
        got = sorted(values, key=lambda v: normalize_value(v, False))
        assert got == ["pear", "fig", "apple"]


class TestTable:
    def test_validation(self):
        schema = Schema.of("A")
        with pytest.raises(ValueError):
            Table(schema, [(1,)], SortSpec.of("A"), ovcs=[])
        with pytest.raises(KeyError):
            Table(schema, [], SortSpec.of("B"))

    def test_is_sorted(self):
        schema = Schema.of("A")
        assert Table(schema, [(1,), (2,)], SortSpec.of("A")).is_sorted()
        assert not Table(schema, [(2,), (1,)], SortSpec.of("A")).is_sorted()
        with pytest.raises(ValueError):
            Table(schema, [(1,)]).is_sorted()

    def test_with_ovcs_derives_once(self):
        schema = Schema.of("A")
        table = Table(schema, [(1,), (1,), (2,)], SortSpec.of("A"))
        coded = table.with_ovcs()
        assert table.ovcs is None  # the source is left as it was
        assert coded.ovcs == ((0, 1), (1, 0), (0, 2))
        assert coded.rows is table.rows and coded.sort_spec == table.sort_spec
        assert table.with_ovcs() is coded  # not re-derived
        assert coded.with_ovcs() is coded

    def test_a_table_is_a_value(self):
        schema = Schema.of("A")
        table = Table(schema, [(1,), (2,)], SortSpec.of("A"), [(0, 1), (0, 2)])
        assert type(table.rows) is tuple and type(table.ovcs) is tuple
        with pytest.raises(TypeError):
            table.rows[0] = (0,)
        with pytest.raises(TypeError):
            table.ovcs[0] = (0, 0)
        for name in ("schema", "rows", "sort_spec", "ovcs"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(table, name, getattr(table, name))
        # A tuple is kept, not copied; an edit is a new table.
        rows = ((1,), (3,))
        edited = dataclasses.replace(table, rows=rows)
        assert edited.rows is rows and edited.ovcs is table.ovcs
        assert table.rows == ((1,), (2,))

    def test_column_access(self):
        schema = Schema.of("A", "B")
        table = Table(schema, [(1, 2), (3, 4)])
        assert table.column("B") == [2, 4]

    def test_pretty_renders(self):
        schema = Schema.of("A", "B")
        table = Table(schema, [(1, 2)], SortSpec.of("A", "B")).with_ovcs()
        text = table.pretty()
        assert "A" in text and "offset" in text and "1" in text


class TestValidate:
    def test_validate_returns_self(self):
        schema = Schema.of("A")
        table = Table(schema, [(1,), (2,)], SortSpec.of("A")).with_ovcs()
        assert table.validate() is table

    def test_validate_raises_on_forged_codes(self):
        import pytest as _pytest

        from repro.testing import ValidationError

        schema = Schema.of("A")
        table = Table(schema, [(1,), (2,)], SortSpec.of("A")).with_ovcs()
        forged = dataclasses.replace(table, ovcs=[table.ovcs[0], (1, 0)])
        with _pytest.raises(ValidationError):
            forged.validate()
