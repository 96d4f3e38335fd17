"""Unit tests for the schema-free document model."""

import pytest
from hypothesis import given

from repro.core.document import AVPair, Document, flatten_json
from repro.exceptions import DocumentError, JoinConflictError
from tests.conftest import document_pairs


class TestConstruction:
    def test_from_mapping(self):
        doc = Document({"a": 1, "b": "x"})
        assert doc["a"] == 1
        assert doc["b"] == "x"
        assert len(doc) == 2

    def test_from_pair_iterable(self):
        doc = Document([("a", 1), ("b", 2)])
        assert doc.pairs == {"a": 1, "b": 2}

    def test_duplicate_pair_same_value_is_tolerated(self):
        doc = Document([("a", 1), ("a", 1)])
        assert len(doc) == 1

    def test_duplicate_pair_conflicting_value_rejected(self):
        with pytest.raises(DocumentError, match="conflicting duplicate"):
            Document([("a", 1), ("a", 2)])

    def test_empty_document_rejected(self):
        with pytest.raises(DocumentError, match="at least one attribute"):
            Document({})

    def test_doc_id_default_none(self):
        assert Document({"a": 1}).doc_id is None

    def test_doc_id_kept(self):
        assert Document({"a": 1}, doc_id=42).doc_id == 42

    def test_from_json(self):
        doc = Document.from_json('{"User": "A", "MsgId": 2}', doc_id=7)
        assert doc["User"] == "A"
        assert doc["MsgId"] == 2
        assert doc.doc_id == 7

    def test_from_json_invalid_syntax(self):
        with pytest.raises(DocumentError, match="invalid JSON"):
            Document.from_json("{not json}")

    def test_from_json_non_object_top_level(self):
        with pytest.raises(DocumentError, match="must be an object"):
            Document.from_json("[1, 2, 3]")

    def test_from_dict_nested(self):
        doc = Document.from_dict({"a": {"b": {"c": 5}}})
        assert doc["a.b.c"] == 5


class TestFlattening:
    def test_flat_passthrough(self):
        assert flatten_json({"a": 1, "b": None}) == {"a": 1, "b": None}

    def test_nested_object_dotted_path(self):
        assert flatten_json({"o": {"s": "v", "n": 3}}) == {"o.s": "v", "o.n": 3}

    def test_array_indexed_paths(self):
        assert flatten_json({"a": ["x", "y"]}) == {"a[0]": "x", "a[1]": "y"}

    def test_nested_array_of_objects(self):
        flat = flatten_json({"a": [{"b": 1}, {"b": 2}]})
        assert flat == {"a[0].b": 1, "a[1].b": 2}

    def test_non_string_key_rejected(self):
        with pytest.raises(DocumentError, match="attribute names"):
            flatten_json({"a": {1: "x"}})

    def test_bool_values_survive(self):
        assert flatten_json({"flag": True}) == {"flag": True}

    def test_deeply_nested(self):
        flat = flatten_json({"a": {"b": [{"c": [1]}]}})
        assert flat == {"a.b[0].c[0]": 1}


class TestJoinSemantics:
    def test_joinable_shared_pair(self):
        a = Document({"x": 1, "y": 2})
        b = Document({"x": 1, "z": 3})
        assert a.joinable(b)
        assert b.joinable(a)

    def test_not_joinable_no_shared_attribute(self):
        a = Document({"x": 1})
        b = Document({"y": 1})
        assert not a.joinable(b)

    def test_not_joinable_conflicting_value(self):
        a = Document({"x": 1, "y": 2})
        b = Document({"x": 1, "y": 3})
        assert not a.joinable(b)

    def test_shared_attribute_same_value_required_on_all(self):
        # sharing one equal pair is not enough if another shared attr differs
        a = Document({"x": 1, "y": 2, "z": 9})
        b = Document({"x": 1, "y": 5})
        assert not a.joinable(b)

    def test_join_merges_pairs(self):
        a = Document({"x": 1, "y": 2})
        b = Document({"x": 1, "z": 3})
        assert a.join(b).pairs == {"x": 1, "y": 2, "z": 3}

    def test_join_conflict_raises(self):
        a = Document({"x": 1, "y": 2})
        b = Document({"x": 1, "y": 3})
        with pytest.raises(JoinConflictError) as excinfo:
            a.join(b)
        assert excinfo.value.attribute == "y"

    def test_join_disjoint_raises(self):
        with pytest.raises(DocumentError, match="share no attribute"):
            Document({"x": 1}).join(Document({"y": 1}))

    def test_conflicts_with(self):
        a = Document({"x": 1, "y": 2})
        assert a.conflicts_with(Document({"y": 3}))
        assert not a.conflicts_with(Document({"y": 2}))
        assert not a.conflicts_with(Document({"q": 7}))

    def test_fig1_pairs(self, fig1_documents):
        """The joinable pairs of the paper's running example."""
        d = {doc.doc_id: doc for doc in fig1_documents}
        assert d[1].joinable(d[2])  # same User+Severity
        assert not d[1].joinable(d[3])  # Severity conflicts
        assert d[1].joinable(d[4])  # share Severity:Warning only
        assert d[5].joinable(d[6])
        assert not d[5].joinable(d[7])  # Severity conflicts
        assert d[4].joinable(d[7])

    def test_none_values_participate_in_join(self):
        a = Document({"x": None, "y": 1})
        b = Document({"x": None, "z": 2})
        assert a.joinable(b)


class TestValueSemantics:
    def test_equality_by_content(self):
        assert Document({"a": 1}, doc_id=1) == Document({"a": 1}, doc_id=2)

    def test_inequality(self):
        assert Document({"a": 1}) != Document({"a": 2})

    def test_not_equal_to_other_types(self):
        assert Document({"a": 1}) != {"a": 1}

    def test_hash_consistent_with_equality(self):
        assert hash(Document({"a": 1, "b": 2})) == hash(Document({"b": 2, "a": 1}))

    def test_usable_in_sets(self):
        docs = {Document({"a": 1}), Document({"a": 1}), Document({"a": 2})}
        assert len(docs) == 2

    def test_iteration_and_contains(self):
        doc = Document({"a": 1, "b": 2})
        assert set(doc) == {"a", "b"}
        assert "a" in doc
        assert "z" not in doc

    def test_get_with_default(self):
        doc = Document({"a": 1})
        assert doc.get("a") == 1
        assert doc.get("missing", "dflt") == "dflt"

    def test_avpair_set(self):
        doc = Document({"a": 1, "b": 2})
        assert doc.avpair_set() == {AVPair("a", 1), AVPair("b", 2)}

    def test_to_dict_is_a_copy(self):
        doc = Document({"a": 1})
        copy = doc.to_dict()
        copy["b"] = 2
        assert "b" not in doc

    def test_to_json_round_trip(self):
        doc = Document({"a": 1, "b": "x"})
        assert Document.from_json(doc.to_json()) == doc

    def test_repr_mentions_pairs(self):
        assert "a: 1" in repr(Document({"a": 1}, doc_id=3))


class TestAVPair:
    def test_fields(self):
        pair = AVPair("Severity", "Warning")
        assert pair.attribute == "Severity"
        assert pair.value == "Warning"

    def test_hashable_and_comparable_by_sort_key(self):
        pairs = {AVPair("a", 1), AVPair("a", 1), AVPair("a", "1")}
        assert len(pairs) == 2
        assert AVPair("a", 1).sort_key() != AVPair("a", "1").sort_key()


@given(document_pairs())
def test_property_document_round_trips_through_json(pairs):
    doc = Document(pairs, doc_id=0)
    assert Document.from_json(doc.to_json(), doc_id=0) == doc


@given(document_pairs(), document_pairs())
def test_property_joinable_is_symmetric(pairs_a, pairs_b):
    a, b = Document(pairs_a), Document(pairs_b)
    assert a.joinable(b) == b.joinable(a)


@given(document_pairs())
def test_property_document_joins_itself(pairs):
    doc = Document(pairs)
    assert doc.joinable(doc)
    assert doc.join(doc) == doc


@given(document_pairs(), document_pairs())
def test_property_join_is_commutative_when_defined(pairs_a, pairs_b):
    a, b = Document(pairs_a), Document(pairs_b)
    if a.joinable(b):
        assert a.join(b) == b.join(a)


class TestNestingDepthCap:
    def test_deep_nesting_rejected(self):
        from repro.core.document import MAX_NESTING_DEPTH

        deep: dict = {"leaf": 1}
        for _ in range(MAX_NESTING_DEPTH + 1):
            deep = {"n": deep}
        with pytest.raises(DocumentError, match="nesting deeper"):
            flatten_json(deep)

    def test_depth_at_limit_accepted(self):
        from repro.core.document import MAX_NESTING_DEPTH

        deep: dict = {"leaf": 1}
        for _ in range(MAX_NESTING_DEPTH - 1):
            deep = {"n": deep}
        flat = flatten_json(deep)
        assert len(flat) == 1
