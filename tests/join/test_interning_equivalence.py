"""Dictionary-encoded joiners are result-identical to the oracle.

Every joiner must agree with the brute-force oracle
(:meth:`Document.joinable` over the stored window) *probe for probe* —
not just on the window's final pair set — across randomized multi-window
streams that deliberately mix the value types interning must keep apart
(``1`` vs ``"1"``) and together (``1`` vs ``True`` vs ``1.0``).
"""

import random

import pytest

from repro.core.document import Document
from repro.join.base import brute_force_pairs, join_result_set
from repro.join.fptree_join import FPTreeJoiner
from repro.join.hash_join import HashJoiner
from repro.join.nested_loop import NestedLoopJoiner
from repro.join.ordering import AttributeOrder

#: values sharing an interned id (compare equal) plus lookalikes that
#: must stay distinct — the adversarial inputs for dictionary encoding
TRICKY_VALUES = [1, "1", True, 0, "0", False, 1.0, "on", "off", 2, "2"]

ATTRIBUTES = [f"a{i}" for i in range(12)]


def generate_windows(seed: int, windows: int = 3, size: int = 60):
    """A seeded stream of document windows with adversarial values."""
    rng = random.Random(seed)
    doc_id = 0
    stream = []
    for _ in range(windows):
        window = []
        for _ in range(size):
            attrs = rng.sample(ATTRIBUTES, rng.randint(2, 6))
            pairs = {attr: rng.choice(TRICKY_VALUES) for attr in attrs}
            window.append(Document(pairs, doc_id=doc_id))
            doc_id += 1
        stream.append(window)
    return stream


JOINER_FACTORIES = [
    pytest.param(lambda order: NestedLoopJoiner(), id="NLJ"),
    pytest.param(lambda order: HashJoiner(), id="HBJ"),
    pytest.param(lambda order: FPTreeJoiner(order), id="FPJ"),
    pytest.param(
        lambda order: FPTreeJoiner(order, use_fast_path=False),
        id="FPJ-no-fast-path",
    ),
]


@pytest.mark.parametrize("make", JOINER_FACTORIES)
@pytest.mark.parametrize("seed", [11, 23, 42])
def test_fptree_joiner_matches_oracle_probe_for_probe(make, seed):
    """Every joiner, NLJ and HBJ included, probe for probe."""
    windows = generate_windows(seed)
    joiner = make(AttributeOrder.from_documents(windows[0]))
    for window in windows:
        stored: list[Document] = []
        for doc in window:
            expected = sorted(d.doc_id for d in stored if d.joinable(doc))
            assert sorted(joiner.probe(doc)) == expected, doc.pairs
            joiner.add(doc)
            stored.append(doc)
        assert len(joiner) == len(stored)
        # The dictionary survives the window reset; results must not.
        joiner.reset()


@pytest.mark.parametrize("make", JOINER_FACTORIES)
@pytest.mark.parametrize("seed", [11, 23, 42])
def test_interned_joiner_is_exact(make, seed):
    """Belt and braces: the interned joiners against brute force."""
    for window in generate_windows(seed, windows=2, size=40):
        order = AttributeOrder.from_documents(window)
        joiner = make(order)
        assert join_result_set(joiner, window) == brute_force_pairs(window)


def test_mixed_type_semantics_end_to_end():
    """1 joins True but conflicts with nothing it merely resembles."""
    stored_int = Document({"k": 1, "x": "s"}, doc_id=0)
    stored_str = Document({"k": "1", "y": "t"}, doc_id=1)
    probe = Document({"k": True, "x": "s"})
    for joiner in (NestedLoopJoiner(), HashJoiner(), FPTreeJoiner()):
        joiner.add(stored_int)
        joiner.add(stored_str)
        # True == 1, so the probe shares k with doc 0 only; "1" differs,
        # which is a conflict on k with doc 1.
        assert joiner.probe(probe) == [0]
