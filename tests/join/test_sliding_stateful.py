"""Stateful property testing of the sliding FP-tree joiner.

Hypothesis drives arbitrary interleavings of adds and probes against a
trivially correct model (a list of documents), checking after every
probe that the FP-tree with incremental eviction returns exactly the
model's answer.
"""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.document import Document
from repro.join.sliding import SlidingFPTreeJoiner
from tests.conftest import document_pairs

WINDOW = 5


class SlidingJoinerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.joiner = SlidingFPTreeJoiner(WINDOW)
        self.model: list[Document] = []
        self.next_id = 0

    @rule(pairs=document_pairs())
    def add_document(self, pairs):
        doc = Document(pairs, doc_id=self.next_id)
        self.next_id += 1
        self.joiner.add(doc)
        self.model.append(doc)

    @rule(pairs=document_pairs())
    def probe_matches_model(self, pairs):
        probe = Document(pairs)
        visible = self.model[-(WINDOW - 1) :] if WINDOW > 1 else []
        expected = sorted(
            d.doc_id for d in visible if d.joinable(probe)
        )
        assert sorted(self.joiner.probe(probe)) == expected

    @rule()
    def reset_everything(self):
        self.joiner.reset()
        self.model.clear()

    @invariant()
    def size_is_bounded(self):
        assert len(self.joiner) <= WINDOW

    @invariant()
    def tree_statistics_consistent(self):
        tree = self.joiner.tree
        assert tree.doc_count == len(tree.stored_doc_ids())
        # attribute counts must sum to the pairs of the stored documents
        stored = set(tree.stored_doc_ids())
        expected_pairs = sum(
            len(d) for d in self.model if d.doc_id in stored
        )
        assert sum(tree.attribute_counts().values()) == expected_pairs


TestSlidingJoinerStateful = SlidingJoinerMachine.TestCase
TestSlidingJoinerStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
