"""Analytical cost model for the local join algorithms.

The paper observes empirically that NLJ beats HBJ on interconnected data
and loses on diverse data (Fig. 11c/11d) and explains it via posting
lengths.  This module turns that explanation into a predictive model
stated in countable units:

* an **NLJ probe** verifies every stored document once → cost ≈ W;
* an **HBJ probe** walks the posting list of each of its pairs, i.e.
  touches every (stored document, shared pair) incidence → cost
  ≈ W · E[shared incidences], where the expectation is over a random
  document pair of the dataset.

``E[shared incidences] = Σ_p share(p)²`` (the probability that both
documents contain pair p, summed over pairs).  When it exceeds 1, a
random probe touches more posting entries than NLJ has documents to
scan, and NLJ wins — the crossover the model predicts.
:func:`count_nlj_hbj_work` counts both units on the production joiners,
so the prediction is checked against work done, not against a clock.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.core.document import Document
from repro.core.profile import profile_documents
from repro.join.base import join_window
from repro.join.hash_join import HashJoiner
from repro.join.nested_loop import NestedLoopJoiner


def shared_incidences_of(documents: Sequence[Document]) -> float:
    """Exact ``Σ_p share(p)²`` over a concrete document collection."""
    counts = Counter(p for d in documents for p in d.avpairs())
    n = len(documents)
    return sum((c / n) ** 2 for c in counts.values())


def predict_nlj_hbj_winner(documents: Sequence[Document]) -> str:
    """Predict which baseline does less work on this data ("NLJ" or "HBJ")."""
    return "NLJ" if shared_incidences_of(documents) > 1.0 else "HBJ"


def count_nlj_hbj_work(documents: Sequence[Document]) -> tuple[int, int]:
    """Join one window with each baseline; ``(verified, touched)``.

    ``verified`` is the stored documents NLJ's probes verified,
    ``touched`` the posting entries HBJ's probes walked.
    """
    nlj = NestedLoopJoiner()
    hbj = HashJoiner()
    join_window(nlj, documents)
    join_window(hbj, documents)
    return nlj.verified, hbj.touched


def counted_nlj_hbj_winner(documents: Sequence[Document]) -> str:
    """The baseline that did less counted work on this data."""
    verified, touched = count_nlj_hbj_work(documents)
    return "NLJ" if touched > verified else "HBJ"


def profile_and_predict(documents: Sequence[Document]) -> dict[str, object]:
    """One-call report: profile, model quantities, and the prediction."""
    profile = profile_documents(documents)
    incidences = shared_incidences_of(documents)
    return {
        "documents": profile.documents,
        "distinct_pairs": profile.distinct_pairs,
        "top_pair_share": profile.top_pair_share,
        "shared_incidences": incidences,
        "predicted_winner": "NLJ" if incidences > 1.0 else "HBJ",
    }
