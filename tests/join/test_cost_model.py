"""Tests for the NLJ/HBJ cost model — predictions vs counted work."""

from collections import Counter
from math import comb

import pytest

from repro.core.document import Document
from repro.data.nobench import NoBenchGenerator
from repro.data.serverlogs import ServerLogGenerator
from repro.join.cost import (
    count_nlj_hbj_work,
    counted_nlj_hbj_winner,
    predict_nlj_hbj_winner,
    profile_and_predict,
    shared_incidences_of,
)


class TestSharedIncidences:
    def test_identical_documents(self):
        docs = [Document({"a": 1}, doc_id=i) for i in range(4)]
        # one pair with share 1.0 -> sum of squares = 1.0
        assert shared_incidences_of(docs) == pytest.approx(1.0)

    def test_fully_disjoint_documents(self):
        docs = [Document({f"a{i}": i}, doc_id=i) for i in range(10)]
        # ten pairs, each share 0.1 -> 10 * 0.01
        assert shared_incidences_of(docs) == pytest.approx(0.1)

    def test_rwdata_exceeds_nbdata(self):
        rw = ServerLogGenerator(seed=2).documents(1000)
        nb = NoBenchGenerator(seed=2).documents(1000)
        assert shared_incidences_of(rw) > shared_incidences_of(nb)


class TestPrediction:
    def test_predicts_nlj_on_interconnected_data(self):
        docs = ServerLogGenerator(seed=4).documents(1500)
        assert predict_nlj_hbj_winner(docs) == "NLJ"

    def test_predicts_hbj_on_diverse_data(self):
        docs = NoBenchGenerator(seed=4).documents(1500)
        assert predict_nlj_hbj_winner(docs) == "HBJ"

    @pytest.mark.parametrize(
        "generator_cls", [ServerLogGenerator, NoBenchGenerator],
        ids=["rwData", "nbData"],
    )
    def test_prediction_matches_measurement(self, generator_cls):
        """The model's call agrees with the work the production joiners
        count (the measurement) on both datasets — the Fig. 11c/11d
        crossover, predicted analytically."""
        docs = generator_cls(seed=7).documents(2500)
        n = len(docs)
        verified, touched = count_nlj_hbj_work(docs)
        # NLJ's k-th probe verifies the k documents stored before it
        assert verified == n * (n - 1) // 2
        # HBJ's k-th carrier of pair p walks a posting of length k
        counts = Counter(p for d in docs for p in d.avpairs())
        assert touched == sum(comb(c, 2) for c in counts.values())
        assert touched / verified == pytest.approx(
            shared_incidences_of(docs), rel=0.05
        )
        assert predict_nlj_hbj_winner(docs) == counted_nlj_hbj_winner(docs)

    def test_report_shape(self):
        docs = ServerLogGenerator(seed=5).documents(300)
        report = profile_and_predict(docs)
        assert report["documents"] == 300
        assert report["predicted_winner"] in ("NLJ", "HBJ")
        assert report["shared_incidences"] > 0
