"""Unit tests for pair enumeration and cluster assignment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.apps import APP_NAMES
from repro.workloads.generator import assign_pair_to_cluster, unique_pairs


class TestUniquePairs:
    def test_thirty_six_pairs(self):
        # §4.1: every unique combination of 9 applications -> 36 pairs.
        assert len(unique_pairs()) == 36

    def test_pairs_are_distinct_and_unordered(self):
        pairs = unique_pairs()
        assert len(set(pairs)) == 36
        assert all(a != b for a, b in pairs)
        assert all((b, a) not in pairs for a, b in pairs)

    def test_subset(self):
        assert unique_pairs(["A", "B", "C"]) == [("A", "B"), ("A", "C"), ("B", "C")]


class TestAssignment:
    def test_half_and_half(self):
        assignment = assign_pair_to_cluster(("EP", "DC"), range(20))
        assert assignment.nodes_running("EP") == list(range(10))
        assert assignment.nodes_running("DC") == list(range(10, 20))

    def test_odd_cluster_first_app_gets_extra(self):
        assignment = assign_pair_to_cluster(("EP", "DC"), range(5))
        assert len(assignment.nodes_running("EP")) == 3
        assert len(assignment.nodes_running("DC")) == 2

    def test_arbitrary_node_ids(self):
        assignment = assign_pair_to_cluster(("CG", "LU"), [5, 9, 11, 20])
        assert assignment.nodes_running("CG") == [5, 9]
        assert assignment.nodes_running("LU") == [11, 20]

    def test_each_node_gets_own_instance(self):
        rng = np.random.default_rng(0)
        assignment = assign_pair_to_cluster(("EP", "DC"), range(4), rng=rng)
        ep_nodes = assignment.nodes_running("EP")
        works = [assignment.workloads[n].total_work_s for n in ep_nodes]
        assert works[0] != works[1]  # jittered independently

    def test_scale_applies(self):
        assignment = assign_pair_to_cluster(("EP", "DC"), range(4), scale=0.1)
        for workload in assignment.workloads.values():
            assert workload.total_work_s < 30.0

    def test_case_normalized(self):
        assignment = assign_pair_to_cluster(("ep", "dc"), range(2))
        assert assignment.pair == ("EP", "DC")

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            assign_pair_to_cluster(("EP", "DC"), [0])

    def test_one_node_runs_a_pair_of_one_app(self):
        assignment = assign_pair_to_cluster(("EP", "ep"), [3])
        assert list(assignment.workloads) == [3]
        assert assignment.nodes_running("EP") == [3]
        with pytest.raises(ValueError):
            assign_pair_to_cluster(("EP", "EP"), [])

    def test_all_paper_pairs_assignable(self):
        for pair in unique_pairs(APP_NAMES):
            assignment = assign_pair_to_cluster(pair, range(4))
            assert len(assignment.workloads) == 4
