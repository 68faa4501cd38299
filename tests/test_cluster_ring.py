"""Tests for the partitioner and consistent-hash ring."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ConsistentHashRing, RandomPartitioner
from repro.errors import RingEmptyError, UnknownNodeError


class TestRandomPartitioner:
    def test_deterministic(self):
        part = RandomPartitioner()
        assert part.token("key") == part.token("key")

    def test_distinct_keys_distinct_tokens(self):
        part = RandomPartitioner()
        assert part.token("a") != part.token("b")

    def test_token_in_space(self):
        part = RandomPartitioner()
        token = part.token("anything")
        assert 0 <= token < part.TOKEN_SPACE

    def test_token_fraction_in_unit_interval(self):
        part = RandomPartitioner()
        assert 0.0 <= part.token_fraction("x") < 1.0

    def test_uniform_spread(self):
        # MD5 spreads 1000 keys roughly uniformly over 4 quarters.
        part = RandomPartitioner()
        quarters = [0] * 4
        for i in range(1000):
            quarters[int(part.token_fraction(f"key{i}") * 4)] += 1
        assert min(quarters) > 150

    def test_describe_owner_range(self):
        part = RandomPartitioner()
        assert part.describe_owner_range(0, 0) == 1.0
        half = part.TOKEN_SPACE // 2
        assert part.describe_owner_range(0, half) == pytest.approx(0.5)
        # Wrapped range.
        assert part.describe_owner_range(half, 0) == pytest.approx(0.5)


class TestConsistentHashRing:
    def _ring(self, count=5, vnodes=32):
        ring = ConsistentHashRing(vnodes=vnodes)
        for i in range(count):
            ring.add_node(f"node{i}")
        return ring

    def test_home_node_deterministic(self):
        ring = self._ring()
        assert ring.home_node("term") == ring.home_node("term")

    def test_home_node_is_member(self):
        ring = self._ring()
        assert ring.home_node("term") in ring.members

    def test_empty_ring_raises(self):
        with pytest.raises(RingEmptyError):
            ConsistentHashRing().home_node("x")

    def test_add_idempotent(self):
        ring = self._ring(2)
        ring.add_node("node0")
        assert len(ring) == 2

    def test_remove_node_reassigns_keys(self):
        ring = self._ring()
        keys = [f"key{i}" for i in range(200)]
        owner_before = {key: ring.home_node(key) for key in keys}
        ring.remove_node("node0")
        for key in keys:
            owner = ring.home_node(key)
            assert owner != "node0"
            if owner_before[key] != "node0":
                # Consistent hashing: keys not owned by the removed
                # node keep their owner.
                assert owner == owner_before[key]

    def test_remove_unknown_raises(self):
        with pytest.raises(UnknownNodeError):
            self._ring(2).remove_node("ghost")

    def test_successors_distinct_and_exclude_self(self):
        ring = self._ring(6)
        succ = ring.successors("node0", 3)
        assert len(succ) == 3
        assert len(set(succ)) == 3
        assert "node0" not in succ

    def test_successors_capped_at_membership(self):
        ring = self._ring(3)
        assert len(ring.successors("node0", 10)) == 2

    def test_successors_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            self._ring(2).successors("ghost", 1)

    def test_ownership_fractions_sum_to_one(self):
        ring = self._ring(5)
        fractions = ring.ownership_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_vnodes_balance_ownership(self):
        ring = self._ring(5, vnodes=128)
        fractions = ring.ownership_fractions()
        # With 128 vnodes each of 5 nodes should own 10-35%.
        assert min(fractions.values()) > 0.05
        assert max(fractions.values()) < 0.45

    def test_more_vnodes_smoother(self):
        coarse = self._ring(5, vnodes=1).ownership_fractions()
        fine = self._ring(5, vnodes=256).ownership_fractions()

        def spread(fractions):
            return max(fractions.values()) - min(fractions.values())

        assert spread(fine) <= spread(coarse)

    def test_key_distribution_balanced(self):
        ring = self._ring(5, vnodes=64)
        counts = {node: 0 for node in ring.members}
        for i in range(2000):
            counts[ring.home_node(f"key{i}")] += 1
        assert min(counts.values()) > 100

    @given(st.integers(min_value=1, max_value=10))
    @settings(max_examples=10, deadline=None)
    def test_every_key_has_home(self, node_count):
        ring = ConsistentHashRing(vnodes=8)
        for i in range(node_count):
            ring.add_node(f"n{i}")
        assert ring.home_node("any-key") in ring.members

    def test_invalid_vnodes(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(vnodes=0)
