"""Micro-benchmark of the cluster substrate's gossip rounds.

Companion to ``bench_micro_components.py``: times the gossip
membership protocol that disseminates liveness under every
system-level failure number.
"""

from __future__ import annotations

from repro.cluster import GossipMembership


def test_micro_gossip_rounds(benchmark):
    def run_rounds():
        gossip = GossipMembership(
            [f"n{i}" for i in range(50)], seed=1
        )
        gossip.tick(10)
        return gossip.round_number

    rounds = benchmark(run_rounds)
    assert rounds == 10
