"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import stats  # noqa: E402
from driver import (  # noqa: E402
    CHURN_LIVE,
    CHURN_TURNS,
    churn_rounds,
    piece_bounds,
    piece_percentiles,
)
from run import END_TO_END, PER_LAYER, steadiness_seeds  # noqa: E402
from server import cpu_split, prepare_child  # noqa: E402
from workloads import Oracle, brute_force_ids  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.9) == 90
    assert stats.percentile(values, 0.99) == 99
    assert stats.percentile(values, 1.0) == 100
    assert stats.percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0.0)


def test_samples_beyond_a_percentile():
    assert stats.samples_beyond(100, 0.99) == 1
    assert stats.samples_beyond(1000, 0.99) == 10
    assert stats.samples_beyond(900, 0.99) == 9
    assert stats.samples_beyond(10, 0.5) == 5


def test_open_loop_schedule_and_lateness():
    due = stats.due_times(10.0, 4.0, 5)
    assert due == [10.0, 10.25, 10.5, 10.75, 11.0]
    assert stats.due_count(due, 0, 9.9) == 0
    assert stats.due_count(due, 0, 10.5) == 3
    assert stats.due_count(due, 3, 20.0) == 5
    # Free before the document came due: late by the time past due.
    assert stats.lateness(10.3, 10.25, 10.0) == pytest.approx(0.05)
    # Due while the connection was busy: late only past the reply.
    assert stats.lateness(10.6, 10.25, 10.5) == pytest.approx(0.1)
    assert stats.lateness(10.0, 10.25, 9.0) == 0.0
    # Due by 10.75: four documents; two acknowledged leaves two behind.
    assert stats.backlog(due, 2, 10.75) == 2


def test_pieces_cover_the_open_loop():
    assert piece_bounds(10, 4) == [2, 5, 7, 10]
    assert piece_bounds(12_000, 8)[-1] == 12_000
    values = [1.0, 2.0, 10.0, 20.0, 30.0, 5.0]
    assert piece_percentiles(values, [2, 5, 6], 0.5) == [1.0, 20.0, 5.0]


def test_spread_uses_statistics_quartiles():
    row = stats.spread([1.0, 2.0, 3.0, 4.0, 100.0])
    assert row["median"] == 3.0
    assert row["q1"] == 1.5 and row["q3"] == 52.0
    assert row["iqr_frac"] == pytest.approx(50.5 / 3.0)
    assert row["range_frac"] == pytest.approx(99.0 / 3.0)


def test_self_time_subtracts_children():
    times = stats.SelfTimes(sampled=("child",))
    # Children finish before their parents, as spans do.
    times.add("grandchild", 3, 2, 1.0)
    times.add("child", 2, 1, 3.0)
    times.add("child", 4, 1, 2.0)
    times.add("root", 1, None, 10.0, items=4)
    snap = times.snapshot()
    assert snap["root"]["total_s"] == 10.0
    assert snap["root"]["self_s"] == pytest.approx(5.0)
    assert snap["root"]["items"] == 4
    assert snap["child"]["calls"] == 2
    assert snap["child"]["self_s"] == pytest.approx(4.0)
    assert snap["child"]["samples"] == [3.0, 2.0]
    assert snap["grandchild"]["self_s"] == 1.0


def test_delta_between_snapshots():
    before = {"x": {"self_s": 1.0, "samples": [1.0]}}
    after = {"x": {"self_s": 3.5, "samples": [1.0, 2.0, 3.0]}}
    assert stats.delta(after, before, "x", "self_s") == 2.5
    assert stats.delta(after, {}, "x", "self_s") == 3.5
    assert stats.new_samples(after, before, "x") == [2.0, 3.0]


def test_metric_names_agree_with_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    stats.check_metric_names(list(END_TO_END) + list(PER_LAYER))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    with pytest.raises(ValueError):
        stats.check_metric_names(["ok.name", "bad name"])
    with pytest.raises(ValueError):
        stats.check_metric_names(["twice", "twice"])


def test_churn_rounds_are_balanced():
    items = [f"item{i}" for i in range(1_000)]
    rounds = churn_rounds(items, 10)
    assert len(rounds) == 10
    assert all(len(ops) == CHURN_TURNS for ops in rounds[:-1])
    live = set()
    for ops in rounds:
        for op in ops:
            if op.kind == "subscribe":
                live.add(op.item)
                assert len(live) <= CHURN_LIVE
            else:
                live.remove(op.item)
    assert not live
    # Once CHURN_LIVE are live, subscribes and unregisters alternate.
    assert sum(op.kind == "subscribe" for op in rounds[1]) == CHURN_TURNS // 2


def test_oracle_matches_brute_force_with_predicates():
    from repro.experiments.harness import ScaledWorkload

    bundle = ScaledWorkload(
        num_filters=400,
        num_documents=40,
        mean_doc_terms=16.0,
        predicate_fraction=0.3,
        seed=3,
    ).build()
    assert any(getattr(p, "predicate", None) for p in bundle.filters)
    oracle = Oracle(bundle.filters)
    for document in bundle.documents:
        assert oracle.match(document) == brute_force_ids(
            document, bundle.filters
        )


def test_steadiness_always_repeats_a_seed():
    assert steadiness_seeds(5, 3, same_seed=False) == [5, 6, 7, 5]
    assert steadiness_seeds(5, 3, same_seed=True) == [5, 5, 5]


@pytest.mark.skipif(cpu_split() is None, reason="needs two CPUs")
def test_server_gets_its_cpu_from_a_pinned_driver():
    driver_cpus, server_cpus = cpu_split()
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, driver_cpus)
    try:
        child = subprocess.run(
            [sys.executable, "-c",
             "import os; print(sorted(os.sched_getaffinity(0)))"],
            preexec_fn=partial(prepare_child, server_cpus),
            capture_output=True, text=True, check=True,
        )
    finally:
        os.sched_setaffinity(0, saved)
    assert child.stdout.strip() == str(sorted(server_cpus))
