"""Reallocation bench — incremental engine vs from-scratch apply.

Times the steady-state coordinator refresh (Section VI-A's ~10-minute
renewal) on the Figure-8 ``BENCH_WORKLOAD`` (4k filters) under <= 1%
filter churn per refresh cycle: each cycle swaps ``CHURN_SWAPS``
filters for fresh clones over the same terms (demand-preserving churn,
the common case for long-lived subscriptions) and then calls
``reallocate()``.  Three configurations of the same system run the
identical churn schedule:

- *from-scratch* — every plan goes through
  ``MoveSystem._apply_plan_full``: every refresh replans and rebuilds
  every allocated subset index, the seed apply path;
- *incremental* — plan diffing (:mod:`repro.core.reallocation`):
  every refresh replans, but unchanged/delta keys keep their live
  indexes and only resized/new keys rebuild;
- *drift-gated* — incremental plus ``drift_epsilon=0.05``: the refresh
  first consults :meth:`MoveSystem.estimate_drift` and skips the
  replan outright while accumulated churn stays under the gate (at 1%
  churn per cycle the gate trips roughly every fifth cycle, replans,
  and resets — the designed steady state).

The headline ``speedup`` is the per-refresh *median* ratio between the
from-scratch and drift-gated paths; the ISSUE acceptance floor is
>= 5x and the raw ratio is asserted here.  Because the gated median is
a skip (drift check only, microseconds), the raw ratio is enormous and
machine-noisy, so the value recorded for the CI gate is capped at
``SPEEDUP_CAP`` — any healthy run saturates the cap, which keeps the
``--check`` tolerance band meaningful.  ``replan_speedup`` (always
replanning, incremental vs from-scratch apply) is recorded uncapped:
both sides pay the same planning cost, so it isolates the apply-path
win and stays a stable ms-scale ratio.

A correctness probe at the end publishes a document stream through all
three systems and asserts identical matched-filter sets — the
write-through grid maintenance keeps skipped/kept indexes exact.
"""

from __future__ import annotations

import time
from dataclasses import replace
from statistics import mean, median

from repro.core import MoveSystem
from repro.experiments.harness import build_cluster
from repro.model import Filter

from conftest import BENCH_WORKLOAD, record, run_once

#: Refresh cycles per timed loop; with 1% churn per cycle the 5% drift
#: gate trips once mid-loop, so the schedule exercises both the skip
#: and the replan leg of the gated path.
CYCLES = 8

#: Filter swaps per cycle.  One swap is one unregister plus one
#: register, so 20 swaps = 40 churn operations = 1.0% of the 4k-filter
#: workload — the ISSUE's "<= 1% churn" steady state.
CHURN_SWAPS = 20

#: Drift gate for the gated configuration (matches DriftPolicy default).
DRIFT_EPSILON = 0.05

#: Cap on the recorded speedup (see module docstring): the raw
#: skip-vs-rebuild ratio is O(1000x) with microsecond denominators, so
#: the CI baseline tracks min(raw, cap) — stable, and still an order
#: of magnitude above the 5x acceptance floor.
SPEEDUP_CAP = 50.0


class _FromScratchMove(MoveSystem):
    """MOVE applying every plan through the from-scratch rebuild."""

    def _apply_plan_incremental(self, plan):
        return self._apply_plan_full(plan)


def _build_move(bundle, incremental: bool, drift_epsilon: float = 0.0):
    """Register + seed + allocate one MOVE system over the workload.

    Rounding is pinned deterministic: randomized rounding resamples
    every ``n_i`` on every replan, so even a demand-preserving refresh
    reshapes most grids and the diff degenerates to "everything
    resized".  A refresh loop that wants incremental apply wins needs
    plan stability, and deterministic rounding provides it (see
    docs/PERFORMANCE.md).
    """
    workload = bundle.workload
    cluster, config = build_cluster(
        workload.num_nodes, workload.node_capacity, seed=0
    )
    config = replace(
        config,
        allocation=replace(
            config.allocation,
            drift_epsilon=drift_epsilon,
            randomized_rounding=False,
        ),
    )
    system_cls = MoveSystem if incremental else _FromScratchMove
    system = system_cls(cluster, config)
    system.subscribe(bundle.filters)
    system.seed_frequencies(bundle.offline_corpus())
    system.finalize_registration()
    return system


def _churn(system, bundle, cycle: int) -> None:
    """Swap ``CHURN_SWAPS`` bundle filters for same-term clones.

    Victim slices are disjoint across cycles, so every victim is still
    registered; clones reuse the victim's exact terms, keeping the
    demand statistics (and therefore the plan) steady — churn without
    drift, the load the gate is designed to absorb.
    """
    start = cycle * CHURN_SWAPS
    victims = bundle.filters[start : start + CHURN_SWAPS]
    for profile in victims:
        system.unregister(profile.filter_id)
    for index, profile in enumerate(victims):
        system.subscribe(
            Filter.from_terms(
                f"churn-{cycle}-{index}", profile.sorted_terms()
            )
        )


def _time_refreshes(system, bundle, cycles: int = CYCLES):
    """Per-refresh seconds for ``cycles`` churn-then-reallocate steps."""
    seconds = []
    for cycle in range(cycles):
        _churn(system, bundle, cycle)
        start = time.perf_counter()
        system.reallocate()
        seconds.append(time.perf_counter() - start)
    return seconds


def test_steady_state_reallocation(benchmark):
    """Steady-state refresh under 1% churn: acceptance gate >= 5x."""
    bundle = BENCH_WORKLOAD.build()
    scratch = _build_move(bundle, incremental=False)
    incremental = _build_move(bundle, incremental=True)
    gated = _build_move(
        bundle, incremental=True, drift_epsilon=DRIFT_EPSILON
    )

    scratch_s = _time_refreshes(scratch, bundle)
    incremental_s = _time_refreshes(incremental, bundle)
    gated_s = _time_refreshes(gated, bundle)
    # One extra timed loop on a fresh gated system for pytest-benchmark's
    # own stats row; the regression gate reads the controlled medians
    # from extra_info, not this row's wall time.
    run_once(
        benchmark,
        _time_refreshes,
        _build_move(bundle, incremental=True, drift_epsilon=DRIFT_EPSILON),
        bundle,
    )

    skipped = gated.metrics.counter("reallocations_skipped").value
    assert skipped >= CYCLES - 2  # the gate held through the loop

    # Write-through keeps kept/skipped indexes exact: all three systems
    # must match a probe stream identically.
    probes = bundle.documents[:20]
    expected = [p.matched_filter_ids for p in scratch.publish_all(probes)]
    for system in (incremental, gated):
        matched = [p.matched_filter_ids for p in system.publish_all(probes)]
        assert matched == expected

    scratch_med, incremental_med, gated_med = (
        median(scratch_s),
        median(incremental_s),
        median(gated_s),
    )
    raw_speedup = scratch_med / gated_med
    speedup = min(raw_speedup, SPEEDUP_CAP)
    replan_speedup = scratch_med / incremental_med
    print(
        f"\nreallocate under {100.0 * 2 * CHURN_SWAPS / len(bundle.filters):.1f}% "
        f"churn/cycle (median of {CYCLES}): from-scratch "
        f"{scratch_med * 1e3:.2f} ms -> incremental "
        f"{incremental_med * 1e3:.2f} ms ({replan_speedup:.2f}x) -> "
        f"drift-gated {gated_med * 1e6:.0f} us ({raw_speedup:.0f}x raw, "
        f"recorded {speedup:.1f}x); skipped {skipped:.0f}/{CYCLES}"
    )
    record(
        benchmark,
        scratch_seconds=scratch_med,
        incremental_seconds=incremental_med,
        gated_seconds=gated_med,
        scratch_mean_seconds=mean(scratch_s),
        gated_mean_seconds=mean(gated_s),
        speedup=speedup,
        speedup_uncapped=raw_speedup,
        replan_speedup=replan_speedup,
        refreshes_per_second=1.0 / incremental_med,
        refreshes_skipped=skipped,
    )
    # Both legs clear the >= 5x acceptance floor: the gated path by
    # skipping the replan, the always-replan path on apply cost alone.
    assert raw_speedup >= 5.0
    assert replan_speedup >= 5.0
