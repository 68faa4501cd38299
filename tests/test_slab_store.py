"""The columnar filter slab and the indexes built over it.

- unit behaviour of :class:`~repro.model.slab.FilterSlabStore` and the
  :class:`~repro.model.slab.SlabRegistry` mapping view (slot reuse,
  epoch bumps, compaction, bounded rehydration),
- slot ownership of :class:`~repro.matching.InvertedIndex`: a
  standalone index owns a private slab and releases its slots, an
  index over a system's shared slab leaves releases to the registry,
- bulk and slot-native loads building the same index as per-filter
  adds, and one slab shared across a system's layers.
"""

from __future__ import annotations

import pytest

from repro.experiments.harness import build_cluster, make_system
from repro.matching import InvertedIndex
from repro.model import Filter
from repro.model.slab import (
    COMPACT_MIN_DEAD_CELLS,
    FilterSlabStore,
    SlabRegistry,
)


def _filter(fid: str, terms, owner: str = "") -> Filter:
    return Filter.from_terms(fid, terms, owner=owner)


# ---------------------------------------------------------------------------
# FilterSlabStore units
# ---------------------------------------------------------------------------


def test_slab_rehydrates_equal_filters():
    slab = FilterSlabStore()
    original = _filter("f1", ["alpha", "beta"], owner="client-9")
    slot = slab.add(original)
    hydrated = slab.get(slot)
    assert hydrated == original
    assert hydrated.owner == "client-9"
    assert hydrated.terms == original.terms
    # Storage order is the profile's interning order, not numeric —
    # compare as multisets so shared-interner state can't skew it.
    assert sorted(slab.term_ids(slot)) == sorted(original.term_ids)
    assert slab.get_by_id("f1") == original


def test_slab_add_is_idempotent_upsert():
    slab = FilterSlabStore()
    profile = _filter("f1", ["a", "b"])
    slot = slab.add(profile)
    epoch = slab.epoch
    assert slab.add(profile) == slot
    assert slab.epoch == epoch  # repeat add is a no-op
    assert len(slab) == 1


def test_slab_norm_and_length_columns():
    slab = FilterSlabStore()
    slot = slab.add(_filter("f1", ["a", "b", "c", "d"]))
    assert slab.length(slot) == 4
    assert slab.norm(slot) == pytest.approx(2.0)


def test_release_frees_slot_and_next_add_reuses_it():
    slab = FilterSlabStore()
    slab.add(_filter("f1", ["a"]))
    slot2 = slab.add(_filter("f2", ["b", "c"]))
    released = slab.release("f2")
    assert released == slot2
    assert slab.free_slots == 1
    assert "f2" not in slab
    with pytest.raises(KeyError):
        slab.filter_id(slot2)
    # The freed slot is claimed by the next add, with fresh columns.
    slot3 = slab.add(_filter("f3", ["d"]))
    assert slot3 == slot2
    assert slab.free_slots == 0
    assert slab.filter_id(slot3) == "f3"
    assert slab.terms(slot3) == ["d"]
    assert slab.length(slot3) == 1


def test_release_unknown_id_raises_keyerror():
    slab = FilterSlabStore()
    with pytest.raises(KeyError):
        slab.release("ghost")


def test_hydration_cache_never_serves_stale_slot_binding():
    # Release drops the cached object, so a reused slot can never
    # resolve to the previous tenant — the epoch contract in action.
    slab = FilterSlabStore()
    slot = slab.add(_filter("f1", ["a", "b"]))
    assert slab.get(slot).filter_id == "f1"  # now cached
    slab.release("f1")
    assert slab.add(_filter("f2", ["z"])) == slot
    assert slab.get(slot).filter_id == "f2"
    assert slab.get(slot).terms == frozenset({"z"})


def test_epoch_bumps_on_every_mutation():
    slab = FilterSlabStore()
    e0 = slab.epoch
    slab.add(_filter("f1", ["a"]))
    e1 = slab.epoch
    slab.release("f1")
    e2 = slab.epoch
    slab.add(_filter("f2", ["b"]))
    slab.release("f2")
    compacted = slab.compact()
    e3 = slab.epoch
    assert e0 < e1 < e2 < e3
    assert compacted > 0


def test_compact_reclaims_dead_cells_preserving_slots():
    slab = FilterSlabStore()
    slots = {
        fid: slab.add(_filter(fid, terms))
        for fid, terms in [
            ("f1", ["a", "b"]),
            ("f2", ["c", "d", "e"]),
            ("f3", ["f"]),
        ]
    }
    before = {fid: slab.terms(slot) for fid, slot in slots.items()}
    slab.release("f2")
    assert slab.dead_term_cells == 3
    assert slab.compact() == 3
    assert slab.dead_term_cells == 0
    assert slab.compact() == 0  # idempotent when clean
    for fid in ("f1", "f3"):
        assert slab.terms(slots[fid]) == before[fid]
        assert slab.filter_id(slots[fid]) == fid


def test_hydration_cache_is_bounded():
    slab = FilterSlabStore(hydration_cache_size=4)
    slots = [slab.add(_filter(f"f{i}", [f"t{i}"])) for i in range(10)]
    for slot in slots:
        slab.get(slot)
    assert slab.stats()["hydrated"] <= 4
    # Reads are still correct after evictions.
    assert slab.get(slots[0]).filter_id == "f0"


def test_memory_bytes_tracks_population():
    slab = FilterSlabStore()
    empty = slab.memory_bytes()
    for i in range(100):
        slab.add(_filter(f"f{i}", [f"t{i}", f"u{i}"]))
    full = slab.memory_bytes()
    assert full > empty
    for i in range(100):
        slab.release(f"f{i}")
    slab.compact()
    assert slab.memory_bytes() < full


# ---------------------------------------------------------------------------
# SlabRegistry mapping semantics
# ---------------------------------------------------------------------------


def test_registry_is_a_mutable_mapping_over_the_slab():
    slab = FilterSlabStore()
    registry = SlabRegistry(slab)
    profile = _filter("f1", ["a", "b"])
    registry["f1"] = profile
    assert "f1" in registry
    assert len(registry) == 1
    assert registry["f1"] == profile
    assert list(registry) == ["f1"]
    assert registry.get("missing") is None
    del registry["f1"]
    assert "f1" not in registry
    with pytest.raises(KeyError):
        registry["f1"]


def test_registry_rejects_mismatched_keys():
    registry = SlabRegistry(FilterSlabStore())
    with pytest.raises(ValueError):
        registry["other"] = _filter("f1", ["a"])


# ---------------------------------------------------------------------------
# InvertedIndex over the slab
# ---------------------------------------------------------------------------


def _index_fingerprint(index, terms):
    """Observable state of an index."""
    per_term = {}
    for term in terms:
        filters, cost = index.filters_for_term(term)
        per_term[term] = (
            sorted(f.filter_id for f in filters),
            cost.posting_lists,
            cost.posting_entries,
        )
    return {
        "len": len(index),
        "replicas": index.stored_replica_count(),
        "distinct_terms": index.distinct_terms,
        "terms": index.terms(),
        "all": sorted(f.filter_id for f in index.all_filters()),
        "per_term": per_term,
    }


def test_standalone_index_leaks_no_slots_under_churn():
    """10 000 add/remove cycles on a standalone index: its private slab
    reuses released slots, so the slot count never exceeds the peak
    live population."""
    index = InvertedIndex()
    resident = [
        _filter(f"r{i}", [f"res{i % 5}", f"res{(i + 1) % 5}"])
        for i in range(16)
    ]
    index.add_filters((profile, None) for profile in resident)
    for cycle in range(10_000):
        term = f"churn{cycle % 7}"
        index.add_filter(_filter(f"c{cycle}", [term, "res0"]), [term])
        if cycle % 2:
            assert index.remove_filter(f"c{cycle}")
        else:
            moved = index.remove_term(term)
            assert [profile.filter_id for profile in moved] == [
                f"c{cycle}"
            ]
    slab = index.slab
    assert slab.slot_count <= len(resident) + 1
    assert len(slab) == len(index) == len(resident)
    # Released term-id cells are compacted away as they accumulate.
    assert slab.dead_term_cells <= COMPACT_MIN_DEAD_CELLS + 2


def test_standalone_remove_term_keeps_slot_while_indexed_elsewhere():
    index = InvertedIndex()
    index.add_filter(_filter("f1", ["a", "b"]))
    assert [f.filter_id for f in index.remove_term("a")] == ["f1"]
    assert "f1" in index.slab and "f1" in index
    index.remove_term("b")
    assert "f1" not in index.slab and "f1" not in index
    assert index.slab.free_slots == 1


def test_shared_slab_is_released_only_through_the_registry():
    slab = FilterSlabStore()
    registry = SlabRegistry(slab)
    index = InvertedIndex(slab)
    profile = _filter("f1", ["a", "b"])
    index.add_filter(profile)
    registry["f1"] = profile
    assert index.remove_filter("f1")
    assert "f1" in slab  # other layers may still hold the slot
    del registry["f1"]
    assert "f1" not in slab


def test_bulk_and_slot_loads_match_per_filter_adds():
    slab = FilterSlabStore()
    incremental = InvertedIndex(slab)
    bulk = InvertedIndex(slab)
    profiles = [
        _filter(f"f{i}", [f"t{i % 4}", f"u{i % 3}"]) for i in range(30)
    ]
    for profile in profiles:
        incremental.add_filter(profile)
    bulk.add_filters((profile, None) for profile in profiles)
    vocab = sorted({t for p in profiles for t in p.terms})
    assert _index_fingerprint(incremental, vocab) == _index_fingerprint(
        bulk, vocab
    )
    # Slot-native load (the reallocation path) builds the same index.
    slots = InvertedIndex(slab)
    slots.add_slots(
        (slab.slot_of(p.filter_id), None) for p in profiles
    )
    assert _index_fingerprint(slots, vocab) == _index_fingerprint(
        bulk, vocab
    )


def test_slab_mode_shares_one_slab_across_system_layers():
    """The registration table and every index use the same slab."""
    cluster, config = build_cluster(4, 300, seed=1)
    system = make_system("move", cluster, config)
    profiles = [_filter(f"f{i}", [f"t{i % 7}", "shared"]) for i in range(50)]
    system.subscribe(profiles)
    system.finalize_registration()
    slab = system.filter_slab
    assert len(slab) == 50
    for index in system._home_indexes.values():
        assert index.slab is slab
    # Releasing through unregister frees the slot for reuse.
    system.unregister("f0")
    assert "f0" not in slab
    assert slab.free_slots == 1
    system.subscribe([_filter("f-reused", ["t1"])])
    assert slab.free_slots == 0
