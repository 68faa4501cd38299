"""One codec pass per document: the wire fast paths and their seams.

The serve path touches each document's bytes once.  The document
decoder scans them in one loop and keeps a canonical document's bytes,
the record codec appends those bytes verbatim, and a plan's ids encode
in one join.  These tests hold each fast path to its reference:

- the one-join plan encoding equals the per-id ``string`` loop for any
  id list;
- the one-scan document decoder equals the per-field
  :class:`~repro.serve.wire.WireDecoder` reference on every encoding,
  canonical or not, and on arbitrary bytes it raises what the
  reference raises (``ProtocolError``) or returns what it returns;
- a TCP ``ingest_batch`` served as one micro-batch is journalled as its
  own request body, while a document with unsorted or repeated terms is
  journalled canonically and recovers bit-identically;
- a WAL written by the record codec before the fast paths existed
  (``tests/fixtures/codec_wal``) replays, and re-encodes byte for
  byte;
- the entry points the served benchmark wraps to time the wire,
  journal and runtime layers are still called once per document, per
  plan and per micro-batch.

Regenerate the fixture (only from a build whose record codec is the
reference) with ``PYTHONPATH=src python tests/test_serve_codec.py
tests/fixtures/codec_wal``.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import sys
import threading
from pathlib import Path
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.storage import WalReader
from repro.core import MoveSystem
from repro.errors import ProtocolError
from repro.experiments.harness import build_cluster, make_system
from repro.model import Document, Filter
from repro.serve import (
    JournaledSystem,
    ServeConfig,
    ServiceClient,
    ServiceRuntime,
    ServiceServer,
)
from repro.serve import journal, wire
from repro.serve.wire import WireDecoder, WireEncoder

FIXTURE = Path(__file__).parent / "fixtures" / "codec_wal"

# ---------------------------------------------------------------------------
# References: the per-field codec the fast paths replace
# ---------------------------------------------------------------------------


def _reference_plan(ids, fanout=3, posting_entries=70_000) -> bytes:
    enc = WireEncoder()
    enc.varint(len(ids))
    for filter_id in ids:
        enc.string(filter_id)
    enc.varint(fanout)
    enc.varint(posting_entries)
    return bytes(enc.buf)


def _reference_decode(dec: WireDecoder) -> Document:
    doc_id = dec.string()
    counts: Dict[str, int] = {}
    for _ in range(dec.varint()):
        term = dec.string()
        counts[term] = dec.varint()
    return Document(
        doc_id=doc_id, terms=frozenset(counts), term_counts=counts
    )


def _varint(value: int, overlong: bool) -> bytes:
    enc = WireEncoder()
    enc.varint(value)
    raw = bytes(enc.buf)
    if overlong:  # same value, one redundant zero group
        raw = raw[:-1] + bytes([raw[-1] | 0x80, 0])
    return raw


def _raw_document(
    doc_id: str, pairs: List[Tuple[str, int]], overlong: int = -1
) -> bytes:
    """``pairs`` encoded in the order given; the ``overlong``-th varint
    (if any) is written one byte longer than it needs."""
    fields: List[bytes] = []
    index = 0

    def varint(value: int) -> None:
        nonlocal index
        fields.append(_varint(value, index == overlong))
        index += 1

    raw = doc_id.encode("utf-8")
    varint(len(raw))
    fields.append(raw)
    varint(len(pairs))
    for term, count in pairs:
        raw = term.encode("utf-8")
        varint(len(raw))
        fields.append(raw)
        varint(count)
    return b"".join(fields)


def _same_document(ours: Document, theirs: Document) -> None:
    assert ours == theirs
    assert list(ours.term_counts.items()) == list(
        theirs.term_counts.items()
    )


# ---------------------------------------------------------------------------
# Plan encoding: one join
# ---------------------------------------------------------------------------

_IDS = st.lists(
    st.one_of(
        st.text(max_size=8),
        st.text(alphabet="abc-0123456789", min_size=120, max_size=140),
        st.sampled_from(["", "x" * 127, "x" * 128, "x" * 300, "é" * 64]),
    ),
    max_size=24,
)


@settings(max_examples=300, deadline=None)
@given(ids=_IDS)
def test_one_join_plan_encoding_equals_the_per_id_loop(ids):
    enc = WireEncoder()
    wire.encode_plan_summary(enc, ids, 3, 70_000)
    assert bytes(enc.buf) == _reference_plan(ids)
    dec = WireDecoder(bytes(enc.buf))
    assert wire.decode_plan_summary(dec) == {
        "matched": ids,
        "fanout": 3,
        "posting_entries": 70_000,
    }
    assert dec.exhausted


@pytest.mark.parametrize(
    "ids",
    [[], ["a" * 127], ["a" * 128], ["a" * 300], ["", "b"], ["f1", "fé"]],
    ids=["empty", "len127", "len128", "len300", "empty-id", "non-ascii"],
)
def test_plan_encoding_at_the_single_byte_boundaries(ids):
    enc = WireEncoder()
    wire.encode_plan_summary(enc, ids, 0, 0)
    assert bytes(enc.buf) == _reference_plan(ids, 0, 0)


# ---------------------------------------------------------------------------
# Document decoding: one scan
# ---------------------------------------------------------------------------

_TERM = st.text(max_size=6) | st.sampled_from(["t" * 130, "ü" * 70])
_COUNT = st.integers(min_value=0, max_value=3) | st.integers(
    min_value=0, max_value=2**40
)


@settings(max_examples=400, deadline=None)
@given(
    doc_id=st.text(max_size=8) | st.just("d" * 200),
    pairs=st.lists(st.tuples(_TERM, _COUNT), max_size=12),
    order=st.sampled_from(["sorted", "as-drawn"]),
    overlong=st.integers(min_value=-1, max_value=30),
    tail=st.binary(max_size=4),
)
def test_one_scan_decoder_equals_the_reference(
    doc_id, pairs, order, overlong, tail
):
    if order == "sorted":
        pairs = sorted(dict(pairs).items())
    body = _raw_document(doc_id, pairs, overlong)
    data = b"\x07" + body + tail  # decode mid-buffer, like a frame
    ours_dec, ref_dec = WireDecoder(data), WireDecoder(data)
    ours_dec.pos = ref_dec.pos = 1
    ours = wire.decode_document(ours_dec)
    _same_document(ours, _reference_decode(ref_dec))
    assert ours_dec.pos == ref_dec.pos == 1 + len(body)
    terms = [term for term, _ in pairs]
    canonical = terms == sorted(set(terms)) and not (
        0 <= overlong < 2 + 2 * len(pairs)
    )
    kept = wire.received_bytes(ours)
    assert kept == (body if canonical else None)
    # Either way the journal writes the canonical encoding.
    enc = WireEncoder()
    wire.encode_document(enc, ours)
    fresh = WireEncoder()
    wire.encode_document(
        fresh,
        Document(
            doc_id=ours.doc_id,
            terms=ours.terms,
            term_counts=dict(ours.term_counts),
        ),
    )
    assert enc.buf == fresh.buf


def _outcome(decode, data: bytes):
    dec = WireDecoder(data)
    try:
        document = decode(dec)
    except ProtocolError:
        return "ProtocolError"
    return (
        document.doc_id,
        list(document.term_counts.items()),
        dec.pos,
    )


@settings(max_examples=500, deadline=None)
@given(data=st.binary(max_size=64))
def test_one_scan_decoder_agrees_with_the_reference_on_any_bytes(data):
    assert _outcome(wire.decode_document, data) == _outcome(
        _reference_decode, data
    )


def test_decoder_rejects_truncation_overflow_and_bad_utf8():
    good = _raw_document("d", [("alpha", 2), ("beta", 1)])
    for cut in range(len(good)):
        with pytest.raises(ProtocolError):
            wire.decode_document(WireDecoder(good[:cut]))
    with pytest.raises(ProtocolError, match="UTF-8"):
        wire.decode_document(WireDecoder(b"\x01d\x01\x02\xff\xfe\x01"))
    with pytest.raises(ProtocolError, match="overflow"):
        wire.decode_document(
            WireDecoder(b"\x01d\x01\x01a" + b"\x80" * 10 + b"\x01")
        )


# ---------------------------------------------------------------------------
# The served path: journal what was received
# ---------------------------------------------------------------------------

_PROFILES = [
    Filter.from_terms("f-alpha", ["alpha", "beta"]),
    Filter.from_terms("f-gamma", ["gamma"]),
    Filter.from_terms("f-zeta", ["zeta", "beta"]),
]


def _serve(tmp_path, client_work):
    """Run a journalled server; drive it from a thread with
    ``client_work(client)``.  Returns the runtime after shutdown."""
    errors: list = []

    def drive(port: int) -> None:
        try:
            with ServiceClient(port=port) as client:
                client.subscribe(_PROFILES)
                client.finalize()
                client_work(client)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)
        finally:
            with ServiceClient(port=port) as client:
                client.shutdown()

    async def scenario():
        runtime = ServiceRuntime(
            ServeConfig(
                scheme="move",
                num_nodes=4,
                seed=0,
                wal_dir=str(tmp_path / "wal"),
            )
        )
        server = ServiceServer(runtime, port=0)
        await server.start()
        thread = threading.Thread(target=drive, args=(server.port,))
        thread.start()
        await asyncio.wait_for(
            server.shutdown_requested.wait(), timeout=30.0
        )
        await server.close()
        await asyncio.to_thread(thread.join)
        return runtime

    runtime = asyncio.run(scenario())
    if errors:
        raise errors[0]
    return runtime


def _batch_payload(bodies: List[bytes]) -> bytes:
    enc = WireEncoder()
    enc.u8(wire.OP_INGEST_BATCH)
    enc.varint(len(bodies))
    return bytes(enc.buf) + b"".join(bodies)


def _publish_records(directory: Path) -> List[bytes]:
    return [
        payload
        for _, payload in WalReader(directory).replay()
        if payload[:2] == b"\xb1\x01"
    ]


def _ingest_raw(client: ServiceClient, payload: bytes) -> List[dict]:
    dec = client._roundtrip_frame(wire.pack_length(len(payload)) + payload)
    return wire.decode_plans(dec)


def _assert_recovers_bit_identically(directory: Path, live) -> None:
    """The journal in ``directory`` rebuilds ``live``: same RNG streams,
    stored replicas and plans for fresh probe documents."""
    with JournaledSystem(directory) as recovered_journal:
        recovered = recovered_journal.system
        assert recovered._rng.getstate() == live._rng.getstate()
        assert (
            recovered.storage_distribution()
            == live.storage_distribution()
        )
        rng = random.Random(5)
        vocab = ["alpha", "beta", "gamma", "zeta", "omega"]
        for i in range(6):
            probe = Document.from_terms(f"p{i}", rng.choices(vocab, k=4))
            ours, theirs = recovered.publish(probe), live.publish(probe)
            assert ours.matched_filter_ids == theirs.matched_filter_ids
            assert ours.fanout == theirs.fanout
        assert recovered._rng.getstate() == live._rng.getstate()


def test_ingest_batch_is_journalled_as_its_request_body(tmp_path):
    documents = [
        Document.from_terms(f"d{i}", terms)
        for i, terms in enumerate(
            [["zeta", "alpha"], ["gamma"], ["beta", "omega", "beta"]]
        )
    ]
    bodies = []
    for document in documents:
        enc = WireEncoder()
        wire.encode_document(enc, document)
        bodies.append(bytes(enc.buf))
    payload = _batch_payload(bodies)
    plans: list = []

    runtime = _serve(
        tmp_path, lambda client: plans.extend(_ingest_raw(client, payload))
    )
    assert [p["matched"] for p in plans] == [
        ["f-alpha", "f-zeta"], ["f-gamma"], ["f-alpha", "f-zeta"]
    ]
    assert _publish_records(tmp_path / "wal") == [
        b"\xb1\x01" + payload[1:]
    ]
    _assert_recovers_bit_identically(tmp_path / "wal", runtime.system)


def test_unsorted_and_repeated_terms_are_journalled_canonically(
    tmp_path, monkeypatch
):
    applied: list = []
    publish_batch = MoveSystem.publish_batch

    def spy(self, documents):
        applied.extend(list(d.term_counts) for d in documents)
        return publish_batch(self, documents)

    monkeypatch.setattr(MoveSystem, "publish_batch", spy)
    # Out of order, and "beta" twice (the last count wins).
    unsorted = _raw_document("u1", [("zeta", 2), ("alpha", 1)])
    repeated = _raw_document("u2", [("beta", 1), ("gamma", 4), ("beta", 3)])
    overlong = _raw_document("u3", [("alpha", 1), ("omega", 2)], overlong=3)
    payload = _batch_payload([unsorted, repeated, overlong])
    plans: list = []

    runtime = _serve(
        tmp_path, lambda client: plans.extend(_ingest_raw(client, payload))
    )
    assert [p["matched"] for p in plans] == [
        ["f-alpha", "f-zeta"], ["f-alpha", "f-gamma", "f-zeta"], ["f-alpha"]
    ]
    canonical = [
        Document(
            doc_id=doc_id, terms=frozenset(counts), term_counts=counts
        )
        for doc_id, counts in [
            ("u1", {"alpha": 1, "zeta": 2}),
            ("u2", {"beta": 3, "gamma": 4}),
            ("u3", {"alpha": 1, "omega": 2}),
        ]
    ]
    # The live apply saw the canonical (sorted) documents too.
    assert applied == [list(d.term_counts) for d in canonical]
    (record,) = _publish_records(tmp_path / "wal")
    assert record == wire.encode_record(
        WireEncoder(), {"op": "publish_batch", "docs": canonical}
    )
    for ours, theirs in zip(wire.decode_record(record)["docs"], canonical):
        _same_document(ours, theirs)
    _assert_recovers_bit_identically(tmp_path / "wal", runtime.system)


# ---------------------------------------------------------------------------
# A journal written before the fast paths
# ---------------------------------------------------------------------------

_VOCAB = ["alpha", "beta", "gamma", "delta", "omega", "zeta", "kappa"]


def _fixture_ops(target) -> None:
    """The operations journalled in :data:`FIXTURE`; ``target`` is a
    :class:`JournaledSystem` or the bare system of its twin."""
    rng = random.Random(7)

    def document(doc_id: str) -> Document:
        return Document.from_terms(doc_id, rng.choices(_VOCAB, k=5))

    def received(doc_id: str) -> Document:
        enc = WireEncoder()
        wire.encode_document(enc, document(doc_id))
        return wire.decode_document(WireDecoder(bytes(enc.buf)))

    target.subscribe(
        [
            Filter.from_terms("f1", ["alpha", "beta"]),
            Filter.from_terms("f2", ["gamma"], owner="ops"),
            "delta AND omega",
            ("t1", "zeta OR kappa", "ops"),
        ]
    )
    target.seed_frequencies([document(f"s{i}") for i in range(4)])
    target.finalize_registration()
    target.publish_batch([received(f"w{i}") for i in range(4)])
    target.publish_batch([document(f"l{i}") for i in range(3)])
    target.unregister("f2")
    target.reallocate(force=True)
    target.publish_batch([received(f"x{i}") for i in range(2)])


_FIXTURE_SETUP = dict(scheme="move", num_nodes=4, node_capacity=500, seed=3)


def _write_fixture(directory: str) -> None:
    with JournaledSystem(directory, **_FIXTURE_SETUP) as journalled:
        _fixture_ops(journalled)
        journalled.sync()


def test_a_wal_from_the_reference_codec_replays(tmp_path):
    directory = tmp_path / "wal"
    shutil.copytree(FIXTURE, directory)
    cluster, config = build_cluster(4, 500, seed=3)
    twin = make_system("move", cluster, config)
    _fixture_ops(twin)
    with JournaledSystem(directory) as recovered:
        assert recovered.recovery_replayed_records == 8
        assert recovered.replay_skipped == 0
    _assert_recovers_bit_identically(directory, twin)


def test_the_record_codec_still_writes_the_reference_bytes(tmp_path):
    for _, payload in WalReader(FIXTURE).replay():
        again = wire.encode_record(WireEncoder(), wire.decode_record(payload))
        assert again == payload
    _write_fixture(str(tmp_path / "wal"))
    written = sorted((tmp_path / "wal").glob("wal-*.log"))
    expected = sorted(FIXTURE.glob("wal-*.log"))
    assert [p.name for p in written] == [p.name for p in expected]
    for ours, theirs in zip(written, expected):
        assert ours.read_bytes() == theirs.read_bytes()


# ---------------------------------------------------------------------------
# The seams the served benchmark times
# ---------------------------------------------------------------------------


def test_traced_entry_points_are_called_per_document_plan_and_batch(
    tmp_path, monkeypatch
):
    """Wrap the five entry points by module or class attribute, as the
    benchmark's traced server does, and count the calls one
    ``ingest_batch`` and one ``ingest`` make."""
    calls = {
        "decode": 0,
        "encode_plan": 0,
        "record_ops": [],
        "publish": [],
        "ingest_batch": [],
    }
    decode_document = wire.decode_document
    encode_plan = ServiceServer._encode_plan
    encode_record = journal.encode_record
    publish_batch = JournaledSystem.publish_batch
    ingest_batch = ServiceRuntime.ingest_batch

    def counted_decode(dec):
        calls["decode"] += 1
        return decode_document(dec)

    def counted_encode_plan(enc, plan):
        calls["encode_plan"] += 1
        return encode_plan(enc, plan)

    def counted_encode_record(enc, record):
        calls["record_ops"].append(record["op"])
        return encode_record(enc, record)

    def counted_publish(self, documents):
        calls["publish"].append(len(documents))
        return publish_batch(self, documents)

    async def counted_ingest_batch(self, documents):
        calls["ingest_batch"].append(len(documents))
        return await ingest_batch(self, documents)

    monkeypatch.setattr(wire, "decode_document", counted_decode)
    monkeypatch.setattr(
        ServiceServer, "_encode_plan", staticmethod(counted_encode_plan)
    )
    monkeypatch.setattr(journal, "encode_record", counted_encode_record)
    monkeypatch.setattr(JournaledSystem, "publish_batch", counted_publish)
    monkeypatch.setattr(ServiceRuntime, "ingest_batch", counted_ingest_batch)

    def work(client):
        batch = client.ingest_batch(
            [
                {"doc_id": "d0", "terms": ["alpha"]},
                {"doc_id": "d1", "terms": ["gamma", "zeta"]},
                {"doc_id": "d2", "terms": ["nil"]},
            ]
        )
        assert [plan["matched"] for plan in batch] == [
            ["f-alpha"], ["f-gamma", "f-zeta"], []
        ]
        assert client.ingest("d3", terms=["beta"])["matched"] == [
            "f-alpha", "f-zeta"
        ]

    _serve(tmp_path, work)
    assert calls["decode"] == 4
    assert calls["encode_plan"] == 4
    assert calls["publish"] == [3, 1]
    assert calls["record_ops"].count("publish_batch") == 2
    assert calls["ingest_batch"] == [3, 1]


if __name__ == "__main__":
    _write_fixture(sys.argv[1])
