"""Binary wire protocol v3: codec, hello exchange, damaged input.

Covers the :mod:`repro.serve.wire` codec roundtrips (varints,
documents, filters, subscribe items, every journal record), a fuzz of
every decoder (arbitrary bytes raise ``ProtocolError`` and nothing
else), the hello exchange and its refusals on both sides, and the
damaged-frame contract: a corrupt or oversized frame is answered with
a typed ``ProtocolError`` and the connection keeps serving.
Server-side scenarios use the same threaded-client pattern as
``test_serve_runtime``: the server owns the loop, the blocking client
drives it from a thread.
"""

from __future__ import annotations

import asyncio
import socket
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.model import Document, Filter, Subscription
from repro.serve import (
    ServeConfig,
    ServiceClient,
    ServiceRuntime,
    ServiceServer,
)
from repro.serve.client import ServiceClientError
from repro.serve import wire
from repro.serve.wire import WireDecoder, WireEncoder

# ---------------------------------------------------------------------------
# Codec roundtrips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value", [0, 1, 127, 128, 300, 2**21, 2**35, 2**63 - 1]
)
def test_varint_roundtrip(value):
    enc = WireEncoder()
    enc.varint(value)
    dec = WireDecoder(bytes(enc.buf))
    assert dec.varint() == value
    assert dec.exhausted


def test_varint_rejects_negative_and_overflow():
    enc = WireEncoder()
    with pytest.raises(ProtocolError):
        enc.varint(-1)
    with pytest.raises(ProtocolError):
        WireDecoder(b"\x80" * 10 + b"\x01").varint()
    with pytest.raises(ProtocolError):
        WireDecoder(b"\x80\x80").varint()  # truncated continuation


def test_encoder_reset_reuses_the_buffer():
    enc = WireEncoder()
    enc.string("first message")
    buf = enc.buf
    enc.reset()
    assert enc.buf is buf and not enc.buf
    enc.string("x")
    dec = WireDecoder(bytes(enc.buf))
    assert dec.string() == "x"


def test_document_roundtrip_is_canonically_sorted():
    doc = Document(
        doc_id="dé",  # non-ASCII survives the UTF-8 strings
        terms=frozenset(["zeta", "alpha", "mid"]),
        term_counts={"zeta": 3, "alpha": 1, "mid": 2},
    )
    enc = WireEncoder()
    wire.encode_document(enc, doc)
    decoded = wire.decode_document(WireDecoder(bytes(enc.buf)))
    assert decoded == doc
    # Decode inserts terms in sorted order regardless of input order.
    assert list(decoded.term_counts) == ["alpha", "mid", "zeta"]


def test_filter_roundtrip():
    profile = Filter.from_terms("f1", ["beta", "alpha"], owner="ops")
    enc = WireEncoder()
    wire.encode_filter(enc, profile)
    assert wire.decode_filter(WireDecoder(bytes(enc.buf))) == profile


@pytest.mark.parametrize(
    "item",
    [
        Filter.from_terms("f1", ["a", "b"], owner="x"),
        "cloud AND (storage OR compute)",
        ("q1", "alpha OR beta"),
        ("q2", "alpha", "owner"),
        Subscription(
            filter_id="s1",
            terms=frozenset(["a", "b"]),
            owner="o",
            query="a AND b",
        ),
    ],
)
def test_subscribe_item_roundtrip_preserves_shape(item):
    enc = WireEncoder()
    wire.encode_subscribe_item(enc, item)
    decoded = wire.decode_subscribe_item(WireDecoder(bytes(enc.buf)))
    assert type(decoded) is type(item)
    assert decoded == item


def test_subscribe_item_rejects_unknown_types():
    with pytest.raises(ProtocolError):
        wire.encode_subscribe_item(WireEncoder(), 42)
    with pytest.raises(ProtocolError):
        wire.decode_subscribe_item(WireDecoder(b"\x09"))


def test_decoders_reject_bad_utf8_and_empty_filters():
    with pytest.raises(ProtocolError, match="UTF-8"):
        WireDecoder(b"\x02\xff\xfe").string()
    enc = WireEncoder()
    enc.string("f1")
    enc.string("owner")
    enc.varint(0)  # a filter with no terms
    with pytest.raises(ProtocolError, match="no terms"):
        wire.decode_filter(WireDecoder(bytes(enc.buf)))


_DECODERS = {
    "decode_document": lambda data: wire.decode_document(WireDecoder(data)),
    "decode_subscribe_item": lambda data: wire.decode_subscribe_item(
        WireDecoder(data)
    ),
    "decode_record": wire.decode_record,
    "decode_plans": lambda data: wire.decode_plans(WireDecoder(data)),
}


@pytest.mark.parametrize("name", sorted(_DECODERS))
@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=96))
def test_decoders_raise_only_protocol_errors_on_arbitrary_bytes(
    name, data
):
    try:
        _DECODERS[name](data)
    except ProtocolError:
        pass


@pytest.mark.parametrize("name", sorted(_DECODERS))
@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=64))
def test_decoders_raise_only_protocol_errors_on_prefixed_bytes(
    name, data
):
    """Arbitrary bodies behind every valid tag reach deep into each
    decoder instead of failing on the first byte."""
    prefixes = {
        "decode_record": [
            bytes([wire.RECORD_MAGIC, tag]) for tag in range(0, 12)
        ],
        "decode_subscribe_item": [bytes([kind]) for kind in range(4)],
    }.get(name, [b""])
    for prefix in prefixes:
        try:
            _DECODERS[name](prefix + data)
        except ProtocolError:
            pass


@pytest.mark.parametrize(
    "record",
    [
        {
            "op": "publish_batch",
            "docs": [
                Document.from_terms("d1", ["a", "b", "a"]),
                Document.from_terms("d2", ["z"]),
            ],
        },
        {
            "op": "setup",
            "scheme": "move",
            "num_nodes": 4,
            "node_capacity": 2_000,
            "seed": -3,
            "threshold": 0.25,
        },
        {
            "op": "subscribe",
            "items": ["a AND b", ("q1", "c OR d")],
            "chunk_size": None,
        },
        {
            "op": "subscribe",
            "items": [Filter.from_terms("f2", ["e"])],
            "chunk_size": 0,
        },
        {"op": "unregister", "filter_id": "f1"},
        {"op": "finalize"},
        {
            "op": "seed_frequencies",
            "docs": [Document.from_terms("s1", ["x", "y", "x"])],
        },
        {"op": "reallocate", "force": True, "drift_epsilon": None},
        {"op": "reallocate", "force": False, "drift_epsilon": 0.05},
        {"op": "rebalance"},
        {"op": "checkpoint", "lsn": 1234},
    ],
)
def test_record_roundtrip(record):
    payload = wire.encode_record(WireEncoder(), record)
    assert payload[0] == wire.RECORD_MAGIC
    assert wire.decode_record(payload) == record


def test_publish_record_prefix_is_stable():
    payload = wire.encode_record(
        WireEncoder(),
        {"op": "publish_batch", "docs": [Document.from_terms("d", ["a"])]},
    )
    assert payload[:2] == b"\xb1\x01"


def test_record_codec_rejects_unknown_ops_and_damage():
    with pytest.raises(ProtocolError):
        wire.encode_record(WireEncoder(), {"op": "register_batch"})
    with pytest.raises(ProtocolError):
        wire.decode_record(b'{"op": "finalize"}')  # a JSON-era record
    with pytest.raises(ProtocolError):
        wire.decode_record(bytes([wire.RECORD_MAGIC, 0x7F]))
    # Tag 0x02 (the retired register_batch record) stays reserved.
    with pytest.raises(ProtocolError, match="0x02"):
        wire.decode_record(bytes([wire.RECORD_MAGIC, 0x02, 0x00]))
    good = wire.encode_record(
        WireEncoder(),
        {"op": "publish_batch", "docs": [Document.from_terms("d", ["a"])]},
    )
    with pytest.raises(ProtocolError):
        wire.decode_record(good[:-2])  # truncated body
    with pytest.raises(ProtocolError, match="trailing"):
        wire.decode_record(good + b"\x00")


def test_error_frame_roundtrip():
    frame = wire.error_frame(WireEncoder(), "AdmissionError", "shed")
    length = wire.split_header(frame[:4])
    dec = WireDecoder(frame[4:4 + length])
    assert dec.u8() == wire.STATUS_ERROR
    assert wire.decode_error(dec) == ("AdmissionError", "shed")


# ---------------------------------------------------------------------------
# Server scenarios (threaded blocking client, as in test_serve_runtime)
# ---------------------------------------------------------------------------

_PROFILES = [
    Filter.from_terms("f-alpha", ["alpha", "beta"]),
    Filter.from_terms("f-gamma", ["gamma"]),
]


def _run_server(client_work, **server_kwargs):
    """Run a server on its own loop and drive it from a thread.

    ``client_work(port, results)`` runs in the thread; any exception
    it raises is re-raised here after the server shuts down.
    """
    results: dict = {}

    def drive(port: int) -> None:
        try:
            client_work(port, results)
        except BaseException as error:  # noqa: BLE001 - reported below
            results["error"] = error
        finally:
            try:
                with ServiceClient(port=port) as c:
                    c.shutdown()
            except Exception:
                pass

    async def scenario():
        runtime = ServiceRuntime(
            ServeConfig(scheme="move", num_nodes=4, seed=0)
        )
        server = ServiceServer(runtime, port=0, **server_kwargs)
        await server.start()
        thread = threading.Thread(target=drive, args=(server.port,))
        thread.start()
        await asyncio.wait_for(
            server.shutdown_requested.wait(), timeout=30.0
        )
        await server.close()
        await asyncio.to_thread(thread.join)

    asyncio.run(scenario())
    if "error" in results:
        raise results["error"]
    return results


def test_client_full_surface_round_trip():
    def work(port, results):
        with ServiceClient(port=port) as client:
            assert client.ping()
            ids = client.subscribe(
                list(_PROFILES) + [("q-ab", "alpha AND beta")]
            )
            assert ids == ["f-alpha", "f-gamma", "q-ab"]
            client.finalize()
            plan = client.ingest("d0", terms=["alpha", "beta"])
            batch = client.ingest_batch(
                [
                    {"doc_id": "d1", "terms": ["gamma"]},
                    {"doc_id": "d2", "term_counts": {"alpha": 2}},
                ]
            )
            assert "repro_serve_ingested" in client.metrics()
            stats = client.stats()
            client.unregister("q-ab")
            after = client.ingest("d3", terms=["alpha", "beta"])
        assert plan["doc_id"] == "d0"
        assert plan["matched"] == ["f-alpha", "q-ab"]
        assert batch[0]["matched"] == ["f-gamma"]
        assert batch[0]["doc_id"] == "d1"
        assert batch[1]["matched"] == ["f-alpha"]
        assert after["matched"] == ["f-alpha"]
        assert stats["active_filters"] == 3

    _run_server(work)


def _fake_server(answer: bytes):
    """A one-connection server that answers the hello with ``answer``
    and hangs up."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as stream:
            stream.readline()
            stream.write(answer)
            stream.flush()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread


@pytest.mark.parametrize(
    "answer",
    [b'{"ok": false, "error": "ValueError"}\n', b""],
    ids=["json-error-line", "hang-up"],
)
def test_client_refuses_a_server_that_does_not_ack_the_hello(answer):
    listener, thread = _fake_server(answer)
    try:
        with pytest.raises(ProtocolError, match="hello"):
            ServiceClient(port=listener.getsockname()[1])
    finally:
        thread.join(timeout=5.0)
        listener.close()


def test_client_rejects_newer_protocol_server():
    listener, thread = _fake_server(b"\x00MV3 4\n")
    try:
        with pytest.raises(ProtocolError, match="MV3 4"):
            ServiceClient(port=listener.getsockname()[1])
    finally:
        thread.join(timeout=5.0)
        listener.close()


def _read_frame(sock: socket.socket) -> bytes:
    stream = sock.makefile("rb")
    header = stream.read(4)
    payload = stream.read(wire.split_header(header))
    rest = stream.read()  # the server closes after refusing
    stream.close()
    assert rest == b""
    return payload


@pytest.mark.parametrize(
    "first_line",
    [b'{"op": "ping"}\n', b"\x00MV2\n", b"x" * 70_000 + b"\n"],
    ids=["json-request", "older-hello", "over-long-line"],
)
def test_server_refuses_a_first_line_that_is_not_hello(first_line):
    def work(port, results):
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.sendall(first_line)
            dec = WireDecoder(_read_frame(sock))
        assert dec.u8() == wire.STATUS_ERROR
        error, message = wire.decode_error(dec)
        assert error == "ProtocolError"
        assert "hello" in message

    _run_server(work)


def test_ping_reports_the_binary_protocol_version():
    def work(port, results):
        with ServiceClient(port=port) as client:
            enc = WireEncoder()
            enc.u8(wire.OP_PING)
            dec = client._roundtrip_frame(enc.frame())
            assert dec.varint() == wire.BINARY_PROTOCOL_VERSION == 3
            assert dec.exhausted

    _run_server(work)


def test_corrupt_frame_gets_typed_error_and_connection_survives():
    def work(port, results):
        with ServiceClient(port=port) as client:
            # Truncated ingest body: opcode then garbage.
            enc = WireEncoder()
            enc.u8(wire.OP_INGEST)
            enc.raw(b"\xff")
            with pytest.raises(ServiceClientError) as excinfo:
                client._roundtrip_frame(enc.frame())
            assert excinfo.value.error == "ProtocolError"
            # Unknown opcode.
            enc = WireEncoder()
            enc.u8(0x7E)
            with pytest.raises(ServiceClientError) as excinfo:
                client._roundtrip_frame(enc.frame())
            assert excinfo.value.error == "ProtocolError"
            # The connection still works.
            assert client.ping()
            plan = client.ingest("d0", terms=["nothing"])
            assert plan["matched"] == []

    _run_server(work)


def test_oversized_frame_rejected_and_drained():
    def work(port, results):
        with ServiceClient(port=port) as client:
            oversized = wire.pack_length(4096) + b"\x00" * 4096
            with pytest.raises(ServiceClientError) as excinfo:
                client._roundtrip_frame(oversized)
            assert excinfo.value.error == "ProtocolError"
            assert "exceeds" in excinfo.value.message
            # The payload was drained, so the stream is still
            # frame-aligned and the connection keeps serving.
            assert client.ping()

    _run_server(work, max_frame_bytes=1024)


def test_runtime_errors_cross_the_binary_transport_typed():
    def work(port, results):
        with ServiceClient(port=port) as client:
            with pytest.raises(ServiceClientError) as excinfo:
                client.unregister("missing")
            assert excinfo.value.error == "KeyError"
            with pytest.raises(ServiceClientError) as excinfo:
                client.subscribe([("bad", "NOT alpha")])
            assert excinfo.value.error == "QueryError"
            with pytest.raises(ServiceClientError) as excinfo:
                client.request({"op": "ingest"})  # no JSON twin any more
            assert excinfo.value.error == "ProtocolError"
            with pytest.raises(ServiceClientError) as excinfo:
                client.request({"op": "unregister", "filter_id": 7})
            assert excinfo.value.error == "ProtocolError"
            assert client.ping()

    _run_server(work)
