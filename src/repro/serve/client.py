"""Blocking client for the service's binary protocol v3.

A thin stdlib-socket wrapper over the protocol of
:mod:`repro.serve.server`, for scripts, smoke tests, and operators'
one-liners — anything that does not want an event loop of its own.
Each call sends one frame and blocks for its answer; an error frame
raises :class:`ServiceClientError` carrying the server-side exception
name.

The data-plane calls (:meth:`~ServiceClient.ping`,
:meth:`~ServiceClient.ingest`, :meth:`~ServiceClient.ingest_batch`,
:meth:`~ServiceClient.subscribe`) have their own opcodes and share one
reused encode buffer; the admin calls ride the JSON envelope
(:meth:`~ServiceClient.request`).
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Iterable, List, Mapping, Optional

from ..errors import ProtocolError, ServiceError
from ..model import Document
from . import wire
from .wire import WireDecoder, WireEncoder


class ServiceClientError(ServiceError):
    """An error frame; ``error`` names the server-side exception class
    (e.g. ``AdmissionError``)."""

    def __init__(self, error: str, message: str) -> None:
        super().__init__(f"{error}: {message}")
        self.error = error
        self.message = message


class ServiceClient:
    """One TCP connection speaking protocol v3.

    Connecting sends the :data:`~repro.serve.wire.HELLO` line; a server
    that does not answer with :data:`~repro.serve.wire.HELLO_ACK` is
    refused with :class:`~repro.errors.ProtocolError`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 10.0,
    ) -> None:
        self._sock = socket.create_connection(
            (host, port), timeout=timeout
        )
        self._file = self._sock.makefile("rwb")
        self._enc = WireEncoder()
        self._file.write(wire.HELLO)
        self._file.flush()
        ack = self._file.readline()
        if ack != wire.HELLO_ACK:
            self.close()
            raise ProtocolError(
                f"server did not acknowledge the protocol hello "
                f"(answered {ack[:40]!r})"
            )

    # -- plumbing ---------------------------------------------------------

    def _roundtrip_frame(self, frame: bytes) -> WireDecoder:
        """Send one frame; return a decoder past the OK status byte.

        Error frames raise :class:`ServiceClientError` with the
        server-side exception name.
        """
        self._file.write(frame)
        self._file.flush()
        header = self._file.read(4)
        if len(header) < 4:
            raise ServiceError("server closed the connection")
        length = wire.split_header(header)
        if length > wire.MAX_FRAME_BYTES:
            raise ProtocolError(
                f"response frame of {length} bytes exceeds the "
                f"{wire.MAX_FRAME_BYTES}-byte limit"
            )
        payload = self._file.read(length)
        if len(payload) < length:
            raise ServiceError("server closed the connection")
        dec = WireDecoder(payload)
        status = dec.u8()
        if status == wire.STATUS_OK:
            return dec
        if status == wire.STATUS_ERROR:
            error, message = wire.decode_error(dec)
            raise ServiceClientError(error, message)
        raise ProtocolError(f"unknown response status {status:#04x}")

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one admin request object in a JSON envelope frame;
        return the decoded ``{"ok": true, ...}`` response."""
        enc = self._enc.reset()
        enc.u8(wire.OP_JSON)
        enc.raw(json.dumps(payload, sort_keys=True).encode("utf-8"))
        return json.loads(self._roundtrip_frame(enc.frame()).string())

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- protocol surface -------------------------------------------------

    def ping(self) -> bool:
        """True when the server answers a ping in protocol v3."""
        enc = self._enc.reset()
        enc.u8(wire.OP_PING)
        dec = self._roundtrip_frame(enc.frame())
        return dec.varint() == wire.BINARY_PROTOCOL_VERSION

    def subscribe(self, items: Iterable[Any]) -> List[str]:
        """Register subscriptions; returns their ids in input order.

        Items are anything :meth:`DisseminationSystem.subscribe
        <repro.baselines.base.DisseminationSystem.subscribe>` takes:
        :class:`~repro.model.Filter` / :class:`~repro.model.
        Subscription` objects, bare query text (the server assigns
        the id), or ``(id, query[, owner])`` tuples.  A malformed
        query raises with ``error == "QueryError"``.
        """
        entries = list(items)
        enc = self._enc.reset()
        enc.u8(wire.OP_SUBSCRIBE)
        enc.varint(len(entries))
        for item in entries:
            wire.encode_subscribe_item(enc, item)
        dec = self._roundtrip_frame(enc.frame())
        return [dec.string() for _ in range(dec.varint())]

    def unregister(self, filter_id: str) -> None:
        self.request({"op": "unregister", "filter_id": filter_id})

    def finalize(self) -> None:
        self.request({"op": "finalize"})

    @staticmethod
    def _document(
        doc_id: str,
        terms: Optional[Iterable[str]],
        term_counts: Optional[Mapping[str, int]],
    ) -> Document:
        if term_counts is not None:
            counts = {t: int(c) for t, c in term_counts.items()}
            return Document(
                doc_id=doc_id, terms=frozenset(counts), term_counts=counts
            )
        if terms is not None:
            return Document.from_terms(doc_id, terms)
        raise ServiceError("ingest needs terms or term_counts")

    def ingest(
        self,
        doc_id: str,
        terms: Optional[Iterable[str]] = None,
        term_counts: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, Any]:
        """Publish one document; returns the plan summary
        (``matched`` filter ids, ``fanout``, ``posting_entries``)."""
        enc = self._enc.reset()
        enc.u8(wire.OP_INGEST)
        wire.encode_document(
            enc, self._document(doc_id, terms, term_counts)
        )
        summary = wire.decode_plan_summary(
            self._roundtrip_frame(enc.frame())
        )
        return {"doc_id": doc_id, **summary}

    def ingest_batch(
        self, docs: Iterable[Mapping[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Publish documents in one round trip; summaries in order.

        Each entry carries ``doc_id`` plus ``terms`` or
        ``term_counts``, the same shapes :meth:`ingest` takes.
        """
        entries = list(docs)
        if not entries:
            return []
        enc = self._enc.reset()
        enc.u8(wire.OP_INGEST_BATCH)
        enc.varint(len(entries))
        for entry in entries:
            wire.encode_document(
                enc,
                self._document(
                    entry["doc_id"],
                    entry.get("terms"),
                    entry.get("term_counts"),
                ),
            )
        plans = wire.decode_plans(self._roundtrip_frame(enc.frame()))
        for entry, plan in zip(entries, plans):
            plan["doc_id"] = entry["doc_id"]
        return plans

    def reallocate(
        self,
        force: bool = False,
        drift_epsilon: Optional[float] = None,
    ) -> Dict[str, Any]:
        return self.request(
            {
                "op": "reallocate",
                "force": force,
                "drift_epsilon": drift_epsilon,
            }
        )["report"]

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})["stats"]

    def metrics(self) -> str:
        """The Prometheus text exposition."""
        return self.request({"op": "metrics"})["metrics"]

    def checkpoint(self) -> Dict[str, Any]:
        """Ask the server to checkpoint its journal; returns the
        summary (lsn, snapshot path, segments removed, seconds)."""
        return self.request({"op": "checkpoint"})

    def matched_ids(self, doc_id: str, terms: Iterable[str]) -> List[str]:
        """Convenience: just the matched filter ids for one document."""
        return list(self.ingest(doc_id, terms=terms)["matched"])

    def shutdown(self) -> None:
        self.request({"op": "shutdown"})
