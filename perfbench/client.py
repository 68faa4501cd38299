"""Asyncio client for the service's binary protocol (v3).

The benchmark drives the server with pre-encoded request bodies, so a
send is one ``bytes`` join and a receive is one frame read; decoding
the plan responses is deferred until the timed phase is over (and
timed on its own as ``client.resp_decode_us_per_doc``).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Sequence, Tuple

from repro.model import Document
from repro.serve import wire

HOST = "127.0.0.1"


class ServerError(RuntimeError):
    """An error frame from the server: ``name`` is the exception class."""

    def __init__(self, name: str, message: str) -> None:
        super().__init__(f"{name}: {message}")
        self.name = name


def encode_body(document: Document) -> bytes:
    """One document in the ``ingest_batch`` wire form."""
    enc = wire.WireEncoder()
    wire.encode_document(enc, document)
    return bytes(enc.buf)


def ingest_frame(bodies: Sequence[bytes]) -> bytes:
    enc = wire.WireEncoder()
    enc.u8(wire.OP_INGEST_BATCH)
    enc.varint(len(bodies))
    head = bytes(enc.buf)
    payload_len = len(head) + sum(len(b) for b in bodies)
    return wire.pack_length(payload_len) + head + b"".join(bodies)


def check_status(payload: bytes) -> wire.WireDecoder:
    """A decoder past the OK status byte; raises on an error frame."""
    dec = wire.WireDecoder(payload)
    if dec.u8() != wire.STATUS_OK:
        name, message = wire.decode_error(dec)
        raise ServerError(name, message)
    return dec


def decode_plans(payload: bytes) -> List[Tuple[List[str], int, int, int]]:
    """``(matched, fanout, posting_entries, encoded_bytes)`` per plan."""
    dec = check_status(payload)
    plans = []
    for _ in range(dec.varint()):
        start = dec.pos
        summary = wire.decode_plan_summary(dec)
        plans.append(
            (
                summary["matched"],
                summary["fanout"],
                summary["posting_entries"],
                dec.pos - start,
            )
        )
    return plans


class Connection:
    """One negotiated binary connection with one request in flight."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(HOST, port)
        writer.write(wire.HELLO)
        ack = await reader.readline()
        if ack != wire.HELLO_ACK:
            writer.close()
            raise ServerError("ProtocolError", f"hello refused: {ack!r}")
        return cls(reader, writer)

    async def roundtrip(self, frame: bytes) -> bytes:
        """Send one frame; return the response payload (raw bytes)."""
        self.writer.write(frame)
        header = await self.reader.readexactly(4)
        return await self.reader.readexactly(wire.split_header(header))

    async def request(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        """A JSON-envelope request (the non-hot ops)."""
        enc = wire.WireEncoder()
        enc.u8(wire.OP_JSON)
        enc.raw(json.dumps(obj).encode("utf-8"))
        response = json.loads(check_status(await self.roundtrip(enc.frame())).string())
        if not response.get("ok"):
            raise ServerError(
                response.get("error", "unknown"), response.get("message", "")
            )
        return response

    async def subscribe(self, items: Sequence[Any]) -> List[str]:
        enc = wire.WireEncoder()
        enc.u8(wire.OP_SUBSCRIBE)
        enc.varint(len(items))
        for item in items:
            wire.encode_subscribe_item(enc, item)
        dec = check_status(await self.roundtrip(enc.frame()))
        return [dec.string() for _ in range(dec.varint())]

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
