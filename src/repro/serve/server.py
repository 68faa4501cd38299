"""TCP front end for the service runtime: binary protocol v3.

A connection opens with the :data:`~repro.serve.wire.HELLO` line; the
server answers :data:`~repro.serve.wire.HELLO_ACK` and from then on
both sides speak the length-prefixed frames of
:mod:`repro.serve.wire`.  A first line that is not the hello is
answered with one ``ProtocolError`` error frame and the connection is
closed.

Data-plane ops have their own opcodes — ``OP_PING``, ``OP_INGEST``,
``OP_INGEST_BATCH`` and ``OP_SUBSCRIBE`` (filters, subscriptions,
query text, ``(id, query[, owner])`` tuples).  The cold admin ops ride
``OP_JSON``, whose body is one JSON object::

    {"op": "unregister", "filter_id": "f1"}
    {"op": "finalize"}
    {"op": "reallocate", "force": false, "drift_epsilon": null}
    {"op": "checkpoint"}
    {"op": "stats"}
    {"op": "metrics"}
    {"op": "shutdown"}

and whose answer is an OK frame carrying ``{"ok": true, ...}`` as JSON.
Every failure comes back as an error frame naming the exception class
(``AdmissionError`` for overload, ``QueryError`` for a malformed
query, ``ProtocolError`` for a corrupt or oversized frame, …), so
clients can react by type; after an error frame the connection keeps
serving.  :class:`~repro.serve.client.ServiceClient` is the blocking
client for all of it.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import asdict
from typing import Any, Dict, Optional

from ..errors import ProtocolError, ReproError, ServiceError
from . import wire
from .runtime import ServiceRuntime
from .wire import WireDecoder, WireEncoder


class ServiceServer:
    """Asyncio TCP server bridging protocol v3 frames to a runtime."""

    def __init__(
        self,
        runtime: ServiceRuntime,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = wire.MAX_FRAME_BYTES,
    ) -> None:
        self.runtime = runtime
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self._server: Optional[asyncio.AbstractServer] = None
        #: Live connection handler tasks and their writers;
        #: :meth:`close` ends them.
        self._handlers: Dict["asyncio.Task", asyncio.StreamWriter] = {}
        #: Set when a ``shutdown`` request asks the process to exit.
        self.shutdown_requested = asyncio.Event()

    async def start(self) -> None:
        """Start the runtime worker and bind the listener.

        With ``port=0`` the OS picks a free port; read the bound one
        back from :attr:`port` (the CLI prints it as ``READY``).
        """
        if self._server is not None:
            raise ServiceError("server already started")
        if not self.runtime.started:
            await self.runtime.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting, drain the runtime, then end connections.

        Every accepted request is answered before its connection ends.
        Closing a connection's transport ends its handler's read with
        end-of-stream, so each handler returns on its own and is
        awaited here: a handler task left for ``asyncio.run`` to
        cancel makes the stream protocol log a ``CancelledError``
        traceback.
        """
        if self._server is not None:
            self._server.close()
        await self.runtime.close()
        handlers = list(self._handlers.items())
        for _, writer in handlers:
            writer.close()
        if handlers:
            await asyncio.wait([task for task, _ in handlers])
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        self._handlers[task] = writer
        try:
            await self._serve_connection(reader, writer)
        except ConnectionError:
            pass  # the client went away mid-response
        finally:
            del self._handlers[task]

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """The hello exchange, then frames until the client leaves."""
        try:
            try:
                first = await reader.readline()
            except ValueError:  # no newline within the buffer limit
                first = b"<over-long line>"
            if first == wire.HELLO:
                await self._serve_frames(reader, writer)
            elif first:
                writer.write(
                    wire.error_frame(
                        WireEncoder(),
                        "ProtocolError",
                        f"expected the protocol hello {wire.HELLO!r} "
                        f"as the first line, got {first[:40]!r}",
                    )
                )
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_frames(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """The frame loop: one reused encoder per connection."""
        enc = WireEncoder()
        writer.write(wire.HELLO_ACK)
        await writer.drain()
        while True:
            try:
                header = await reader.readexactly(4)
            except asyncio.IncompleteReadError:
                return
            length = wire.split_header(header)
            if length > self.max_frame_bytes:
                # Reject but survive: drain the oversized payload so
                # the stream stays frame-aligned, answer with a typed
                # error, and keep serving this connection.
                await self._drain_payload(reader, length)
                writer.write(
                    wire.error_frame(
                        enc,
                        "ProtocolError",
                        f"frame of {length} bytes exceeds the "
                        f"{self.max_frame_bytes}-byte limit",
                    )
                )
                await writer.drain()
                continue
            try:
                payload = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return
            writer.write(await self._dispatch_frame(payload, enc))
            await writer.drain()

    @staticmethod
    async def _drain_payload(
        reader: asyncio.StreamReader, length: int
    ) -> None:
        remaining = length
        while remaining > 0:
            chunk = await reader.read(min(1 << 16, remaining))
            if not chunk:
                return
            remaining -= len(chunk)

    async def _dispatch_frame(
        self, payload: bytes, enc: WireEncoder
    ) -> bytes:
        """Decode, execute, and encode one binary request frame.

        Any decode failure — truncated varints, bad UTF-8, an unknown
        opcode, a malformed JSON envelope — comes back as a
        ``ProtocolError`` frame; runtime errors keep their own
        exception names.
        """
        runtime = self.runtime
        try:
            dec = WireDecoder(payload)
            opcode = dec.u8()
            if opcode == wire.OP_PING:
                enc.reset()
                enc.u8(wire.STATUS_OK)
                enc.varint(wire.BINARY_PROTOCOL_VERSION)
                return enc.frame()
            if opcode == wire.OP_INGEST:
                document = wire.decode_document(dec)
                plan = await runtime.ingest(document)
                enc.reset()
                enc.u8(wire.STATUS_OK)
                self._encode_plan(enc, plan)
                return enc.frame()
            if opcode == wire.OP_INGEST_BATCH:
                documents = [
                    wire.decode_document(dec)
                    for _ in range(dec.varint())
                ]
                plans = await runtime.ingest_batch(documents)
                enc.reset()
                enc.u8(wire.STATUS_OK)
                enc.varint(len(plans))
                for plan in plans:
                    self._encode_plan(enc, plan)
                return enc.frame()
            if opcode == wire.OP_SUBSCRIBE:
                items = [
                    wire.decode_subscribe_item(dec)
                    for _ in range(dec.varint())
                ]
                ids = await runtime.subscribe(items)
                enc.reset()
                enc.u8(wire.STATUS_OK)
                enc.varint(len(ids))
                for assigned in ids:
                    enc.string(assigned)
                return enc.frame()
            if opcode == wire.OP_JSON:
                response = await self._dispatch_json(payload[1:])
                enc.reset()
                enc.u8(wire.STATUS_OK)
                enc.string(json.dumps(response, sort_keys=True))
                return enc.frame()
            raise ProtocolError(f"unknown opcode {opcode:#04x}")
        except (ReproError, ValueError, KeyError, TypeError) as error:
            return wire.error_frame(
                enc, type(error).__name__, str(error)
            )

    @staticmethod
    def _encode_plan(enc: WireEncoder, plan) -> None:
        wire.encode_plan_summary(
            enc,
            plan.matched_ids,
            plan.fanout,
            plan.total_posting_entries,
        )

    async def _dispatch_json(self, body: bytes) -> Dict[str, Any]:
        """Run one admin op from an ``OP_JSON`` envelope."""
        try:
            request = json.loads(body)
        except ValueError as error:  # also bad UTF-8
            raise ProtocolError(f"bad JSON envelope: {error}") from None
        if not isinstance(request, dict) or "op" not in request:
            raise ProtocolError("request must be an object with 'op'")
        op = request["op"]
        runtime = self.runtime
        if op == "unregister":
            filter_id = request["filter_id"]
            if not isinstance(filter_id, str):
                raise ProtocolError("'filter_id' must be a string")
            removed = await runtime.unregister(filter_id)
            return {"ok": True, "filter_id": removed.filter_id}
        if op == "finalize":
            await runtime.command("finalize")
            return {"ok": True}
        if op == "checkpoint":
            report = await runtime.checkpoint()
            return {"ok": True, **report}
        if op == "reallocate":
            report = await runtime.command(
                "reallocate",
                request.get("force", False),
                request.get("drift_epsilon"),
            )
            return {"ok": True, "report": _report_tags(report)}
        if op == "stats":
            return {"ok": True, "stats": asdict(runtime.system.stats())}
        if op == "metrics":
            return {"ok": True, "metrics": runtime.prometheus_text()}
        if op == "shutdown":
            self.shutdown_requested.set()
            return {"ok": True, "draining": True}
        raise ProtocolError(f"unknown op {op!r}")


def _report_tags(report) -> Dict[str, Any]:
    """JSON-safe view of a ReallocationReport (or None)."""
    if report is None:
        return {}
    as_tags = getattr(report, "as_tags", None)
    if as_tags is not None:
        return dict(as_tags())
    return {"repr": repr(report)}
