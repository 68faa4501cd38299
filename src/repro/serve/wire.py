"""The binary codec: the TCP protocol's frames and the WAL's records.

One compact encoding serves both sides of the service:

- the **protocol v3** frames of :mod:`repro.serve.server` /
  :mod:`repro.serve.client` — length-prefixed binary request/response
  frames, the only format the server speaks;
- the **journal record codec** of :mod:`repro.serve.journal` — every
  write-ahead-log record, from ``setup`` to ``checkpoint``, is
  encoded here once per append.

The primitives are deliberately boring: unsigned LEB128 varints and
``varint length + UTF-8`` strings, written into a caller-owned
:class:`WireEncoder` so a connection (or the journal) reuses one
growable buffer instead of allocating per message.  Every decode
failure — truncation, bad UTF-8, an unknown tag, a value the model
rejects — raises :class:`~repro.errors.ProtocolError` and nothing
else.

Canonical term order
--------------------
Documents and filters are always encoded with their terms in sorted
order.  That makes the *decoded* object construction deterministic,
so a crash replay that rebuilds a :class:`~repro.model.Document` from
bytes constructs it exactly like the live apply path did (see
:meth:`repro.serve.journal.JournaledSystem._log_and_apply`).

The decoder checks the order as it scans.  A document whose terms
arrived strictly increasing (with minimal varints) is in the form the
encoder would write, so it keeps the bytes it was decoded from
(:func:`received_bytes`) and :func:`encode_document` appends them
verbatim: journalling an ``OP_INGEST_BATCH`` copies the request body
into the ``publish_batch`` record instead of encoding each document
again.  A document that arrived out of order or with a repeated term
carries no bytes and is re-encoded in sorted order.

Frame format (protocol v3)
--------------------------
``<u32 length (little-endian)> <payload>`` where a request payload is
``<u8 opcode> <body>`` and a response payload is ``<u8 status>
<body>`` (status 0 = ok, 1 = error carrying ``str error_name`` +
``str message``).  A connection opens with the :data:`HELLO` /
:data:`HELLO_ACK` line exchange; everything after the ack is frames.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ProtocolError
from ..model import Document, Filter, Subscription

#: Client → server opening line.  Any other first line is refused
#: with a ``ProtocolError`` frame and the connection is closed.
HELLO = b"\x00MV3\n"
#: Server → client answer to :data:`HELLO`: speak frames from here on.
HELLO_ACK = b"\x00MV3 3\n"

#: Protocol version spoken after a successful hello exchange.
BINARY_PROTOCOL_VERSION = 3

#: Hard ceiling on one frame's payload (requests and responses); a
#: length prefix above this is rejected with :class:`ProtocolError`
#: and the oversized payload is drained so the connection survives.
MAX_FRAME_BYTES = 32 << 20

#: Request opcodes.  The data-plane ops have their own opcodes; the
#: cold admin ops (unregister, finalize, reallocate, checkpoint,
#: stats, metrics, shutdown) ride OP_JSON as one JSON object.
OP_JSON = 0x00
OP_PING = 0x01
OP_INGEST = 0x02
OP_INGEST_BATCH = 0x03
OP_SUBSCRIBE = 0x04

#: Response status bytes.
STATUS_OK = 0x00
STATUS_ERROR = 0x01

_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")

# -- varint / string primitives -------------------------------------------


class WireEncoder:
    """A reusable growable encode buffer.

    ``reset()`` truncates without reallocating, so a long-lived
    connection amortizes the buffer across every frame it sends.
    """

    __slots__ = ("buf",)

    def __init__(self) -> None:
        self.buf = bytearray()

    def reset(self) -> "WireEncoder":
        del self.buf[:]
        return self

    # Primitive writers ---------------------------------------------------

    def u8(self, value: int) -> None:
        self.buf.append(value)

    def varint(self, value: int) -> None:
        if value < 0:
            raise ProtocolError(f"varint cannot encode negative {value}")
        buf = self.buf
        while value >= 0x80:
            buf.append((value & 0x7F) | 0x80)
            value >>= 7
        buf.append(value)

    def string(self, value: str) -> None:
        raw = value.encode("utf-8")
        self.varint(len(raw))
        self.buf += raw

    def raw(self, value: bytes) -> None:
        self.buf += value

    def optional_f64(self, value: Optional[float]) -> None:
        """``u8 0`` for None, else ``u8 1`` + a little-endian double."""
        if value is None:
            self.buf.append(0)
        else:
            self.buf.append(1)
            self.buf += _F64.pack(value)

    # Framing -------------------------------------------------------------

    def frame(self) -> bytes:
        """The buffer's contents as one length-prefixed frame."""
        return _U32.pack(len(self.buf)) + bytes(self.buf)


class WireDecoder:
    """Sequential reader over one frame's payload bytes."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def _need(self, count: int) -> None:
        if self.pos + count > len(self.data):
            raise ProtocolError(
                f"truncated frame: needed {count} bytes at offset "
                f"{self.pos}, have {len(self.data) - self.pos}"
            )

    def u8(self) -> int:
        self._need(1)
        value = self.data[self.pos]
        self.pos += 1
        return value

    def varint(self) -> int:
        data = self.data
        pos = self.pos
        result = 0
        shift = 0
        while True:
            if pos >= len(data):
                raise ProtocolError("truncated varint")
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 63:
                raise ProtocolError("varint overflow (more than 9 bytes)")
        self.pos = pos
        return result

    def string(self) -> str:
        length = self.varint()
        self._need(length)
        try:
            value = self.data[self.pos:self.pos + length].decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(
                f"string at offset {self.pos} is not UTF-8: {error}"
            ) from None
        self.pos += length
        return value

    def optional_f64(self) -> Optional[float]:
        present = self.u8()
        if present == 0:
            return None
        if present != 1:
            raise ProtocolError(f"bad optional marker {present}")
        self._need(_F64.size)
        (value,) = _F64.unpack_from(self.data, self.pos)
        self.pos += _F64.size
        return value

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.data)


# -- document / filter / plan codecs --------------------------------------


#: Instance-dict key under which :func:`decode_document` keeps the
#: bytes a canonical document was decoded from.
_RECEIVED = "_wire_bytes"


def received_bytes(document: Document) -> Optional[bytes]:
    """The canonical encoding ``document`` was decoded from, or None.

    Only :func:`decode_document` sets it, and only for bytes already
    in the form :func:`encode_document` writes, so the two are
    interchangeable.
    """
    return document.__dict__.get(_RECEIVED)


def encode_document(enc: WireEncoder, document: Document) -> None:
    """``str doc_id, varint n, [str term, varint count]`` sorted.

    A document decoded from canonical bytes is written as those
    bytes, verbatim.
    """
    received = received_bytes(document)
    if received is not None:
        enc.buf += received
        return
    enc.string(document.doc_id)
    counts = document.term_counts
    enc.varint(len(counts))
    for term in sorted(counts):
        enc.string(term)
        enc.varint(counts[term])


def _long_varint(dec: WireDecoder, pos: int) -> Tuple[int, int, bool]:
    """A varint of two or more bytes at ``pos``: ``(value, end,
    minimal)``.  An over-long encoding (a trailing zero group) still
    decodes but is not the form the encoder writes."""
    dec.pos = pos
    value = dec.varint()
    return value, dec.pos, dec.data[dec.pos - 1] != 0


def decode_document(dec: WireDecoder) -> Document:
    """The inverse of :func:`encode_document`, in one scan of the bytes.

    Lengths and counts below 128 (one varint byte) are read inline;
    longer varints go through :meth:`WireDecoder.varint` and its
    overflow check.  Terms that arrive strictly increasing, with
    minimal varints, are the canonical form: the document then keeps
    its bytes (see :func:`received_bytes`).  Unsorted or repeated
    terms still decode — a repeated term keeps its last count — but
    the document is re-encoded canonically when it is journalled.
    """
    data = dec.data
    size = len(data)
    start = pos = dec.pos
    canonical = True
    try:
        length = data[pos]
        if length < 0x80:
            pos += 1
        else:
            length, pos, canonical = _long_varint(dec, pos)
        end = pos + length
        if end > size:
            raise IndexError
        doc_id = data[pos:end].decode("utf-8")
        count = data[end]
        if count < 0x80:
            pos = end + 1
        else:
            count, pos, minimal = _long_varint(dec, end)
            canonical = canonical and minimal
        counts: Dict[str, int] = {}
        previous = ""
        for _ in range(count):
            length = data[pos]
            if length < 0x80:
                pos += 1
            else:
                length, pos, minimal = _long_varint(dec, pos)
                canonical = canonical and minimal
            end = pos + length
            if end > size:
                raise IndexError
            term = data[pos:end].decode("utf-8")
            value = data[end]
            if value < 0x80:
                pos = end + 1
            else:
                value, pos, minimal = _long_varint(dec, end)
                canonical = canonical and minimal
            if term < previous:
                canonical = False
            previous = term
            counts[term] = value
    except IndexError:
        raise ProtocolError(
            f"truncated document at offset {start}"
        ) from None
    except UnicodeDecodeError as error:
        raise ProtocolError(
            f"document at offset {start} is not UTF-8: {error}"
        ) from None
    dec.pos = pos
    document = Document(
        doc_id=doc_id, terms=frozenset(counts), term_counts=counts
    )
    if canonical and len(counts) == count:
        object.__setattr__(document, _RECEIVED, data[start:pos])
    return document


def encode_filter(enc: WireEncoder, profile: Filter) -> None:
    enc.string(profile.filter_id)
    enc.string(profile.owner)
    enc.varint(len(profile.terms))
    for term in sorted(profile.terms):
        enc.string(term)


def _decode_terms(dec: WireDecoder, filter_id: str) -> frozenset:
    terms = frozenset(dec.string() for _ in range(dec.varint()))
    if not terms:
        raise ProtocolError(f"filter {filter_id!r} has no terms")
    return terms


def decode_filter(dec: WireDecoder) -> Filter:
    filter_id = dec.string()
    owner = dec.string()
    terms = _decode_terms(dec, filter_id)
    return Filter(filter_id=filter_id, terms=terms, owner=owner)


#: Subscribe item kind tags (see ``encode_subscribe_item``).
_ITEM_FILTER = 0
_ITEM_QUERY = 1
_ITEM_PAIR = 2
_ITEM_SUBSCRIPTION = 3


def encode_subscribe_item(enc: WireEncoder, item: Any) -> None:
    """Encode one ``subscribe`` item *preserving its input shape*.

    Bare query text stays bare text: replay re-runs ``subscribe`` on
    the decoded items, and resolving auto-assigned ids at encode time
    would desynchronize the id sequence between live and recovered
    twins.
    """
    if isinstance(item, Subscription):
        enc.u8(_ITEM_SUBSCRIPTION)
        enc.string(item.filter_id)
        enc.string(item.owner)
        enc.string(item.query)
        enc.varint(len(item.terms))
        for term in sorted(item.terms):
            enc.string(term)
    elif isinstance(item, Filter):
        enc.u8(_ITEM_FILTER)
        encode_filter(enc, item)
    elif isinstance(item, str):
        enc.u8(_ITEM_QUERY)
        enc.string(item)
    elif isinstance(item, tuple):
        enc.u8(_ITEM_PAIR)
        enc.varint(len(item))
        for value in item:
            enc.string(str(value))
    else:
        raise ProtocolError(
            f"cannot encode subscription item of type "
            f"{type(item).__name__}"
        )


def decode_subscribe_item(dec: WireDecoder) -> Any:
    kind = dec.u8()
    if kind == _ITEM_SUBSCRIPTION:
        filter_id = dec.string()
        owner = dec.string()
        query = dec.string()
        return Subscription(
            filter_id=filter_id,
            terms=_decode_terms(dec, filter_id),
            owner=owner,
            query=query,
        )
    if kind == _ITEM_FILTER:
        return decode_filter(dec)
    if kind == _ITEM_QUERY:
        return dec.string()
    if kind == _ITEM_PAIR:
        return tuple(dec.string() for _ in range(dec.varint()))
    raise ProtocolError(f"unknown subscribe item kind {kind}")


def encode_plan_summary(
    enc: WireEncoder,
    matched: Sequence[str],
    fanout: int,
    posting_entries: int,
) -> None:
    """The ``ingest`` response body: matched ids + fanout accounting.

    An ASCII id shorter than 128 bytes encodes as ``chr(len)`` then
    the id, so the whole list is one join; one ``isascii()`` on the
    joined text checks both conditions for every id at once.  The
    length prefixes go to the even slots of the join list and the ids
    to the odd ones, which spares a concatenated string per id.
    """
    enc.varint(len(matched))
    parts = [""] * (2 * len(matched))
    parts[::2] = [chr(len(i)) for i in matched]
    parts[1::2] = matched
    joined = "".join(parts)
    if joined.isascii():
        enc.buf += joined.encode("ascii")
    else:
        for filter_id in matched:
            enc.string(filter_id)
    enc.varint(fanout)
    enc.varint(posting_entries)


def decode_plan_summary(dec: WireDecoder) -> Dict[str, Any]:
    matched = [dec.string() for _ in range(dec.varint())]
    return {
        "matched": matched,
        "fanout": dec.varint(),
        "posting_entries": dec.varint(),
    }


# -- WAL record codec ------------------------------------------------------

#: First byte of every journal record.
RECORD_MAGIC = 0xB1

#: Second byte: the record's op.  Tag 0x02 belonged to the retired
#: ``register_batch`` record; it stays reserved and is never reused.
_RECORD_TAGS = {
    "publish_batch": 0x01,
    "subscribe": 0x03,
    "setup": 0x04,
    "unregister": 0x05,
    "finalize": 0x06,
    "seed_frequencies": 0x07,
    "reallocate": 0x08,
    "rebalance": 0x09,
    "checkpoint": 0x0A,
}
_RECORD_OPS = {tag: op for op, tag in _RECORD_TAGS.items()}


def encode_record(enc: WireEncoder, record: Dict[str, Any]) -> bytes:
    """Encode one journal record into bytes.

    ``record`` is ``{"op": ..., <fields>}`` carrying live model objects
    (``Document`` / ``Filter`` / subscribe items); the codec is the
    canonicalization step, so what :func:`decode_record` returns is
    the same record.
    """
    enc.reset()
    op = record["op"]
    tag = _RECORD_TAGS.get(op)
    if tag is None:
        raise ProtocolError(f"no record codec for journal op {op!r}")
    enc.u8(RECORD_MAGIC)
    enc.u8(tag)
    if op in ("publish_batch", "seed_frequencies"):
        docs = record["docs"]
        enc.varint(len(docs))
        for document in docs:
            encode_document(enc, document)
    elif op == "subscribe":
        chunk_size = record["chunk_size"]
        enc.varint(0 if chunk_size is None else chunk_size + 1)
        items = record["items"]
        enc.varint(len(items))
        for item in items:
            encode_subscribe_item(enc, item)
    elif op == "setup":
        enc.string(record["scheme"])
        enc.varint(record["num_nodes"])
        enc.varint(record["node_capacity"])
        seed = record["seed"]  # zigzag: seeds may be negative
        enc.varint(seed << 1 if seed >= 0 else (-seed << 1) - 1)
        enc.optional_f64(record["threshold"])
    elif op == "unregister":
        enc.string(record["filter_id"])
    elif op == "reallocate":
        enc.u8(1 if record["force"] else 0)
        enc.optional_f64(record["drift_epsilon"])
    elif op == "checkpoint":
        enc.varint(record["lsn"])
    return bytes(enc.buf)


def decode_record(payload: bytes) -> Dict[str, Any]:
    """Decode one journal record into its apply form.

    Documents and filters come back in the canonical sorted-term
    order, so replay constructs the same inputs the live apply did.
    """
    dec = WireDecoder(payload)
    if dec.u8() != RECORD_MAGIC:
        raise ProtocolError("not a binary journal record")
    tag = dec.u8()
    op = _RECORD_OPS.get(tag)
    if op is None:
        raise ProtocolError(f"unknown record tag {tag:#04x}")
    record: Dict[str, Any] = {"op": op}
    if op in ("publish_batch", "seed_frequencies"):
        record["docs"] = [
            decode_document(dec) for _ in range(dec.varint())
        ]
    elif op == "subscribe":
        raw_chunk = dec.varint()
        record["chunk_size"] = None if raw_chunk == 0 else raw_chunk - 1
        record["items"] = [
            decode_subscribe_item(dec) for _ in range(dec.varint())
        ]
    elif op == "setup":
        record["scheme"] = dec.string()
        record["num_nodes"] = dec.varint()
        record["node_capacity"] = dec.varint()
        seed = dec.varint()
        record["seed"] = -((seed + 1) >> 1) if seed & 1 else seed >> 1
        record["threshold"] = dec.optional_f64()
    elif op == "unregister":
        record["filter_id"] = dec.string()
    elif op == "reallocate":
        record["force"] = dec.u8() != 0
        record["drift_epsilon"] = dec.optional_f64()
    elif op == "checkpoint":
        record["lsn"] = dec.varint()
    if not dec.exhausted:
        raise ProtocolError(
            f"{len(payload) - dec.pos} trailing bytes after a {op} record"
        )
    return record


# -- frame helpers ---------------------------------------------------------


def error_frame(enc: WireEncoder, error: str, message: str) -> bytes:
    enc.reset()
    enc.u8(STATUS_ERROR)
    enc.string(error)
    enc.string(message)
    return enc.frame()


def split_header(header: bytes) -> int:
    """Payload length from a 4-byte frame header."""
    if len(header) != 4:
        raise ProtocolError("truncated frame header")
    return _U32.unpack(header)[0]


def pack_length(length: int) -> bytes:
    return _U32.pack(length)


def decode_error(dec: WireDecoder) -> Tuple[str, str]:
    """The (error name, message) pair of a STATUS_ERROR body."""
    return dec.string(), dec.string()


def decode_plans(dec: WireDecoder) -> List[Dict[str, Any]]:
    return [decode_plan_summary(dec) for _ in range(dec.varint())]
