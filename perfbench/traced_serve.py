"""``repro serve`` with the layers' entry points wrapped in spans.

Run exactly like ``python -m repro serve ...``.  Before handing over
to the CLI it installs a span collector as the default tracer (so the
pipeline's own stage spans are on) and wraps, from outside, the public
entry points of the wire, runtime, journal and subscription layers.
Nothing under ``src/`` changes.

``SIGUSR1`` writes the cumulative per-span totals as JSON to
``$PERFBENCH_TRACE_OUT`` (atomically); ``SIGUSR2`` toggles tracing off
and on, which is how the benchmark measures the tracing overhead.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import SelfTimes  # noqa: E402

from repro.__main__ import main  # noqa: E402
from repro.cluster.storage import WalWriter  # noqa: E402
from repro.obs import Tracer, set_default_tracer  # noqa: E402
from repro.serve import journal, wire  # noqa: E402
from repro.serve.runtime import ServiceRuntime  # noqa: E402
from repro.serve.server import ServiceServer  # noqa: E402

#: ``<lsn u64><len u32><crc u32>`` — the WAL frame header per record.
WAL_FRAME_HEADER = 16
#: Binary journal record prefix of a ``publish_batch`` record.
PUBLISH_RECORD = bytes([wire.RECORD_MAGIC, 0x01])


class Collector(Tracer):
    """A tracer that folds spans into self-time totals as they end
    instead of keeping them (a long run would otherwise hold millions
    of spans)."""

    def __init__(self) -> None:
        super().__init__()
        self.times = SelfTimes(
            sampled=(
                "journal.fsync",
                "reallocate",
                "checkpoint",
                "recovery",
            )
        )
        self.counters = {
            "queue_wait_s": [],
            "fsync_records": 0,
            "fsyncs": 0,
            "publish_wal_bytes": 0,
        }
        #: id(document) -> time its ingest_batch call arrived.
        self.enqueued = {}

    def _record(self, span) -> None:
        self.times.add(
            span.name,
            span.span_id,
            span.parent_id,
            span.end - span.start,
            span.tags.get("items", 1),
        )

    def dump(self, path: str) -> None:
        payload = {"spans": self.times.snapshot(), "counters": self.counters}
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


TRACER = Collector()


def spanned(name, count=None):
    """Wrap a synchronous function in a span named ``name``."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not TRACER.enabled:
                return fn(*args, **kwargs)
            items = count(*args, **kwargs) if count else 1
            with TRACER.span(name, items=items):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def _encode_record(enc, record):
    if not TRACER.enabled:
        return _orig_encode_record(enc, record)
    op = record["op"]
    name = "journal.encode" if op == "publish_batch" else f"journal.encode_{op}"
    with TRACER.span(name):
        return _orig_encode_record(enc, record)


def _append(self, payload):
    if not TRACER.enabled:
        return _orig_append(self, payload)
    publish = payload[:2] == PUBLISH_RECORD
    if publish:
        TRACER.counters["publish_wal_bytes"] += len(payload) + WAL_FRAME_HEADER
    with TRACER.span("journal.append" if publish else "journal.append_other"):
        return _orig_append(self, payload)


def _end_group(self):
    if not TRACER.enabled:
        return _orig_end_group(self)
    with TRACER.span("journal.fsync"):
        covered = _orig_end_group(self)
    if covered:
        TRACER.counters["fsync_records"] += covered
        TRACER.counters["fsyncs"] += 1
    return covered


def _publish_batch(self, documents):
    if not TRACER.enabled:
        return _orig_publish_batch(self, documents)
    now = time.perf_counter()
    waits = TRACER.counters["queue_wait_s"]
    for document in documents:
        queued = TRACER.enqueued.pop(id(document), None)
        if queued is not None:
            waits.append(now - queued)
    with TRACER.span("journal.publish", items=len(documents)):
        return _orig_publish_batch(self, documents)


async def _ingest_batch(self, documents):
    if TRACER.enabled:
        now = time.perf_counter()
        for document in documents:
            TRACER.enqueued[id(document)] = now
    return await _orig_ingest_batch(self, documents)


_orig_encode_record = journal.encode_record
_orig_append = WalWriter.append
_orig_end_group = WalWriter.end_group
_orig_publish_batch = journal.JournaledSystem.publish_batch
_orig_ingest_batch = ServiceRuntime.ingest_batch


def install() -> None:
    set_default_tracer(TRACER)
    wire.decode_document = spanned("wire.decode")(wire.decode_document)
    ServiceServer._encode_plan = staticmethod(
        spanned("wire.encode")(ServiceServer._encode_plan)
    )
    journal.encode_record = _encode_record
    WalWriter.append = _append
    WalWriter.end_group = _end_group
    journal.JournaledSystem.publish_batch = _publish_batch
    ServiceRuntime.ingest_batch = _ingest_batch
    journal.JournaledSystem.subscribe = spanned(
        "subscribe", count=lambda self, items, **_: len(items)
    )(journal.JournaledSystem.subscribe)
    journal.JournaledSystem.unregister = spanned("unregister")(
        journal.JournaledSystem.unregister
    )
    journal.JournaledSystem.replay_record = spanned("journal.replay")(
        journal.JournaledSystem.replay_record
    )
    out = os.environ["PERFBENCH_TRACE_OUT"]
    signal.signal(signal.SIGUSR1, lambda *_: TRACER.dump(out))

    def toggle(*_):
        TRACER.enabled = not TRACER.enabled

    signal.signal(signal.SIGUSR2, toggle)


if __name__ == "__main__":
    install()
    sys.exit(main(sys.argv[1:]))
