"""One benchmark run: set-ups, then rounds of open loop, closed loop
and recovery.

1. **set-up** (``setup_s``, the median of three), each a fresh server:
   spawn, register every filter over the wire, finalize, ingest the
   bootstrap corpus and force one reallocation.  Set-up 1's server
   carries the open loop, set-up 2's the closed loop; set-up 3's server
   takes a checkpoint and a fixed tail of batches and is killed with
   ``kill -9``: its WAL and snapshot directory is what recovery reboots.
2. **measurement**, ``--seconds`` long plus the reboots, in PIECES
   rounds; each round is an open-loop piece (60 % of the round's
   seconds), a drift-gated reallocation and connection B's burst of
   subscribe/unregister churn on the open-loop server, a closed-loop
   piece (40 %) and one reboot, so every metric is sampled across the
   whole run.  The open-loop server's total order of operations is a
   function of the seed.
   - open loop: connection A sends, whenever it is free, every document
     that has come due as one ``ingest_batch``; each document's latency
     runs from its scheduled time (each piece restarts the schedule, at
     the workload's rate scaled by the host's speed, below).
   - churn (``subscribe_p50_ms``): CHURN_TURNS single-item subscribes
     and unregisters, back to back.
   - closed loop: two connections, 16-document batches, back to back
     (``docs_per_s``).
   - recovery (``recovery_s``): a reboot on a fresh copy of set-up 3's
     crashed WAL and snapshot directory, timed from spawn to READY.
3. Then, on the open-loop server, a checkpoint (its snapshot size is a
   count) and the peak RSS.

The host's speed swings by up to 1.7x in phases from seconds to
minutes long, on both CPUs at once.  So a short fixed probe loop is
timed on the server's CPU between every two phases (set-ups, pieces,
reboots), while no server is busy, and every timing is scaled to the
speed of a reference host: a phase's time is multiplied by
REFERENCE_PROBE_S over the mean of the probes on either side of it.
An open-loop piece also offers its documents at the workload's rate
times the speed the last probe showed, so that on a slow host the
whole piece — arrivals and work — runs slower by one factor, and the
scaled latencies are those of the reference host at the workload's own
rate.  See README.md.
"""
from __future__ import annotations

import asyncio
import gc
import json
import os
import re
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import stats
from client import Connection, ServerError, decode_plans, ingest_frame
from server import Server, cpu_split
from workloads import CHURN_PREFIX, Inputs, Spec, build_inputs

SUBSCRIBE_CHUNK = 1_000
LEARNING_CHUNK = 50
CLOSED_BATCH = 16
TAIL_BATCHES = 16
#: At most this many churned subscriptions are live at once.
CHURN_LIVE = 40
#: Connection B's single-item subscribe/unregister turns per round.
CHURN_TURNS = 60
#: Drift threshold handed to the reallocations between pieces.
DRIFT_EPSILON = 0.05
#: Share of each round spent in the open loop.
OPEN_SHARE = 0.6
#: A round starts only once the fsync probe is below this (it reads
#: 0.08-0.4 ms on a quiet disk), waiting at most MAX_QUIET_WAIT_S
#: per run: the WAL's fsync is on every ack's path, and a neighbour's
#: burst of disk work multiplies ack latency without slowing the CPU.
QUIET_FSYNC_S = 0.001
MAX_QUIET_WAIT_S = 15.0
QUIET_POLL_S = 0.5
#: Bounds on the factor an open-loop piece scales its rate by.
MAX_SPEED_HINT = 2.0
#: Measurement rounds per run: one open-loop piece, one closed-loop
#: piece and one reboot each.
PIECES = 10
#: Open-loop validity limits.
MAX_LATE_P90_S = 0.005
MAX_BACKLOG_S = 0.25
REQUEST_TIMEOUT_S = 60.0

#: Counts that must repeat exactly for a seed (the steadiness mode
#: asserts this across runs).
COUNT_METRICS = (
    "wire.req_bytes_per_doc",
    "wire.resp_bytes_per_doc",
    "matching.postings_per_doc",
    "matching.matched_per_doc",
    "route.fanout_per_doc",
    "alloc.reallocations_executed",
    "snapshot.mb",
    "recovery.replayed_records",
)


class InvalidRun(RuntimeError):
    """The open loop fell behind its schedule: no latency is reported."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    errors: List[str] = field(default_factory=list)


@dataclass
class ChurnOp:
    kind: str
    item: object = None


#: Keys of the probe loop: short strings, as the server's terms are.
PROBE_WORDS = [f"t{i}" for i in range(2_000)]
#: The probe's time on the reference host.  Every end-to-end timing is
#: reported as if the host ran the probe in this time (about its median
#: on a 2-vCPU Xeon guest of a shared host).
REFERENCE_PROBE_S = 0.060


def fsync_probe_s(path: Path) -> float:
    """The median time of a few small appends made durable with fsync:
    how busy the disk under the WAL is with other work."""
    times = []
    with open(path, "ab") as handle:
        for _ in range(5):
            started = time.perf_counter()
            handle.write(b"x" * 64)
            handle.flush()
            os.fsync(handle.fileno())
            times.append(time.perf_counter() - started)
    return statistics.median(times)


def probe_s() -> float:
    """A fixed pure-Python loop of the server's kind of work — string
    keyed dict updates and set intersections; its time tracks the
    host's speed."""
    started = time.perf_counter()
    table: Dict[str, int] = {}
    words = PROBE_WORDS
    for _ in range(160):
        for word in words:
            table[word] = table.get(word, 0) + 1
        set(words[:1_000]) & set(words[500:])
    return time.perf_counter() - started


def churn_rounds(items: list, rounds: int) -> List[List[ChurnOp]]:
    """Connection B's operations, CHURN_TURNS a round: subscribes until
    CHURN_LIVE churn filters are live, then alternating unregister and
    subscribe.  The last round also unregisters whatever is still live.
    """
    out: List[List[ChurnOp]] = []
    live: List[object] = []
    fresh = iter(items)
    turn = 0
    for _ in range(rounds):
        ops: List[ChurnOp] = []
        for _ in range(CHURN_TURNS):
            if len(live) >= CHURN_LIVE or (turn >= CHURN_LIVE and turn % 2):
                ops.append(ChurnOp("unregister", live.pop(0)))
            else:
                item = next(fresh)
                ops.append(ChurnOp("subscribe", item))
                live.append(item)
            turn += 1
        out.append(ops)
    out[-1].extend(ChurnOp("unregister", item) for item in live)
    return out


def piece_bounds(count: int, pieces: int) -> List[int]:
    """Where each of ``pieces`` near-equal runs of ``count`` documents
    ends."""
    return [count * (k + 1) // pieces for k in range(pieces)]


def piece_percentiles(
    values: List[float], bounds: List[int], q: float
) -> List[float]:
    """The ``q`` percentile of each piece of ``values``."""
    starts = [0] + bounds[:-1]
    return [
        stats.percentile(values[start:end], q)
        for start, end in zip(starts, bounds)
    ]


@dataclass
class OpenLoop:
    """The open loop's state across its pieces."""

    inputs: Inputs
    latencies: List[float]
    waits: List[float]
    late: List[float] = field(default_factory=list)
    responses: List[Tuple[int, int, bytes]] = field(default_factory=list)
    op_s: Dict[str, list] = field(default_factory=dict)
    backlogs: List[int] = field(default_factory=list)
    #: Connection B's subscribe latencies, piece by piece.
    subscribe_pieces: List[List[float]] = field(default_factory=list)
    #: Each piece's scale to the reference host (REFERENCE_PROBE_S over
    #: the probe time around it).
    speeds: List[float] = field(default_factory=list)
    next_doc: int = 0


class Run:
    def __init__(
        self,
        spec: Spec,
        seed: int,
        seconds: float,
        trace: bool,
        root: Path,
        workdir: Path,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.trace = trace
        self.root = root
        self.workdir = workdir
        self.open_seconds = OPEN_SHARE * seconds
        self.closed_seconds = (1.0 - OPEN_SHARE) * seconds
        self.tally = Tally()
        self.metrics: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.diagnostics: Dict[str, float] = {}
        self.detail: Dict[str, list] = {}
        #: Traced runs: microseconds per document by layer (self time).
        self.breakdown: Dict[str, float] = {}
        self.servers: List[Server] = []
        #: Every probe time, in order (``probe``), and the fsync probe
        #: taken with each.
        self.probes: List[float] = []
        self.fsync_probes: List[float] = []
        #: Seconds spent waiting for a quiet disk (``wait_quiet``).
        self.quiet_wait_s = 0.0
        #: (driver CPUs, server CPUs), worked out before the driver
        #: pins itself; None on a one-CPU host.
        self.cpus = cpu_split()

    # -- plumbing ----------------------------------------------------------

    def probe(self) -> float:
        """The probe loop's time on the servers' CPU, and the mean of it
        and the previous probe: the host's speed over the phase between
        the two (as its time for the probe)."""
        if self.cpus is not None:
            os.sched_setaffinity(0, self.cpus[1])
        now = probe_s()
        if self.cpus is not None:
            os.sched_setaffinity(0, self.cpus[0])
        self.probes.append(now)
        self.fsync_probes.append(fsync_probe_s(self.workdir / "fsync-probe"))
        return (self.probes[-2] + now) / 2.0 if len(self.probes) > 1 else now

    async def wait_quiet(self) -> None:
        """Hold the next round while the disk is busy with other work
        (see QUIET_FSYNC_S); the probes taken while waiting make the
        round's speed that of the moment it starts."""
        while (
            self.fsync_probes[-1] > QUIET_FSYNC_S
            and self.quiet_wait_s < MAX_QUIET_WAIT_S
        ):
            await asyncio.sleep(QUIET_POLL_S)
            self.quiet_wait_s += QUIET_POLL_S
            self.probe()

    def _spawn(self, wal: Path, label: str) -> Server:
        server = Server(
            self.root,
            wal,
            self.spec.capacity,
            self.workdir / f"{label}.log",
            traced=self.trace,
            trace_out=self.workdir / f"{label}.trace.json",
            cpus=self.cpus[1] if self.cpus else None,
        )
        self.servers.append(server)
        return server

    def stop_all(self) -> None:
        for server in self.servers:
            server.kill()
        self.servers = []

    def _dump(self, server: Server) -> dict:
        """Ask a traced server for its cumulative span totals."""
        path = server.trace_out
        if path.exists():
            path.unlink()
        server.signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 30.0
        while not path.exists():
            if time.perf_counter() > deadline:
                raise RuntimeError("traced server did not dump its spans")
            time.sleep(0.01)
        return json.loads(path.read_text())

    async def _call(self, coro):
        return await asyncio.wait_for(coro, REQUEST_TIMEOUT_S)

    def _fail(self, message: str, count: int = 1) -> None:
        self.tally.failed += count
        if len(self.tally.errors) < 10:
            self.tally.errors.append(message)

    def _plans(self, payload: bytes, sent: int) -> list:
        """The plans of one ``ingest_batch`` reply; an error frame or a
        short reply counts every document it carried as failed."""
        try:
            plans = decode_plans(payload)
        except ServerError as error:
            self._fail(f"ingest_batch of {sent}: {error}", sent)
            return []
        if len(plans) != sent:
            self._fail(f"{sent} docs sent, {len(plans)} plans", sent)
            return []
        return plans

    def _verify(self, ids: List[str], index: int, inputs: Inputs) -> None:
        """Compare one plan with the oracle, churned ids left out."""
        got = tuple(i for i in ids if not i.startswith(CHURN_PREFIX))
        if got != inputs.expected[index]:
            self.tally.mismatched += 1
            self._fail(
                f"doc #{index}: {len(got)} matched, oracle says "
                f"{len(inputs.expected[index])}"
            )

    # -- phases ------------------------------------------------------------

    async def setup_once(self, inputs: Inputs, label: str):
        wal = self.workdir / f"{label}-wal"
        shutil.rmtree(wal, ignore_errors=True)
        server = self._spawn(wal, label)
        server.wait_ready()
        rss_ready = server.status_kb("VmRSS")
        conn = await Connection.open(server.port)
        for start in range(0, len(inputs.profiles), SUBSCRIBE_CHUNK):
            await self._call(
                conn.subscribe(inputs.profiles[start:start + SUBSCRIBE_CHUNK])
            )
        await self._call(conn.request({"op": "finalize"}))
        for start in range(0, len(inputs.learning), LEARNING_CHUNK):
            frame = ingest_frame(inputs.learning[start:start + LEARNING_CHUNK])
            decode_plans(await self._call(conn.roundtrip(frame)))
        await self._call(conn.request({"op": "reallocate", "force": True}))
        elapsed = time.perf_counter() - server.started
        rss_delta = (server.status_kb("VmRSS") - rss_ready) * 1024.0
        return server, conn, elapsed, rss_delta / len(inputs.profiles)

    async def open_piece(
        self, conn: Connection, loop: OpenLoop, stop: int, speed: float
    ) -> None:
        """Documents ``loop.next_doc`` up to ``stop`` at the workload's
        rate times ``speed``, on a schedule that starts now."""
        inputs = loop.inputs
        first = loop.next_doc
        rate = self.spec.open_rate * speed
        start = time.perf_counter() + 0.05
        # Indexed by document: entries before ``first`` are never read.
        due = [0.0] * first + stats.due_times(start, rate, stop - first)
        end = start + (stop - first) / rate
        backlog_at_end: Optional[int] = None
        free_since = start
        while first < stop:
            now = time.perf_counter()
            if due[first] > now:
                await asyncio.sleep(due[first] - now)
                now = time.perf_counter()
            last = min(stats.due_count(due, first, now), stop)
            loop.late.append(stats.lateness(now, due[first], free_since))
            payload = await self._call(
                conn.roundtrip(ingest_frame(inputs.bodies[first:last]))
            )
            acked_at = time.perf_counter()
            if backlog_at_end is None and acked_at >= end:
                backlog_at_end = stats.backlog(due, first, end)
            for index in range(first, last):
                loop.latencies[index] = acked_at - due[index]
                loop.waits[index] = now - due[index]
            loop.responses.append((first, last, payload))
            self.tally.attempted += last - first
            first = last
            free_since = acked_at
        loop.next_doc = stop
        loop.backlogs.append(backlog_at_end or 0)

    async def _churn_op(self, conn: Connection, op: ChurnOp, op_s) -> None:
        self.tally.attempted += 1
        if op.kind == "subscribe":
            call = conn.subscribe([op.item])
        elif op.kind == "unregister":
            call = conn.request({"op": "unregister", "filter_id": op.item.filter_id})
        else:
            call = conn.request({"op": "reallocate", "drift_epsilon": DRIFT_EPSILON})
        started = time.perf_counter()
        try:
            response = await self._call(call)
        except ServerError as error:
            self._fail(f"{op.kind}: {error}")
            return
        op_s.setdefault(op.kind, []).append(time.perf_counter() - started)
        if op.kind == "reallocate":
            op_s.setdefault("skipped", []).append(bool(response["report"].get("skipped")))

    def check_open(self, inputs: Inputs, responses) -> Dict[str, float]:
        """Decode and verify the open loop's plans; returns its counts."""
        started = time.perf_counter()
        decoded = [
            (first, last, self._plans(payload, last - first))
            for first, last, payload in responses
        ]
        decode_s = time.perf_counter() - started
        req_bytes = resp_bytes = postings = matched = fanout = 0
        for first, last, plans in decoded:
            for index, (ids, plan_fanout, entries, size) in zip(range(first, last), plans):
                req_bytes += len(inputs.bodies[index])
                resp_bytes += size
                postings += entries
                matched += len(ids)
                fanout += plan_fanout
                self._verify(ids, index, inputs)
        n = inputs.open_count
        self.layers["client.resp_decode_us_per_doc"] = decode_s / n * 1e6
        return {
            "wire.req_bytes_per_doc": req_bytes / n,
            "wire.resp_bytes_per_doc": resp_bytes / n,
            "matching.postings_per_doc": postings / n,
            "matching.matched_per_doc": matched / n,
            "route.fanout_per_doc": fanout / n,
        }

    async def closed_piece(
        self,
        conns: List[Connection],
        inputs: Inputs,
        seconds: float,
        cursor: List[int],
        received: List[Tuple[int, bytes]],
    ) -> float:
        """Two connections, 16-document batches, back to back for
        ``seconds``; returns the acked documents per second.  ``cursor``
        walks the closed-loop pool across pieces."""
        pool = len(inputs.bodies) - inputs.open_count
        acked = [0]
        last_ack = [0.0]
        started = time.perf_counter()
        deadline = started + seconds

        async def worker(conn: Connection) -> None:
            while time.perf_counter() < deadline:
                offset = cursor[0]
                cursor[0] += CLOSED_BATCH
                frame = ingest_frame([
                    inputs.bodies[inputs.open_count + (offset + k) % pool]
                    for k in range(CLOSED_BATCH)
                ])
                payload = await self._call(conn.roundtrip(frame))
                last_ack[0] = time.perf_counter()
                acked[0] += CLOSED_BATCH
                received.append((offset, payload))

        await asyncio.gather(*(worker(c) for c in conns))
        self.tally.attempted += acked[0]
        return acked[0] / (last_ack[0] - started)

    def check_closed(self, inputs: Inputs, received: List[Tuple[int, bytes]]) -> None:
        pool = len(inputs.bodies) - inputs.open_count
        for offset, payload in received:
            for k, plan in enumerate(self._plans(payload, CLOSED_BATCH)):
                self._verify(plan[0], inputs.open_count + (offset + k) % pool, inputs)

    async def tail(self, conn: Connection, inputs: Inputs) -> None:
        """A fixed run of batches after the checkpoint, so the WAL tail
        that recovery replays is the same for every run."""
        for batch in range(TAIL_BATCHES):
            first = batch * CLOSED_BATCH
            frame = ingest_frame(inputs.bodies[first:first + CLOSED_BATCH])
            payload = await self._call(conn.roundtrip(frame))
            self.tally.attempted += CLOSED_BATCH
            for k, plan in enumerate(self._plans(payload, CLOSED_BATCH)):
                self._verify(plan[0], first + k, inputs)

    async def checkpoint(self, conn: Connection) -> Tuple[float, dict]:
        self.tally.attempted += 1
        started = time.perf_counter()
        report = await self._call(conn.request({"op": "checkpoint"}))
        return time.perf_counter() - started, report

    async def reboot(self, wal: Path, label: str, inputs: Inputs):
        server = self._spawn(wal, label)
        elapsed = server.wait_ready()
        conn = await Connection.open(server.port)
        text = (await self._call(conn.request({"op": "metrics"})))["metrics"]
        found = re.search(r"recovery_replayed_records\S*\s+([0-9.eE+-]+)", text)
        replayed = int(float(found.group(1))) if found else -1
        # The recovered node must still answer correctly.
        payload = await self._call(conn.roundtrip(ingest_frame(inputs.bodies[:1])))
        self.tally.attempted += 1
        for plan in self._plans(payload, 1):
            self._verify(plan[0], 0, inputs)
        load_s = None
        if self.trace:
            load_s = self._dump(server)["spans"].get("recovery", {}).get("self_s")
        await conn.close()
        server.kill()
        return elapsed, replayed, load_s

    # -- the whole run -----------------------------------------------------

    async def execute(self) -> None:
        spec = self.spec
        if self.cpus is not None:
            os.sched_setaffinity(0, self.cpus[0])
        inputs = build_inputs(spec, self.seed, self.open_seconds)
        count = inputs.open_count
        bounds = piece_bounds(count, PIECES)
        churn_ops = churn_rounds(inputs.churn_items, PIECES)
        # The inputs are read-only from here on: keep the driver's own
        # garbage collector from rescanning them during timed phases.
        gc.collect()
        gc.freeze()

        # Each timed phase is followed by a probe; ``probe()`` then
        # gives the host's speed over that phase.
        self.probe()
        setup_s, per_filter = [], []

        async def setup(label: str):
            server, conn, elapsed, bytes_per_filter = await self.setup_once(inputs, label)
            setup_s.append(elapsed * REFERENCE_PROBE_S / self.probe())
            per_filter.append(bytes_per_filter)
            return server, conn

        server, conn = await setup("setup0")
        closed_server, closed_conn = await setup("setup1")
        closed_conns = [closed_conn, await Connection.open(closed_server.port)]
        crashed, crashed_conn = await setup("setup2")
        checkpoint_s = [(await self.checkpoint(crashed_conn))[0]]
        await self.tail(crashed_conn, inputs)
        await crashed_conn.close()
        crashed.kill()
        copies = []
        for k in range(PIECES):
            copy = self.workdir / f"reboot{k}-wal"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(crashed.wal_dir, copy)
            copies.append(copy)

        before = self._dump(server) if self.trace else None
        churn = await Connection.open(server.port)
        loop = OpenLoop(inputs, [0.0] * count, [0.0] * count)
        rates: List[float] = []
        reboots = []
        cursor: List[int] = [0]
        received: List[Tuple[int, bytes]] = []
        self.probe()
        for k, stop in enumerate(bounds):
            await self.wait_quiet()
            hint = REFERENCE_PROBE_S / self.probes[-1]
            hint = min(max(hint, 1.0 / MAX_SPEED_HINT), MAX_SPEED_HINT)
            self.detail.setdefault("piece_rate_scale", []).append(hint)
            await self.open_piece(conn, loop, stop, hint)
            # MOVE's periodic reallocation, drift-gated, between pieces:
            # the gate runs it after some pieces and not others, and an
            # executed one moves by half a second or more from one time
            # to the next, so inside a piece it would set that piece's
            # tail rather than the program's.
            await self._churn_op(churn, ChurnOp("reallocate"), loop.op_s)
            # B's churn, back to back on the idle server: between A's
            # batches each subscribe waited on whatever A's last batch
            # left the server doing, which on match-heavy spread the
            # subscribe medians of identical runs by up to 0.28.
            subscribes_before = len(loop.op_s.get("subscribe", ()))
            for op in churn_ops[k]:
                await self._churn_op(churn, op, loop.op_s)
            loop.subscribe_pieces.append(loop.op_s["subscribe"][subscribes_before:])
            loop.speeds.append(REFERENCE_PROBE_S / self.probe())
            if self.trace:
                # Tracing off in even closed-loop pieces, on in odd ones.
                closed_server.signal(signal.SIGUSR2)
            rate = await self.closed_piece(
                closed_conns, inputs, self.closed_seconds / PIECES, cursor, received
            )
            self.detail.setdefault("piece_docs_per_s_raw", []).append(rate)
            rates.append(rate * self.probe() / REFERENCE_PROBE_S)
            elapsed, replayed, load_s = await self.reboot(copies[k], f"reboot{k}", inputs)
            self.detail.setdefault("reboot_s_raw", []).append(elapsed)
            reboots.append((elapsed * REFERENCE_PROBE_S / self.probe(), replayed, load_s))
        after_open = self._dump(server) if self.trace else None
        await churn.close()
        for closing in closed_conns:
            await closing.close()
        closed_server.kill()
        self._check_validity(loop)
        self.counts.update(self.check_open(inputs, loop.responses))
        self.check_closed(inputs, received)
        self._open_loop_metrics(loop, bounds)
        elapsed, report = await self.checkpoint(conn)
        checkpoint_s.append(elapsed)
        self.layers["snapshot.checkpoint_ms_p50"] = stats.percentile(checkpoint_s, 0.5) * 1e3
        self.counts["snapshot.mb"] = report["bytes"] / 1e6
        system_stats = (await self._call(conn.request({"op": "stats"})))["stats"]
        self.counts["alloc.reallocations_executed"] = system_stats["reallocations"]
        end_dump = self._dump(server) if self.trace else None
        self.metrics["server_peak_rss_mb"] = server.status_kb("VmHWM") / 1024.0
        await conn.close()
        server.kill()

        self.metrics["setup_s"] = statistics.median(setup_s)
        self.detail["setup_s"] = setup_s
        self.layers["state.bytes_per_filter"] = statistics.median(per_filter)
        self.metrics["docs_per_s"] = statistics.mean(rates)
        self.detail["piece_docs_per_s"] = rates
        recoveries = [elapsed for elapsed, _, _ in reboots]
        replayed = {records for _, records, _ in reboots}
        if len(replayed) != 1:
            self._fail(f"reboots replayed different record counts {sorted(replayed)}")
        self.metrics["recovery_s"] = statistics.median(recoveries)
        self.detail["reboot_s"] = recoveries
        self.counts["recovery.replayed_records"] = min(replayed)
        self.detail["probe_ms"] = [p * 1e3 for p in self.probes]
        self.diagnostics["probe_median_ms"] = statistics.median(self.probes) * 1e3
        self.detail["fsync_probe_ms"] = [p * 1e3 for p in self.fsync_probes]
        self.diagnostics["fsync_probe_median_ms"] = statistics.median(self.fsync_probes) * 1e3
        self.diagnostics["quiet_wait_s"] = self.quiet_wait_s

        if self.trace:
            loads = [load_s for _, _, load_s in reboots]
            overhead = statistics.mean(rates[0::2]) / statistics.mean(rates[1::2]) - 1.0
            self._layers_from_trace(before, after_open, end_dump, inputs, overhead, loads)

    def _open_loop_metrics(self, loop: OpenLoop, bounds: List[int]) -> None:
        """Latencies scaled to the reference host.  Each ack figure is
        that of the best piece: a disturbance (a stray pause, a slow
        patch the probes missed) only ever adds latency, so the least
        disturbed of pieces with hundreds of samples each is the
        steadiest estimate of the program's own."""
        latencies = loop.latencies
        speeds = loop.speeds
        starts = [0] + bounds[:-1]
        scaled_all = [
            latency * speed
            for start, end, speed in zip(starts, bounds, speeds)
            for latency in latencies[start:end]
        ]
        for q, name in ((0.5, "ack_p50_ms"), (0.9, "ack_p90_ms")):
            raw = [v * 1e3 for v in piece_percentiles(latencies, bounds, q)]
            scaled = [v * 1e3 for v in piece_percentiles(scaled_all, bounds, q)]
            self.detail[f"piece_{name}_raw"] = raw
            self.detail[f"piece_{name}"] = scaled
            self.metrics[name] = min(scaled)
        self.layers["driver.ack_p99_ms"] = stats.percentile(latencies, 0.99) * 1e3
        self.diagnostics["ack_p50_raw_ms"] = stats.percentile(latencies, 0.5) * 1e3
        self.diagnostics["open_docs"] = len(latencies)
        self.diagnostics["p99_samples_beyond"] = stats.samples_beyond(len(latencies), 0.99)
        # Latency = waiting for connection A to come free + the round
        # trip of the batch that carried the document.
        self.diagnostics["send_wait_ms_p50"] = stats.percentile(loop.waits, 0.5) * 1e3
        op_s = loop.op_s
        raw = [stats.percentile(samples, 0.5) * 1e3 for samples in loop.subscribe_pieces]
        scaled = [v * speed for v, speed in zip(raw, speeds)]
        self.detail["piece_subscribe_p50_ms_raw"] = raw
        self.detail["piece_subscribe_p50_ms"] = scaled
        # A piece holds only a few dozen subscribes, so its median is
        # itself noisy and the lowest of ten would pick that noise; the
        # median over the pieces does not.
        self.metrics["subscribe_p50_ms"] = statistics.median(scaled)
        self.diagnostics["subscribe_samples_min_piece"] = min(
            len(samples) for samples in loop.subscribe_pieces
        )
        self.diagnostics["reallocations_skipped"] = sum(op_s["skipped"])

    def _check_validity(self, loop: OpenLoop) -> None:
        late_p90 = stats.percentile(loop.late, 0.9)
        self.layers["driver.late_ms_p90"] = late_p90 * 1e3
        # Every piece restarts the schedule, so each one's backlog at the
        # end of its schedule counts.
        backlog = max(loop.backlogs)
        self.diagnostics["backlog_piece_max"] = backlog
        limit = max(64, int(self.spec.open_rate * MAX_BACKLOG_S))
        if late_p90 > MAX_LATE_P90_S or backlog > limit:
            raise InvalidRun(
                f"open loop fell behind: late p90 {late_p90 * 1e3:.2f} ms "
                f"(limit {MAX_LATE_P90_S * 1e3:.0f}), backlog at a piece's end "
                f"{backlog} docs (limit {limit})"
            )

    def _layers_from_trace(self, before, after, end, inputs, overhead, loads) -> None:
        """Per-layer numbers from span totals dumped around the open loop."""
        b, a, e = before["spans"], after["spans"], end["spans"]
        n = inputs.open_count

        def per_doc(name: str, field: str = "self_s") -> float:
            return stats.delta(a, b, name, field) / n * 1e6

        def counter(name: str) -> float:
            return after["counters"][name] - before["counters"][name]

        layers = self.layers
        layers["wire.req_decode_us_per_doc"] = per_doc("wire.decode")
        layers["wire.resp_encode_us_per_doc"] = per_doc("wire.encode")
        seen = len(before["counters"]["queue_wait_s"])
        layers["runtime.queue_wait_us_p50"] = stats.percentile(after["counters"]["queue_wait_s"][seen:], 0.5) * 1e6
        layers["runtime.docs_per_batch"] = (
            stats.delta(a, b, "journal.publish", "items") / stats.delta(a, b, "journal.publish", "calls")
        )
        layers["journal.record_encode_us_per_doc"] = per_doc("journal.encode") + per_doc("journal.publish")
        layers["journal.append_us_per_doc"] = per_doc("journal.append")
        layers["journal.fsync_us_p50"] = stats.percentile(stats.new_samples(a, b, "journal.fsync"), 0.5) * 1e6
        layers["journal.records_per_fsync"] = counter("fsync_records") / counter("fsyncs")
        layers["journal.wal_bytes_per_doc"] = counter("publish_wal_bytes") / n
        layers["pipeline.publish_us_per_doc"] = per_doc("publish_batch", "total_s")
        for stage in ("observe", "ingest", "route", "account"):
            layers[f"pipeline.{stage}_us_per_doc"] = per_doc(stage)
        layers["pipeline.execute_us_per_doc"] = per_doc("execute") + per_doc("execute_node")
        sub = e["subscribe"]
        layers["subscribe.us_per_item"] = sub["total_s"] / sub["items"] * 1e6
        unregister = e["unregister"]
        layers["unregister.us_per_call"] = unregister["total_s"] / unregister["calls"] * 1e6
        layers["alloc.reallocate_ms_p50"] = stats.percentile(e["reallocate"]["samples"], 0.5) * 1e3
        layers["snapshot.load_ms"] = statistics.median(loads) * 1e3
        fsync_per_doc = per_doc("journal.fsync", "total_s")
        self.diagnostics["journal.fsync_us_per_doc"] = fsync_per_doc
        attributed = (
            layers["wire.req_decode_us_per_doc"]
            + layers["wire.resp_encode_us_per_doc"]
            + layers["journal.record_encode_us_per_doc"]
            + layers["journal.append_us_per_doc"]
            + fsync_per_doc
            + layers["pipeline.publish_us_per_doc"]
        )
        # The layer times are raw, so they are set against the raw p50.
        layers["unattributed_us_per_doc"] = self.diagnostics["ack_p50_raw_ms"] * 1e3 - attributed
        stages = ("observe", "ingest", "route", "execute", "account")
        self.breakdown = {
            "wire.req_decode": layers["wire.req_decode_us_per_doc"],
            "wire.resp_encode": layers["wire.resp_encode_us_per_doc"],
            "journal.record_encode": layers["journal.record_encode_us_per_doc"],
            "journal.append": layers["journal.append_us_per_doc"],
            "journal.fsync": fsync_per_doc,
            **{f"pipeline.{stage}": layers[f"pipeline.{stage}_us_per_doc"] for stage in stages},
            "pipeline.other": layers["pipeline.publish_us_per_doc"]
            - sum(layers[f"pipeline.{stage}_us_per_doc"] for stage in stages),
            "unattributed": layers["unattributed_us_per_doc"],
        }
        layers["trace.overhead_frac"] = overhead
