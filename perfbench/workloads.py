"""The three workloads: ``bulk`` (in-process library use), ``served``
(``repro serve`` over loopback) and ``churn`` (``repro serve --journal``
taking route updates while it answers lookups).

Each returns a :class:`Outcome`: the end-to-end metrics, the per-layer
metrics, and counts of operations attempted and failed.  Lookups count
one operation per key, route updates one per update.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.data import tableio
from repro.lookup import kernels, registry
from repro.parallel.image import TableImage
from repro.server import protocol
from repro.server.handle import TableHandle

import inputs
from reference import LpmReference
from server import Server, peak_rss_mib
from tracing import Tracer
from wire import ClosedLoop, Conn, OpenLoop, drive

#: Requests kept outstanding in the closed-loop phase (x 16 keys: far
#: under the server's 1024-request / 65,536-key admission bounds).
WINDOW = 256
#: Unmeasured closed-loop warm-up before the measured phases.
WARMUP_S = 0.5
#: Share of ``--seconds`` spent in the closed-loop phase (the rest is
#: the fixed-rate phase).
CLOSED_SHARE = 0.8


@dataclass
class Outcome:
    correct: bool = True
    #: Lookup keys plus route updates.
    attempted: int = 0
    failed: int = 0
    #: The route updates among them.
    updates_attempted: int = 0
    updates_failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics; a layer the workload never reaches is absent
    #: and reads 0.
    layers: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def mismatch(self, what: str) -> None:
        self.correct = False
        self.problems.append(what)


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def capacity(rates) -> float:
    """The best per-pass or per-window rate.  Interference on this class
    of machine (steal, a busy neighbour on the same core) only ever slows
    a pass down, and it comes and goes over minutes: across runs in
    slow and fast minutes the median and upper quartile of bulk pass
    rates moved by 25 %, the best pass by 4 %."""
    return float(np.max(rates))


# -- in-process program work --------------------------------------------------


@dataclass
class ColdStart:
    """The program objects of one in-process cold start."""

    p4: object
    p6: object
    image: bytes
    ingest_s: float
    build_s: float
    export_s: float
    setup_s: float


def cold_start(v4_path: str, v6_path: str, tracer: Tracer) -> ColdStart:
    """Ingest both text tables, build Poptrie18 on each, export the v4
    image, and answer one lookup on each table."""
    entry = registry.get("Poptrie18")
    start = time.perf_counter()
    with tracer.span("tableio.load_table"):
        rib4 = tableio.load_table(v4_path)
    t_ingest = time.perf_counter()
    with tracer.span("registry.from_rib"):
        p4 = entry.from_rib(rib4)
    t_build = time.perf_counter()
    with tracer.span("image.export"):
        image = p4.to_image().to_bytes()
    t_export = time.perf_counter()
    with tracer.span("tableio.load_table"):
        rib6 = tableio.load_table(v6_path)
    with tracer.span("registry.from_rib"):
        p6 = entry.from_rib(rib6)
    p4.lookup_batch(np.zeros(1, dtype=np.uint64))
    p6.lookup_batch(inputs.v6_ints(np.zeros(1, np.uint64), np.zeros(1, np.uint64)))
    end = time.perf_counter()
    return ColdStart(
        p4, p6, image,
        ingest_s=t_ingest - start,
        build_s=t_build - t_ingest,
        export_s=t_export - t_build,
        setup_s=end - start,
    )


def _timed_passes(fn, keys, batch: int, expect, tracer: Tracer, name: str,
                  latencies=None) -> Tuple[float, bool]:
    """One pass over ``keys`` in ``batch``-key calls; returns
    (seconds inside the calls, all answers equal ``expect``)."""
    spent = 0.0
    outs = []
    for i in range(0, len(keys), batch):
        chunk = keys[i:i + batch]
        with tracer.span(name):
            t0 = time.perf_counter()
            out = fn(chunk)
            t1 = time.perf_counter()
        spent += t1 - t0
        if latencies is not None:
            latencies.append(t1 - t0)
        outs.append(out)
    got = np.concatenate(outs)
    return spent, bool(np.array_equal(got.astype(np.uint32), expect))


def _rate_for(fn, keys, batch: int, expect, seconds: float, tracer: Tracer,
              name: str, outcome: Outcome) -> float:
    """Mlps over whole passes repeated for about ``seconds``, as
    :func:`capacity` of the per-pass rates."""
    rates = []
    stop = time.perf_counter() + seconds
    while not rates or time.perf_counter() < stop:
        spent, ok = _timed_passes(fn, keys, batch, expect, tracer, name)
        outcome.attempted += len(keys)
        if not ok:
            outcome.mismatch(f"{name}: answers differ from the reference")
        rates.append(len(keys) / spent / 1e6)
    return capacity(rates)


def layer_probes(cs: ColdStart, tables: inputs.Tables, seed: int,
                 batch_keys: int, tracer: Tracer, outcome: Outcome) -> None:
    """Per-layer figures measured by calling into each layer in process."""
    layers = outcome.layers
    p4 = cs.p4
    layers["ingest_s"] = cs.ingest_s
    layers["build_s"] = cs.build_s
    layers["image_export_s"] = cs.export_s
    layers["image_mib"] = len(cs.image) / 2**20
    layers["inodes"] = float(p4.inode_count)
    layers["leaves"] = float(p4.leaf_count)
    layers["table_mib"] = p4.memory_bytes() / 2**20
    sample = inputs.v4_keys(seed, 4096, "depth")
    layers["mean_depth"] = float(np.mean([p4.depth_of(int(k)) for k in sample]))

    ref4 = LpmReference.from_routes(tables.v4)
    keys = inputs.v4_keys(seed, 1 << 18, "probe")
    expect = ref4.lookup(keys)
    with tracer.span("kernels.attach"):
        bound = kernels.attach(TableImage.open(cs.image))
    layers["kernel_image_mlps"] = _rate_for(
        bound.lookup_batch, keys, inputs.BULK_BATCH, expect, 1.0, tracer,
        "kernels.lookup_batch", outcome)
    small = max(1, int(batch_keys))
    small_keys = keys[: small * max(1, 8192 // small)]
    layers["small_batch_mlps"] = _rate_for(
        p4.lookup_batch, small_keys, small, expect[: len(small_keys)], 1.0,
        tracer, "poptrie.lookup_batch", outcome)

    hi6, lo6 = inputs.v6_keys(seed, tables.v6, inputs.BULK6_KEYS)
    expect6 = LpmReference.from_routes(tables.v6).lookup(hi6, lo6)
    layers["lookup6_mlps"] = _rate_for(
        cs.p6.lookup_batch, inputs.v6_ints(hi6, lo6), inputs.BULK6_BATCH,
        expect6, 1.0, tracer, "poptrie6.lookup_batch", outcome)

    request_keys = keys[: inputs.REQUEST_KEYS]
    answers = expect[: inputs.REQUEST_KEYS]
    codec = []
    for rid in range(2000):
        t0 = time.perf_counter()
        request = protocol.decode_request(
            protocol.encode_request(protocol.OP_LOOKUP4, rid, request_keys))
        response = protocol.decode_response(
            protocol.encode_response(request.request_id, results=answers))
        codec.append(time.perf_counter() - t0)
    if not np.array_equal(response.results, answers):
        outcome.mismatch("protocol round trip changed the answers")
    layers["codec_us"] = float(np.median(codec)) * 1e6

    # A waited swap while one reader holds the current version for one
    # ``BULK_BATCH``-key call: the drain is the rest of that call.
    handle = TableHandle(p4, name="probe")
    drains = []
    for _ in range(20):
        pinned = threading.Event()

        def reader() -> None:
            with handle.read() as version:
                pinned.set()
                version.structure.lookup_batch(keys[:inputs.BULK_BATCH])

        thread = threading.Thread(target=reader)
        thread.start()
        pinned.wait()
        with tracer.span("handle.swap"):
            handle.swap(p4, wait=True)
        thread.join()
        drains.append(handle.last_drain_s)
    layers["drain_ms"] = float(np.median(drains)) * 1e3

    snaps = []
    for _ in range(5):
        t0 = time.perf_counter()
        with tracer.span("buddy.snapshot"):
            p4.node_alloc.snapshot()
            p4.leaf_alloc.snapshot()
        snaps.append(time.perf_counter() - t0)
    layers["alloc_snapshot_ms"] = float(np.median(snaps)) * 1e3


# -- bulk ---------------------------------------------------------------------


def bulk(seed: int, seconds: float, tracer: Tracer) -> Outcome:
    out = Outcome()
    given = inputs.bulk_keys(seed)
    keys4, expect4 = given["keys4"], given["expect4"]
    keys6 = inputs.v6_ints(given["hi6"], given["lo6"])
    expect6 = given["expect6"]

    cs = cold_start(*inputs.table_paths(), tracer)
    p4, p6 = cs.p4, cs.p6

    def one_round(rates4, rates6, latencies):
        spent, ok = _timed_passes(p4.lookup_batch, keys4, inputs.BULK_BATCH,
                                  expect4, tracer, "poptrie.lookup_batch",
                                  latencies)
        rates4.append(len(keys4) / spent / 1e6)
        spent6, ok6 = _timed_passes(p6.lookup_batch, keys6, inputs.BULK6_BATCH,
                                    expect6, tracer, "poptrie6.lookup_batch")
        rates6.append(len(keys6) / spent6 / 1e6)
        out.attempted += len(keys4) + len(keys6)
        if not ok:
            out.mismatch("bulk v4: answers differ from the reference")
        if not ok6:
            out.mismatch("bulk v6: answers differ from the reference")

    warm_until = time.perf_counter() + WARMUP_S
    while time.perf_counter() < warm_until:
        one_round([], [], None)
    rates4, rates6, latencies = [], [], []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    stop = wall0 + seconds
    with tracer.span("bulk.measure"):
        while not rates4 or time.perf_counter() < stop:
            one_round(rates4, rates6, latencies)
    busy = (time.process_time() - cpu0) / (time.perf_counter() - wall0)

    lat_us = np.asarray(latencies) * 1e6
    out.metrics = {
        "setup_s": cs.setup_s,
        "lookup_mlps": capacity(rates4),
        "rss_mib": peak_rss_mib(),
    }
    out.layers["lookup_p50_us"] = _pct(lat_us, 50)
    out.layers["lookup_p99_us"] = _pct(lat_us, 99)
    if tracer.enabled:
        layer_probes(cs, inputs.tables(), seed, inputs.REQUEST_KEYS, tracer,
                     out)
        out.layers["lookup6_mlps"] = capacity(rates6)
        out.layers["client_busy"] = busy
        out.layers["traced_lookup_mlps"] = out.metrics["lookup_mlps"]
    return out


# -- served and churn ---------------------------------------------------------


class _Lookups:
    """The seeded 16-key request pool, its reference answers, and the
    payload builder the wire sources call."""

    def __init__(self, seed: int, ref: LpmReference) -> None:
        self.pool = inputs.request_pool(seed)
        self.expect = ref.lookup(self.pool.ravel()).reshape(self.pool.shape)

    def make(self, i: int, rid: int) -> bytes:
        return protocol.encode_request(
            protocol.OP_LOOKUP4, rid, self.pool[i % len(self.pool)])


def _check_lookups(responses, lookups: _Lookups, out: Outcome,
                   skip=None) -> int:
    """Decode every response and compare it with the reference; keys
    where ``skip`` is true (covered by a route update) are not compared.
    Returns the keys that came back with a non-OK status."""
    failed = 0
    pool_size = len(lookups.pool)
    for i, payload in responses:
        response = protocol.decode_response(payload)
        row = i % pool_size
        if not response.ok:
            failed += inputs.REQUEST_KEYS
            continue
        want = lookups.expect[row]
        if skip is not None:
            keep = ~skip[row]
            if not np.array_equal(response.results[keep], want[keep]):
                out.mismatch(f"request {i}: answers differ from the reference")
        elif not np.array_equal(response.results, want):
            out.mismatch(f"request {i}: answers differ from the reference")
    return failed


def _serve_phases(seed: int, seconds: float, tracer: Tracer, out: Outcome,
                  srv: Server, lookups: _Lookups, updates=None,
                  on_update=None):
    """Warm-up, closed-loop phase, then the fixed-rate phase.  With
    ``updates`` (due offsets, payload builder) a second connection sends
    OP_UPDATE batches on their schedule across both measured phases."""
    conn = Conn(srv.host, srv.port)
    uconn = Conn(srv.host, srv.port) if updates is not None else None
    try:
        if tracer.enabled:
            rtts = []
            for _ in range(200):
                t0 = time.perf_counter()
                conn.call(protocol.OP_PING)
                rtts.append(time.perf_counter() - t0)
            out.layers["ping_rtt_us"] = float(np.median(rtts)) * 1e6
        now = time.perf_counter()
        warm = ClosedLoop(conn, lookups.make, WINDOW, now, now + WARMUP_S)
        drive([warm], timeout=60)
        responses = list(warm.responses)

        closed_s = CLOSED_SHARE * seconds
        open_s = seconds - closed_s
        stats0 = srv.stats(conn)
        cpu0, ccpu0 = srv.cpu_s(), time.process_time()
        start = time.perf_counter()
        closed = ClosedLoop(conn, lookups.make, WINDOW, start, start + closed_s)
        upd = None
        if updates is not None:
            due, make_update = updates
            upd = OpenLoop(uconn, make_update, [start + d for d in due])
            drive([closed, upd], timeout=120, wait_for=[closed])
        else:
            drive([closed], timeout=120)
        wall = time.perf_counter() - start
        cpu1, ccpu1 = srv.cpu_s(), time.process_time()
        stats1 = srv.stats(conn)
        responses += closed.responses

        open_start = time.perf_counter()
        due = inputs.poisson_schedule(seed, inputs.OPEN_RATE, open_s)
        fixed = OpenLoop(conn, lookups.make, (open_start + due).tolist())
        drive([fixed] + ([upd] if upd is not None else []), timeout=180)
        responses += fixed.responses
        stats2 = srv.stats(conn)

        lat_us = np.asarray(fixed.latency) * 1e6
        # The median 1-s window of OK keys.  Churn's batches are due every
        # 0.5 s from ``start``, so each window holds the read time lost to
        # two applies; a rare stall or a slow moment of the machine moves
        # one window, not the median.
        out.metrics["lookup_mlps"] = float(
            np.median(closed.window_rates(1.0))) * inputs.REQUEST_KEYS / 1e6
        out.layers["lookup_p50_us"] = _pct(lat_us, 50)
        out.layers["lookup_p99_us"] = _pct(lat_us, 99)
        batches = stats1["batches"] - stats0["batches"]
        requests = stats1["batched_requests"] - stats0["batched_requests"]
        layers = out.layers
        layers["mean_coalesced"] = requests / batches if batches else 0.0
        layers["server_busy"] = (cpu1 - cpu0) / wall
        layers["server_cpu_us_per_request"] = (
            (cpu1 - cpu0) / requests * 1e6 if requests else 0.0)
        layers["client_busy"] = (ccpu1 - ccpu0) / wall
        layers["generator_lag_ms"] = _pct(fixed.lag, 99) * 1e3
        layers["traced_lookup_mlps"] = out.metrics["lookup_mlps"]
        handle = stats2["handle"]
        layers["swaps"] = float(handle.get("swaps", 0))
        journal = stats2.get("journal") or {}
        layers["flush_stalls"] = float(journal.get("flush_stalls", 0))
        for i, (d, e) in enumerate(zip(fixed.due, fixed.done_at)):
            tracer.record("server.request", d, e, i)
        if on_update is not None:
            on_update(conn, uconn, upd)
        return responses
    finally:
        conn.close()
        if uconn is not None:
            uconn.close()


def served(seed: int, seconds: float, tracer: Tracer) -> Outcome:
    out = Outcome()
    tables = inputs.tables()
    lookups = _Lookups(seed, LpmReference.from_routes(tables.v4))
    workdir = tempfile.mkdtemp(dir=inputs.cache_dir(), prefix="served-")
    try:
        with tracer.span("serve.start"):
            srv = Server(["--table", tables.v4_path, "--algorithm", "Poptrie18"],
                         workdir)
        try:
            out.metrics["setup_s"] = srv.setup_s
            responses = _serve_phases(seed, seconds, tracer, out, srv, lookups)
            out.metrics["rss_mib"] = srv.peak_rss_mib()
        finally:
            srv.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.attempted += len(responses) * inputs.REQUEST_KEYS
    out.failed += _check_lookups(responses, lookups, out)
    if tracer.enabled:
        batch_keys = out.layers["mean_coalesced"] * inputs.REQUEST_KEYS
        cs = cold_start(tables.v4_path, tables.v6_path, tracer)
        layer_probes(cs, tables, seed, batch_keys, tracer, out)
    return out


def _covered(keys: np.ndarray, prefixes) -> np.ndarray:
    """True where a key falls inside any ``(network, length)`` prefix."""
    mask = np.zeros(keys.shape, dtype=bool)
    for net, length in prefixes:
        shift = np.uint64(32 - length)
        mask |= (keys >> shift) == np.uint64(net >> (32 - length))
    return mask


def churn(seed: int, seconds: float, tracer: Tracer) -> Outcome:
    out = Outcome()
    tables = inputs.tables()
    lookups = _Lookups(seed, LpmReference.from_routes(tables.v4))
    n_batches = max(1, int(round(seconds / inputs.UPDATE_PERIOD_S)))
    stream = inputs.update_stream(seed, tables.v4,
                                  n_batches * inputs.UPDATE_BATCH)
    batches = [
        stream[k * inputs.UPDATE_BATCH:(k + 1) * inputs.UPDATE_BATCH]
        for k in range(n_batches)
    ]
    payloads = [inputs.program_updates(b) for b in batches]
    prefixes = sorted({(u.net, u.length) for u in stream})
    skip = _covered(lookups.pool, prefixes)
    final = {
        (n, l): h for n, l, h in zip(
            tables.v4.net.tolist(), tables.v4.length.tolist(),
            tables.v4.hop.tolist())
    }
    for u in stream:
        if u.kind == "A":
            final[(u.net, u.length)] = u.hop
        else:
            final.pop((u.net, u.length), None)

    def make_update(k: int, rid: int) -> bytes:
        return protocol.encode_request(protocol.OP_UPDATE, rid,
                                       updates=payloads[k])

    acks = []
    update_latency = []

    def after(conn: Conn, uconn: Conn, upd: OpenLoop) -> None:
        acks.extend(upd.responses)
        update_latency.extend(upd.latency)
        if tracer.enabled:
            out.layers["convergence_ms"] = _convergence(
                seed, conn, uconn, final, lookups) * 1e3
        probe_keys = _probe_keys(seed, prefixes, lookups)
        got = []
        for i in range(0, len(probe_keys), protocol.MAX_KEYS_PER_REQUEST):
            response = conn.call(protocol.OP_LOOKUP4,
                                 keys=probe_keys[i:i + protocol.MAX_KEYS_PER_REQUEST])
            if not response.ok:
                out.mismatch(f"final probe refused: {response.text}")
                return
            got.append(response.results)
        want = LpmReference.from_route_dict(32, final).lookup(probe_keys)
        out.attempted += len(probe_keys)
        if not np.array_equal(np.concatenate(got), want):
            bad = int(np.sum(np.concatenate(got) != want))
            out.mismatch(f"final probe: {bad} keys differ from the final route set")

    workdir = tempfile.mkdtemp(dir=inputs.cache_dir(), prefix="churn-")
    try:
        with tracer.span("serve.start"):
            srv = Server(["--journal", os.path.join(workdir, "wal"),
                          "--table", tables.v4_path], workdir)
        try:
            out.metrics["setup_s"] = srv.setup_s
            due = [k * inputs.UPDATE_PERIOD_S for k in range(n_batches)]
            responses = _serve_phases(seed, seconds, tracer, out, srv, lookups,
                                      updates=(due, make_update),
                                      on_update=after)
            out.metrics["rss_mib"] = srv.peak_rss_mib()
        finally:
            srv.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out.attempted += len(responses) * inputs.REQUEST_KEYS + len(stream)
    out.updates_attempted = len(stream)
    out.failed += _check_lookups(responses, lookups, out, skip=skip)
    stages = {"apply": [], "fsync": [], "publish": []}
    for k, payload in acks:
        response = protocol.decode_response(payload)
        report = json.loads(response.text) if response.ok else {}
        if report.get("applied") != len(batches[k]) or report.get("rejected"):
            out.failed += len(batches[k])
            out.updates_failed += len(batches[k])
            continue
        for stage in stages:
            stages[stage].append(report["stages_us"][stage] / 1e3)
    if tracer.enabled:
        layers = out.layers
        layers["update_p50_ms"] = float(np.median(update_latency)) * 1e3
        for stage, values in stages.items():
            if values:
                layers[f"update_{stage}_ms"] = float(np.median(values))
        batch_keys = layers["mean_coalesced"] * inputs.REQUEST_KEYS
        cs = cold_start(tables.v4_path, tables.v6_path, tracer)
        layer_probes(cs, tables, seed, batch_keys, tracer, out)
    return out


def _probe_keys(seed: int, prefixes, lookups: _Lookups) -> np.ndarray:
    """One random address inside every updated prefix, then the pool."""
    gen = inputs.rng(seed, "probe")
    host = gen.integers(0, 1 << 32, len(prefixes), dtype=np.uint64)
    inside = np.array(
        [net | (int(h) & ((1 << (32 - length)) - 1))
         for (net, length), h in zip(prefixes, host)],
        dtype=np.uint64,
    )
    return np.concatenate([inside, lookups.pool.ravel()])


def _convergence(seed: int, conn: Conn, uconn: Conn, final, lookups) -> float:
    """Seconds from sending an announce of a sentinel /32 to the first
    lookup that returns its next hop.  The sentinel joins ``final``."""
    ref = LpmReference.from_route_dict(32, final)
    address = int(lookups.pool[0][0])
    current = int(ref.lookup(np.array([address], dtype=np.uint64))[0])
    hop = current % 300 + 1
    final[(address, 32)] = hop
    sentinel = inputs.program_updates([inputs.RouteUpdate("A", address, 32, hop)])
    start = time.perf_counter()
    uconn.queue(protocol.encode_request(protocol.OP_UPDATE, uconn.rid(),
                                        updates=sentinel))
    uconn.flush()
    while True:
        response = conn.call(protocol.OP_LOOKUP4, keys=[address])
        if response.ok and int(response.results[0]) == hop:
            seen = time.perf_counter() - start
            break
        if time.perf_counter() - start > 30:
            raise TimeoutError("sentinel route never became visible")
    # Collect the sentinel's ack so the update is known applied.
    deadline = time.perf_counter() + 30
    while time.perf_counter() < deadline:
        if uconn.read_frames():
            break
        time.sleep(0.001)
    return seen


WORKLOADS = {"bulk": bulk, "served": served, "churn": churn}
