"""Benchmark inputs: the full-size tables, seeded key streams, update
streams and arrival schedules.

The tables are fixed: RV-linx-p46 at scale 1.0 (518,231 routes, the
table of ``BENCH_kernels.json``) and the Section 4.10 IPv6 table
(20,440 routes).  They are synthesised once per checkout with the
program's own dataset generator and cached as the text snapshots every
workload ingests, next to a route list this package parses itself for
the reference.  Everything that varies between runs — lookup keys,
request schedules, update batches — comes from ``--seed``.  Update
streams are cached per seed too; none of this happens inside a timed
region.
"""

from __future__ import annotations

import ipaddress
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: The v4 table every workload serves, and the IPv6 table bulk adds.
TABLE_V4 = "RV-linx-p46"
TABLE_V6 = "REAL-Tier1-A-v6"

#: Keys per lookup request on the wire (the served and churn workloads).
REQUEST_KEYS = 16
#: Distinct 16-key requests in one seed's request pool.
REQUEST_POOL = 8192
#: Bulk v4 key stream: keys per pass and keys per ``lookup_batch`` call
#: (8192 is the server's default ``max_batch``, its largest coalesced call).
BULK_KEYS = 1 << 20
BULK_BATCH = 8192
#: Bulk v6 key stream (the template path runs at ~1 Mlps, so a pass is
#: a few milliseconds).
BULK6_KEYS = 4096
BULK6_BATCH = 1024
#: Open-loop lookup rate (requests per second) of served and churn.  An
#: apply in churn now and then holds the server for ~1.1 s; at this rate
#: the lookups queued behind it stay under the server's 1024-request
#: admission bound (at 2000 rps two runs in ten had lookups refused).
OPEN_RATE = 500.0
#: Route updates per OP_UPDATE batch, and the batch period in seconds:
#: 8 updates/s, below today's apply capacity, in short batches so that
#: a typical apply (~0.1 s) holds reads back briefly.
UPDATE_BATCH = 4
UPDATE_PERIOD_S = 0.5


def root_dir() -> str:
    """The checkout root: the parent of this package's directory."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cache_dir() -> str:
    path = os.path.join(root_dir(), ".bench_build", "perfbench")
    os.makedirs(path, exist_ok=True)
    return path


def _atomic_write(path: str, write) -> None:
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@dataclass(frozen=True)
class Routes:
    """A route list parsed by this package from a text snapshot.

    v4: ``net`` holds the network addresses.  v6: ``net`` holds the high
    64 bits and ``net_lo`` the low 64 bits.  ``hop`` is the FIB index.
    """

    width: int
    net: np.ndarray
    net_lo: np.ndarray
    length: np.ndarray
    hop: np.ndarray

    def __len__(self) -> int:
        return len(self.length)


def parse_table_text(path: str) -> Routes:
    """Parse a ``# repro-table v1`` snapshot without the program's parser."""
    nets, los, lengths, hops = [], [], [], []
    width = 32
    with open(path) as stream:
        for line in stream:
            if line.startswith("# repro-table"):
                width = int(line.rsplit("=", 1)[1])
                continue
            if not line.strip() or line.startswith("#"):
                continue
            text, hop = line.split()
            address, length = text.split("/")
            if width == 32:
                a, b, c, d = address.split(".")
                value = (int(a) << 24) | (int(b) << 16) | (int(c) << 8) | int(d)
                nets.append(value)
                los.append(0)
            else:
                value = int(ipaddress.IPv6Address(address))
                nets.append(value >> 64)
                los.append(value & ((1 << 64) - 1))
            lengths.append(int(length))
            hops.append(int(hop))
    return Routes(
        width,
        np.array(nets, dtype=np.uint64),
        np.array(los, dtype=np.uint64),
        np.array(lengths, dtype=np.uint8),
        np.array(hops, dtype=np.uint32),
    )


@dataclass(frozen=True)
class Tables:
    v4_path: str
    v6_path: str
    v4: Routes
    v6: Routes


def table_paths() -> Tuple[str, str]:
    """The v4 and v6 text snapshots, synthesised on first use."""
    cache = cache_dir()
    paths = []
    for tag, name in (("v4", TABLE_V4), ("v6", TABLE_V6)):
        text = os.path.join(cache, f"{name}.txt")
        if not os.path.exists(text):
            from repro.data import tableio
            from repro.data.datasets import load_dataset, load_dataset_v6

            if tag == "v4":
                rib = load_dataset(name, scale=1.0, cache=False).rib
            else:
                rib = load_dataset_v6(name).rib
            _atomic_write(text, lambda tmp: tableio.save_table(rib, tmp))
            del rib
        paths.append(text)
    return paths[0], paths[1]


def tables() -> Tables:
    """The two table snapshots and the route lists parsed from them."""
    out = {}
    for tag, text in zip(("v4", "v6"), table_paths()):
        parsed = text[:-len(".txt")] + ".routes.npz"
        if not os.path.exists(parsed):
            routes = parse_table_text(text)

            def save(tmp: str) -> None:
                with open(tmp, "wb") as f:
                    np.savez(f, width=routes.width, net=routes.net,
                             net_lo=routes.net_lo, length=routes.length,
                             hop=routes.hop)

            _atomic_write(parsed, save)
        with np.load(parsed) as z:
            out[tag] = Routes(int(z["width"]), z["net"], z["net_lo"],
                              z["length"], z["hop"])
        out[tag + "_path"] = text
    return Tables(out["v4_path"], out["v6_path"], out["v4"], out["v6"])


# -- keys ---------------------------------------------------------------------


def bulk_keys(seed: int) -> Dict[str, np.ndarray]:
    """The bulk key streams and their reference answers: ``keys4`` and
    ``expect4``, ``hi6``, ``lo6`` and ``expect6``.

    They are computed in a child process (``python3 perfbench/inputs.py
    bulk-keys SEED OUT``), so the process that runs the program in bulk
    never holds the route lists or the reference, and its peak memory is
    the program's plus these arrays."""
    fd, path = tempfile.mkstemp(dir=cache_dir(), suffix=".npz")
    os.close(fd)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root_dir(), "src")
    try:
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "bulk-keys",
             str(seed), path],
            env=env, check=True, timeout=600,
        )
        with np.load(path) as z:
            return {name: z[name] for name in z.files}
    finally:
        os.unlink(path)


def _write_bulk_keys(seed: int, path: str) -> None:
    from reference import LpmReference

    t = tables()
    keys4 = v4_keys(seed, BULK_KEYS, "bulk")
    hi6, lo6 = v6_keys(seed, t.v6, BULK6_KEYS)
    with open(path, "wb") as f:
        np.savez(
            f, keys4=keys4, expect4=LpmReference.from_routes(t.v4).lookup(keys4),
            hi6=hi6, lo6=lo6,
            expect6=LpmReference.from_routes(t.v6).lookup(hi6, lo6),
        )


def rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, stream name)."""
    tag = int.from_bytes(stream.encode()[:8].ljust(8, b"\0"), "big")
    return np.random.default_rng([seed & 0xFFFFFFFF, tag])


def v4_keys(seed: int, count: int, stream: str) -> np.ndarray:
    """Uniform random IPv4 addresses (the paper's random traffic)."""
    return rng(seed, stream).integers(0, 1 << 32, count, dtype=np.uint64)


def v6_keys(seed: int, routes: Routes, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """IPv6 keys as ``(hi, lo)`` columns: seven in eight fall inside a
    random route of the table (random host bits), one in eight is
    uniform over the whole space.  Uniform 128-bit keys alone would
    almost all miss the table."""
    gen = rng(seed, "v6keys")
    pick = gen.integers(0, len(routes), count)
    hi = gen.integers(0, 1 << 64, count, dtype=np.uint64)
    lo = gen.integers(0, 1 << 64, count, dtype=np.uint64)
    inside = gen.random(count) < 0.875
    length = routes.length[pick].astype(np.int64)
    # Keep the route's top ``length`` bits, randomise the rest.
    hi_bits = np.minimum(length, 64)
    keep_hi = np.where(
        hi_bits == 0, np.uint64(0),
        ~np.uint64(0) << (64 - hi_bits).astype(np.uint64),
    )
    hi_in = (routes.net[pick] & keep_hi) | (hi & ~keep_hi)
    lo_bits = np.maximum(length - 64, 0)
    keep_lo = np.where(
        lo_bits == 0, np.uint64(0),
        ~np.uint64(0) << (64 - lo_bits).astype(np.uint64),
    )
    lo_in = (routes.net_lo[pick] & keep_lo) | (lo & ~keep_lo)
    return np.where(inside, hi_in, hi), np.where(inside, lo_in, lo)


def v6_ints(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """``(hi, lo)`` columns as the object array of Python ints the
    program's 128-bit ``lookup_batch`` takes."""
    out = np.empty(len(hi), dtype=object)
    for i, (h, l) in enumerate(zip(hi.tolist(), lo.tolist())):
        out[i] = (h << 64) | l
    return out


def request_pool(seed: int) -> np.ndarray:
    """``REQUEST_POOL`` requests of ``REQUEST_KEYS`` uniform keys each."""
    return v4_keys(seed, REQUEST_POOL * REQUEST_KEYS, "requests").reshape(
        REQUEST_POOL, REQUEST_KEYS
    )


def poisson_schedule(seed: int, rate: float, seconds: float) -> np.ndarray:
    """Due times (seconds from phase start) of a Poisson arrival process."""
    gen = rng(seed, "arrivals")
    n = int(rate * seconds * 1.5) + 64
    due = np.cumsum(gen.exponential(1.0 / rate, n))
    return due[due < seconds]


# -- route updates ------------------------------------------------------------


@dataclass(frozen=True)
class RouteUpdate:
    """One update: kind "A" (announce) or "W" (withdraw), v4 network,
    prefix length, and next hop (0 for a withdrawal)."""

    kind: str
    net: int
    length: int
    hop: int


class _RouteList:
    """The two attributes ``generate_stream`` reads from a RIB, built
    from the parsed route list (ingesting the table would cost ~10 s)."""

    def __init__(self, routes: Routes) -> None:
        from repro.net.prefix import Prefix

        self.width = routes.width
        self._routes = [
            (Prefix(net, length, 32), hop)
            for net, length, hop in zip(
                routes.net.tolist(), routes.length.tolist(), routes.hop.tolist()
            )
        ]

    def routes(self):
        return list(self._routes)


def update_stream(seed: int, routes: Routes, count: int) -> List[RouteUpdate]:
    """``count`` updates from the program's seeded ``generate_stream``,
    applicable in order to the v4 table; cached per (seed, count)."""
    path = os.path.join(cache_dir(), f"updates-{seed}-{count}.txt")
    if not os.path.exists(path):
        from repro.data.updates import generate_stream

        stream = generate_stream(_RouteList(routes), count=count, seed=seed)

        def write(tmp: str) -> None:
            with open(tmp, "w") as f:
                for u in stream:
                    f.write(f"{u.kind} {u.prefix.value} {u.prefix.length} "
                            f"{u.nexthop if u.kind == 'A' else 0}\n")

        _atomic_write(path, write)
    out = []
    with open(path) as f:
        for line in f:
            kind, net, length, hop = line.split()
            out.append(RouteUpdate(kind, int(net), int(length), int(hop)))
    return out


def program_updates(batch: List[RouteUpdate]):
    """A batch as the program's ``Update`` objects (for the codec)."""
    from repro.data.updates import Update
    from repro.net.prefix import Prefix

    return [
        Update(u.kind, Prefix(u.net, u.length, 32), u.hop) for u in batch
    ]


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "bulk-keys":
        sys.exit("usage: inputs.py bulk-keys SEED OUT.npz")
    _write_bulk_keys(int(sys.argv[2]), sys.argv[3])
