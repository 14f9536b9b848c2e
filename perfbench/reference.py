"""A longest-prefix-match reference that shares no code with the program.

For every prefix length present it keeps one sorted array of prefix
values (the network shifted down to its top ``length`` bits) and the
matching next hops.  A lookup walks the lengths from longest to
shortest; at each length one ``searchsorted`` tells, for every key at
once, whether its top bits are a prefix in the table, and the first hit
wins.  0 means no route, as in the program.

IPv6 keys are ``(hi, lo)`` uint64 columns.  Lengths up to 64 compare the
high word only; longer prefixes (none in the Table 6 table) go through
a dict on the full pair.

:func:`self_check` compares the reference against a brute-force scan
on small random tables before any workload trusts it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

import numpy as np


class LpmReference:
    def __init__(self, width: int, net, net_lo, length, hop) -> None:
        self.width = width
        net = np.asarray(net, dtype=np.uint64)
        net_lo = np.asarray(net_lo, dtype=np.uint64)
        length = np.asarray(length, dtype=np.int64)
        hop = np.asarray(hop, dtype=np.uint32)
        self.default = 0
        self._levels = []  # (length, sorted values, hops), longest first
        self._long: Dict[int, Dict[Tuple[int, int], int]] = {}
        for plen in sorted(set(length.tolist()), reverse=True):
            mask = length == plen
            if plen == 0:
                self.default = int(hop[mask][-1])
                continue
            if width == 32:
                values = net[mask] >> np.uint64(32 - plen)
            elif plen <= 64:
                values = net[mask] >> np.uint64(64 - plen)
            else:
                shift = 128 - plen
                self._long[plen] = {
                    (h, l >> shift): p
                    for h, l, p in zip(
                        net[mask].tolist(), net_lo[mask].tolist(),
                        hop[mask].tolist(),
                    )
                }
                continue
            order = np.argsort(values, kind="stable")
            self._levels.append((plen, values[order], hop[mask][order]))

    @classmethod
    def from_routes(cls, routes) -> "LpmReference":
        return cls(routes.width, routes.net, routes.net_lo, routes.length,
                   routes.hop)

    @classmethod
    def from_route_dict(cls, width: int, routes: Dict[Tuple[int, int], int]):
        """From ``{(network, length): hop}`` (v4 networks as ints)."""
        items = list(routes.items())
        net = np.array([n for (n, _), _ in items], dtype=np.uint64)
        length = np.array([l for (_, l), _ in items], dtype=np.int64)
        hop = np.array([h for _, h in items], dtype=np.uint32)
        return cls(width, net, np.zeros_like(net), length, hop)

    def lookup(self, keys, keys_lo=None) -> np.ndarray:
        """Next hops for ``keys`` (v4) or ``(keys, keys_lo)`` (v6)."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(len(keys), dtype=np.uint32)
        todo = np.ones(len(keys), dtype=bool)
        if self._long:
            lo = np.asarray(keys_lo, dtype=np.uint64)
            for plen in sorted(self._long, reverse=True):
                table = self._long[plen]
                shift = 128 - plen
                for i in np.flatnonzero(todo):
                    hit = table.get((int(keys[i]), int(lo[i]) >> shift))
                    if hit is not None:
                        out[i] = hit
                        todo[i] = False
        top = 32 if self.width == 32 else 64
        for plen, values, hops in self._levels:
            shifted = keys >> np.uint64(top - plen)
            idx = np.searchsorted(values, shifted)
            np.minimum(idx, len(values) - 1, out=idx)
            hit = todo & (values[idx] == shifted)
            out[hit] = hops[idx[hit]]
            todo &= ~hit
        out[todo] = self.default
        return out


def brute_force(width: int, routes: Iterable[Tuple[int, int, int]], key: int) -> int:
    """Longest match by scanning every ``(network, length, hop)``."""
    best_len, best_hop = -1, 0
    for net, plen, hop in routes:
        if plen > best_len and (key >> (width - plen)) == (net >> (width - plen)):
            best_len, best_hop = plen, hop
    return best_hop


def self_check(seed: int = 1) -> None:
    """Raise ``AssertionError`` unless the reference equals a brute-force
    scan on small random v4 and v6 tables (with a default route, nested
    prefixes and, for v6, prefixes longer than 64 bits)."""
    gen = np.random.default_rng(seed)
    for width in (32, 128):
        routes = {}
        for _ in range(300):
            plen = int(gen.integers(0, width + 1))
            if gen.random() < 0.5:
                plen = int(gen.integers(1, 9)) if width == 32 else int(gen.integers(1, 20))
            value = int.from_bytes(gen.bytes(width // 8), "big")
            net = (value >> (width - plen)) << (width - plen) if plen else 0
            routes[(net, plen)] = int(gen.integers(1, 50))
        triples = [(n, l, h) for (n, l), h in routes.items()]
        keys = [int.from_bytes(gen.bytes(width // 8), "big") for _ in range(1500)]
        # Keys inside random routes, so that long prefixes get hit too.
        for net, plen, _ in triples[:300]:
            host = int.from_bytes(gen.bytes(width // 8), "big")
            keys.append(net | (host & ((1 << (width - plen)) - 1)))
        want = [brute_force(width, triples, k) for k in keys]
        if width == 32:
            ref = LpmReference(
                32,
                [n for n, _, _ in triples], [0] * len(triples),
                [l for _, l, _ in triples], [h for _, _, h in triples],
            )
            got = ref.lookup(np.array(keys, dtype=np.uint64))
        else:
            mask = (1 << 64) - 1
            ref = LpmReference(
                128,
                [n >> 64 for n, _, _ in triples],
                [n & mask for n, _, _ in triples],
                [l for _, l, _ in triples], [h for _, _, h in triples],
            )
            got = ref.lookup(
                np.array([k >> 64 for k in keys], dtype=np.uint64),
                np.array([k & mask for k in keys], dtype=np.uint64),
            )
        if got.tolist() != want:
            bad = next(i for i, (g, w) in enumerate(zip(got.tolist(), want)) if g != w)
            raise AssertionError(
                f"reference LPM disagrees with brute force (width {width}, "
                f"key {keys[bad]:#x}: {got[bad]} != {want[bad]})"
            )
