"""Seeded in-process network simulator with a virtual clock.

Datagrams between named endpoints are delayed by a uniform latency draw and
dropped with a configured probability.  A datagram stays the Frame it was
sent as until it is delivered, then is joined and checked once, and the
receive handler gets its (src, msg_type, payload).  All deliveries and
timers run through one `transport.Timers` heap ordered by (virtual time,
insertion sequence), the same heap the TCP backend runs on wall-clock time,
so a run is a pure function of the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from . import transport
from .errors import ConfigError


@dataclass(frozen=True)
class SimNetConfig:
    latency_ms: tuple[float, float] = (1.0, 1.0)
    drop_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.latency_ms
        if lo < 0 or lo > hi:
            raise ConfigError("latency_ms must satisfy 0 <= min <= max")
        if not (0.0 <= self.drop_prob < 1.0):
            raise ConfigError("drop_prob must be in [0, 1)")


class SimEndpoint:
    """A named attachment point on the simulated fabric."""

    def __init__(self, net: "SimNetwork", name: str):
        self._net = net
        self.name = name
        self._handler: Callable[[str, int, memoryview], None] | None = None

    def send(self, dst: str, data: transport.Frame | bytes) -> None:
        self._net._send(self.name, dst, data)

    def schedule(self, delay_ms: float, fn: Callable[[], None]) -> object:
        return self._net.schedule(delay_ms, fn)

    def cancel(self, handle: object) -> None:
        self._net.cancel(handle)

    def now_ms(self) -> float:
        return self._net.now_ms

    def set_receive_handler(self, fn: Callable[[str, int, memoryview], None]) -> None:
        self._handler = fn

    def _deliver(self, src: str, data: transport.Frame | bytes) -> None:
        """Join and check the frame once; the handler gets (src, msg_type,
        payload view) of exactly one valid frame, and anything else is dropped."""
        if self._handler is None:
            return
        try:
            msg_type, payload = transport.decode_frame(bytes(data))
        except transport.CorruptFrame:
            return
        self._handler(src, msg_type, payload)


class SimNetwork:
    def __init__(self, config: SimNetConfig):
        self.config = config
        self.now_ms = 0.0
        self._rng = random.Random(config.seed)
        self._timers = transport.Timers()
        self._endpoints: dict[str, SimEndpoint] = {}

    def endpoint(self, name: str) -> SimEndpoint:
        if name in self._endpoints:
            raise ConfigError(f"endpoint {name!r} already registered")
        ep = SimEndpoint(self, name)
        self._endpoints[name] = ep
        return ep

    def schedule(self, delay_ms: float, fn: Callable[[], None]) -> object:
        if delay_ms < 0:
            raise ValueError("cannot schedule into the past")
        return self._timers.schedule(self.now_ms + delay_ms, fn)

    def cancel(self, handle: object) -> None:
        self._timers.cancel(handle)

    def _send(self, src: str, dst: str, data: transport.Frame | bytes) -> None:
        if dst not in self._endpoints:
            raise KeyError(f"unknown endpoint {dst!r}")
        if self.config.drop_prob > 0 and self._rng.random() < self.config.drop_prob:
            return
        lo, hi = self.config.latency_ms
        latency = lo if lo == hi else self._rng.uniform(lo, hi)
        target = self._endpoints[dst]
        self.schedule(latency, lambda: target._deliver(src, data))

    def step(self) -> bool:
        """Run the earliest pending event; False when the queue is empty."""
        event = self._timers.pop()
        if event is None:
            return False
        self.now_ms, fn = event
        fn()
        return True

    def run(
        self, until: Callable[[], bool] | None = None, max_events: int = 10_000_000
    ) -> None:
        """Drain events until the predicate holds or the queue is idle."""
        for _ in range(max_events):
            if until is not None and until():
                return
            if not self.step():
                return
        raise RuntimeError("simulator exceeded max_events; likely a timer loop")
