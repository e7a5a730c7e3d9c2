"""Bandwidth- and latency-modeled network links.

The paper's experiments are parameterized almost entirely by link bandwidth
(1 KB/s … 1 MB/s) — the authors emulated these bandwidths by injecting
delays inside a cluster.  :class:`Link` models exactly that: a FIFO serial
pipe where a message of ``size`` bytes occupies the transmitter for
``size / bandwidth`` seconds and arrives ``latency`` seconds after its last
byte leaves.  :class:`TokenBucket` provides the rate-limiting primitive the
real-thread runtime uses for the same purpose.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional

from repro.simnet.engine import Environment, Event
from repro.simnet.resources import CapacityResource, Store

__all__ = ["Link", "LinkStats", "Message", "TokenBucket", "TransmissionError"]


class TransmissionError(Exception):
    """A message was lost in transit (transient fault; see ``set_loss``).

    The sender's ``send`` event fails with this exception after the full
    transmission time has been spent — the bandwidth was consumed, the
    message was not delivered.  Senders that care retry (the runtime's
    bounded retry-with-backoff path in
    :mod:`repro.core.runtime_sim`); senders that don't will see the
    exception propagate out of their process.
    """


@dataclass
class Message:
    """A unit of data in flight between two stages.

    Attributes
    ----------
    payload:
        Arbitrary application data.
    size:
        Size in bytes used for transmission-time accounting.
    sent_at:
        Simulation time the message entered the link (stamped by the link).
    seq:
        Per-link sequence number (stamped by the link).
    tx_time:
        Seconds it occupies the transmitter, at the bandwidth in force
        when its transmission starts (stamped by the link).
    """

    payload: Any
    size: float
    sent_at: float = 0.0
    seq: int = -1
    tx_time: float = 0.0


@dataclass
class LinkStats:
    """Aggregate counters for a :class:`Link`."""

    messages: int = 0
    bytes: float = 0.0
    busy_time: float = 0.0
    last_delivery: float = field(default=0.0)

    def throughput(self, elapsed: float) -> float:
        """Delivered bytes per second over ``elapsed`` seconds."""
        return self.bytes / elapsed if elapsed > 0 else 0.0


class Link:
    """A serial FIFO link with finite bandwidth and propagation latency.

    Parameters
    ----------
    env:
        Owning environment.
    bandwidth:
        Bytes per second (may be ``math.inf`` for an ideal link).
    latency:
        Propagation delay in seconds added after transmission.
    name:
        Diagnostic label.

    Semantics
    ---------
    ``send(payload, size)`` returns an event that completes when the
    message has been fully *transmitted* (sender-side blocking, which is
    what creates back-pressure on upstream stages exactly as a saturated
    socket would).  Delivery into the receiver-side :class:`Store` happens
    ``latency`` seconds later; messages are delivered in order.  Each costs
    one heap event: a send while the transmitter is busy waits its turn
    (FIFO) and is scheduled when it starts.
    """

    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        latency: float = 0.0,
        name: str = "link",
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.env = env
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.name = name
        self.stats = LinkStats()
        self._tx = CapacityResource(env, capacity=1)
        self._delivered: Store = Store(env)
        self._seq = 0
        #: Optional callback invoked with each delivered Message.
        self.on_delivery: Optional[Callable[[Message], None]] = None
        #: When False, delivered messages are not queued into the inbox
        #: (stats and callbacks still fire).  Consumers that track their
        #: own deliveries (the stage runtime) disable collection so that
        #: unrelated traffic sharing the link (cross-traffic) can never
        #: interleave with theirs — and the inbox cannot grow unboundedly.
        self.collect_inbox: bool = True
        #: Transient-loss injection (0 = lossless; see :meth:`set_loss`).
        self.loss_rate: float = 0.0
        self._loss_rng: Optional[random.Random] = None
        #: Messages dropped by loss injection (diagnostic counter).
        self.losses: int = 0

    def set_loss(self, rate: float, seed: int = 0) -> None:
        """Drop each transmitted message independently with ``rate``.

        Models transient wire faults: the transmission occupies the link
        for its full time, then the sender's ``send`` event *fails* with
        :class:`TransmissionError` instead of delivering.  Deterministic
        given ``seed``.
        """
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {rate}")
        self.loss_rate = float(rate)
        self._loss_rng = random.Random(seed) if rate > 0 else None

    @property
    def inbox(self) -> Store:
        """Receiver-side store of delivered messages."""
        return self._delivered

    def transmission_time(self, size: float) -> float:
        """Seconds the transmitter is occupied by ``size`` bytes."""
        if math.isinf(self.bandwidth):
            return 0.0
        return size / self.bandwidth

    def bind_metrics(self, registry) -> None:
        """Publish this link's counters into a metrics registry.

        Registers callback gauges (``link.<name>.tx_busy`` / ``.bytes`` /
        ``.messages``) that read the live :class:`LinkStats` at export
        time — zero per-message overhead.  Idempotent: re-binding the
        same link to the same registry is a no-op (get-or-create).
        """
        prefix = f"link.{self.name}"
        registry.gauge(f"{prefix}.tx_busy", fn=lambda: self.stats.busy_time)
        registry.gauge(f"{prefix}.bytes", fn=lambda: self.stats.bytes)
        registry.gauge(f"{prefix}.messages", fn=lambda: float(self.stats.messages))

    def set_bandwidth(self, bandwidth: float) -> None:
        """Change the link's bandwidth at runtime.

        Models varying resource availability (the paper's premise is
        adaptation "as resource availability is varied widely").  Only
        messages whose transmission starts after the change see the new
        rate; an in-flight transmission completes at the old one.
        """
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
        self.bandwidth = float(bandwidth)

    def send(self, payload: Any, size: float) -> Event:
        """Transmit ``payload`` of ``size`` bytes; event fires at TX done."""
        if size < 0:
            raise ValueError(f"message size must be >= 0, got {size}")
        sent = Event(self.env)
        # First callback, ahead of the sender's own: the sender resumes
        # into a freed transmitter and sees a loss as its failure.
        sent.callbacks.append(self._sent)
        self._tx.claim(partial(self._transmit, sent, Message(payload, float(size))))
        return sent

    def _transmit(self, sent: Event, message: Message) -> None:
        message.sent_at = self.env.now
        message.seq = self._seq
        self._seq += 1
        message.tx_time = self.transmission_time(message.size)
        sent.complete(message, message.tx_time)

    def _sent(self, sent: Event) -> None:
        message = sent._value
        self.stats.busy_time += message.tx_time
        self._tx.free()
        if self._loss_rng is not None and self._loss_rng.random() < self.loss_rate:
            self.losses += 1
            sent._ok = False
            sent._value = TransmissionError(
                f"{self.name}: message seq={message.seq} lost in transit"
            )
        else:
            self.env.call_later(self.latency, self._deliver, message)

    def _deliver(self, arrival: Event) -> None:
        message = arrival._value
        self.stats.messages += 1
        self.stats.bytes += message.size
        self.stats.last_delivery = self.env.now
        if self.collect_inbox:
            self._delivered.try_put(message)
        if self.on_delivery is not None:
            self.on_delivery(message)

    def receive(self) -> Event:
        """Event yielding the next delivered :class:`Message` (FIFO)."""
        return self._delivered.get()

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the transmitter was busy."""
        elapsed = self.env.now if elapsed is None else elapsed
        return self.stats.busy_time / elapsed if elapsed > 0 else 0.0


class TokenBucket:
    """Classic token-bucket rate limiter (wall-clock based).

    Used by the real-thread runtime (:mod:`repro.core.runtime_threads`) to
    emulate a bandwidth-limited link the same way the paper injected delay
    into its cluster network.  ``consume(n)`` returns the number of seconds
    the caller should sleep before the n tokens are considered available.

    Parameters
    ----------
    rate:
        Token refill rate (tokens/second); tokens map to bytes.
    burst:
        Bucket depth.  Defaults to one second worth of tokens.
    clock:
        Injected time source (monotonic seconds); defaults are supplied by
        the caller so the class itself stays deterministic and testable.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else float(rate)
        if self.burst <= 0:
            raise ValueError(f"burst must be > 0, got {burst}")
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._tokens = self.burst
        self._last = self._clock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._last)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._last = now

    @property
    def tokens(self) -> float:
        """Tokens currently available (after refill at the injected clock)."""
        self._refill(self._clock())
        return self._tokens

    def consume(self, amount: float) -> float:
        """Debit ``amount`` tokens; return seconds to wait until covered.

        The debit always happens (the bucket may go negative), which gives
        long-run average rate exactly ``rate`` even for messages larger
        than the burst size.
        """
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        now = self._clock()
        self._refill(now)
        self._tokens -= amount
        if self._tokens >= 0:
            return 0.0
        return -self._tokens / self.rate
