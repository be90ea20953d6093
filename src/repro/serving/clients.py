"""Deterministic closed-loop client fleet for the gateway.

Thousands of simulated clients each drive a quote → (maybe) submit loop
off their own seeded :class:`~repro.simulation.rng.DeterministicRng`
stream and a per-client :class:`~repro.workload.arrivals.BurstyArrivals`
schedule.  The fleet is *closed-loop*: a client blocked on a reply issues
nothing new until it resolves, so offered load self-throttles exactly
like real users behind latency.

A client is a generator that yields whenever it blocks — the
:class:`~repro.serving.gateway.Reply` it waits for, or ``None`` at the
tick gate — and the fleet is the one place that decides who runs when:

* when a tick opens, every client runs until it blocks again; then the
  gateway decides the tick (in sorted ``(client, seq)`` order, never in
  the order the fleet happened to resume clients);
* between ticks only clients whose reply resolved run; a client waiting
  at the gate stays there until the next tick opens.

Virtual time therefore advances in lock-step and the merged request log
is a pure function of the seed.
"""

from __future__ import annotations

import time
from collections.abc import Generator
from dataclasses import dataclass
from typing import Any

from repro.errors import AMMError
from repro.serving.gateway import QuoteGateway, Reply
from repro.simulation.rng import DeterministicRng
from repro.workload.arrivals import BurstyArrivals


@dataclass(frozen=True)
class FleetConfig:
    """Shape of the simulated client population."""

    num_clients: int = 100
    seed: int | str = 0
    #: Probability an accepted quote is followed by a swap submission.
    submit_fraction: float = 0.4
    #: Per-client bursty arrival shape (base rate is 1 request/tick).
    burst_factor: float = 3.0
    burst_fraction: float = 0.2
    amount_lo: int = 10**15
    amount_hi: int = 10**18


#: What a blocked client yields: the reply it waits for, or ``None`` at
#: the tick gate.
_Blocked = Reply[Any] | None


class _Client:
    __slots__ = ("index", "user", "rng", "arrivals", "seq", "log", "steps", "blocked_on")

    def __init__(self, index: int, user: str, seed: int | str, cfg: FleetConfig):
        self.index = index
        self.user = user
        self.rng = DeterministicRng(f"{seed}/client/{index}")
        self.arrivals = BurstyArrivals(
            burst_factor=cfg.burst_factor,
            burst_fraction=cfg.burst_fraction,
            seed=f"{seed}/client/{index}",
        )
        self.seq = 0
        self.log: list[dict] = []
        #: The client's closed loop and what it last blocked on; every
        #: client starts at the gate, before its first tick.
        self.steps: Generator[_Blocked, None, None]
        self.blocked_on: _Blocked = None


class ClientFleet:
    """Drives the clients in deterministic virtual-time ticks."""

    def __init__(
        self,
        gateway: QuoteGateway,
        users: list[str],
        config: FleetConfig,
    ) -> None:
        if not users:
            raise ValueError("fleet needs at least one user address")
        self.gateway = gateway
        self.config = config
        self.clients = [
            _Client(i, users[i % len(users)], config.seed, config)
            for i in range(config.num_clients)
        ]
        for client in self.clients:
            client.steps = self._client_loop(client)
        #: Wall-clock seconds per resolved quote (non-deterministic; kept
        #: out of the logs so those stay byte-identical).
        self.wall_quote_seconds: list[float] = []

    # -- the closed loop -------------------------------------------------------

    def _client_loop(self, client: _Client) -> Generator[_Blocked, None, None]:
        gateway = self.gateway
        cfg = self.config
        while True:
            tick = gateway.now_tick
            count = client.arrivals.rate_for_round(1, tick, float(tick))
            for _ in range(count):
                seq = client.seq
                client.seq += 1
                zero_for_one = client.rng.random() < 0.5
                amount = client.rng.randint(cfg.amount_lo, cfg.amount_hi)
                started = time.perf_counter()
                quoted = gateway.quote(client.index, seq, zero_for_one, amount)
                yield quoted
                try:
                    response = quoted.result()
                except AMMError as exc:
                    client.log.append(
                        {
                            "kind": "quote",
                            "client": client.index,
                            "seq": seq,
                            "tick": tick,
                            "accepted": False,
                            "reason": f"error:{type(exc).__name__}",
                        }
                    )
                    continue
                self.wall_quote_seconds.append(time.perf_counter() - started)
                client.log.append(
                    {
                        "kind": "quote",
                        "client": client.index,
                        "seq": seq,
                        "tick": response.submitted_tick,
                        "served_tick": response.served_tick,
                        "accepted": response.accepted,
                        "reason": response.reason,
                        "amount_in": response.amount_in,
                        "amount_out": response.amount_out,
                        "snapshot_epoch": response.snapshot_epoch,
                    }
                )
                if response.accepted and client.rng.random() < cfg.submit_fraction:
                    swap_seq = client.seq
                    client.seq += 1
                    submitted = gateway.submit(
                        client.index,
                        swap_seq,
                        client.user,
                        zero_for_one,
                        amount,
                        response.snapshot_epoch,
                    )
                    yield submitted
                    receipt = submitted.result()
                    client.log.append(
                        {
                            "kind": "swap",
                            "client": client.index,
                            "seq": swap_seq,
                            "tick": receipt.submitted_tick,
                            "decided_tick": receipt.decided_tick,
                            "accepted": receipt.accepted,
                            "reason": receipt.reason,
                        }
                    )
            yield None

    def _resume(self, tick_opens: bool) -> None:
        """Run every runnable client, once, until it blocks again: the
        ones whose reply resolved and, when a tick opens, the ones at the
        gate.  A reply resolved on the spot (the gateway is draining)
        does not block."""
        for client in self.clients:
            blocked_on = client.blocked_on
            runnable = tick_opens if blocked_on is None else blocked_on.done
            if not runnable:
                continue
            steps = client.steps
            blocked_on = next(steps)
            while blocked_on is not None and blocked_on.done:
                blocked_on = next(steps)
            client.blocked_on = blocked_on

    # -- driver API ------------------------------------------------------------

    def run_window(self, ticks: int) -> None:
        """Serve ``ticks`` virtual-time ticks of closed-loop traffic."""
        for _ in range(ticks):
            self._resume(tick_opens=True)
            self.gateway.process_tick()
        # Clients answered by the last tick log their replies now; their
        # follow-ups join the next window's inbox.
        self.deliver_replies()

    def deliver_replies(self) -> None:
        """Between ticks: run the clients whose reply resolved; whoever
        waits at the gate stays there until the next tick opens."""
        self._resume(tick_opens=False)

    def close(self) -> None:
        """Stop the fleet: no client runs again.  Replies the gateway has
        not resolved (``gateway.shutdown`` resolves them all) are never
        logged."""
        for client in self.clients:
            client.steps.close()

    # -- results ---------------------------------------------------------------

    def merged_log(self) -> list[dict]:
        """All client log entries, deterministically ordered."""
        entries = [entry for client in self.clients for entry in client.log]
        entries.sort(key=lambda e: (e["client"], e["seq"]))
        return entries

    @property
    def requests_issued(self) -> int:
        return sum(len(client.log) for client in self.clients)
