"""Deterministic closed-loop client fleet for the gateway.

Thousands of simulated clients each drive a quote → (maybe) submit loop
off their own seeded :class:`~repro.simulation.rng.DeterministicRng`
stream and a per-client :class:`~repro.workload.arrivals.BurstyArrivals`
schedule.  The fleet is *closed-loop*: a client blocked on a reply issues
nothing new until it resolves, so offered load self-throttles exactly
like real users behind latency.

A client is a generator that yields whenever it blocks — the
:class:`~repro.serving.gateway.QuoteTicket` or
:class:`~repro.serving.gateway.SwapTicket` it waits for, or ``None`` at
the tick gate — and the fleet is the one place that decides who runs
when:

* when a tick opens, every client runs until it blocks again; then the
  gateway decides the tick (in sorted ``(client, seq)`` order, never in
  the order the fleet happened to resume clients);
* between ticks only clients whose ticket was decided run; a client
  waiting at the gate stays there until the next tick opens.

Each time a client reaches the gate it asks its arrival process how many
requests the tick carries: one burst coin per client and tick, drawn by
:func:`~repro.simulation.rng.first_random` from a fresh per-round seed,
so no draw depends on when or how often it is asked.

Virtual time therefore advances in lock-step and the merged request log
is a pure function of the seed.
"""

from __future__ import annotations

import time
from collections.abc import Generator
from dataclasses import dataclass

from repro.errors import AMMError
from repro.serving.gateway import QuoteGateway, QuoteTicket, SwapTicket
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


#: What a blocked client yields: the ticket it waits for, or ``None`` at
#: the tick gate.
_Blocked = QuoteTicket | SwapTicket | None


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
        # Bound once per client: the loop below runs once per request.
        quote, submit = gateway.quote, gateway.submit
        draw, randint = client.rng.stream.random, client.rng.stream.randint
        log, wall = client.log.append, self.wall_quote_seconds.append
        clock = time.perf_counter
        rate_for_round = client.arrivals.rate_for_round
        index, user = client.index, client.user
        lo, hi, submit_fraction = cfg.amount_lo, cfg.amount_hi, cfg.submit_fraction
        while True:
            tick = gateway.now_tick
            for _ in range(rate_for_round(1, tick, float(tick))):
                seq = client.seq
                client.seq = seq + 1
                zero_for_one = draw() < 0.5
                amount = randint(lo, hi)
                started = clock()
                quoted = quote(index, seq, zero_for_one, amount)
                yield quoted
                try:
                    quoted.result()
                except AMMError as exc:
                    log(
                        {
                            "kind": "quote",
                            "client": index,
                            "seq": seq,
                            "tick": tick,
                            "accepted": False,
                            "reason": f"error:{type(exc).__name__}",
                        }
                    )
                    continue
                wall(clock() - started)
                log(
                    {
                        "kind": "quote",
                        "client": index,
                        "seq": seq,
                        "tick": quoted.submitted_tick,
                        "served_tick": quoted.served_tick,
                        "accepted": quoted.accepted,
                        "reason": quoted.reason,
                        "amount_in": quoted.amount_in,
                        "amount_out": quoted.amount_out,
                        "snapshot_epoch": quoted.snapshot_epoch,
                    }
                )
                if quoted.accepted and draw() < submit_fraction:
                    swap_seq = client.seq
                    client.seq = swap_seq + 1
                    submitted = submit(
                        index, swap_seq, user, zero_for_one, amount, quoted.snapshot_epoch
                    )
                    yield submitted
                    submitted.result()
                    log(
                        {
                            "kind": "swap",
                            "client": index,
                            "seq": swap_seq,
                            "tick": submitted.submitted_tick,
                            "decided_tick": submitted.decided_tick,
                            "accepted": submitted.accepted,
                            "reason": submitted.reason,
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
