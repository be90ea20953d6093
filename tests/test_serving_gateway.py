"""Deterministic load tests for the serving gateway.

The headline guarantees under test:

* byte-identical request logs across repeated runs, and the same log
  when ``ServingRun.execute`` is called from inside a running event loop
  (serving is plain synchronous code; it used to call ``asyncio.run``);
* under overload every request resolves exactly once — accepted or
  rejected with a typed reason — and the admission queue never exceeds
  its configured bound;
* gateway unit behaviour: token-bucket refill, ``stale_snapshot`` and
  ``queue_full`` rejections, and graceful shutdown that serves queued
  quotes while refusing new work with ``shutting_down`` — each refusal
  stamped with the tick it was issued in.
"""

import asyncio

from repro.amm.fixed_point import encode_price_sqrt
from repro.amm.pool import Pool, PoolConfig
from repro.core.transactions import IdSpace
from repro.serving.clients import ClientFleet, FleetConfig
from repro.serving.driver import ServingConfig, ServingRun
from repro.serving.gateway import (
    REASON_QUEUE_FULL,
    REASON_RATE_LIMITED,
    REASON_SHUTTING_DOWN,
    REASON_STALE_SNAPSHOT,
    GatewayConfig,
    QuoteGateway,
    TokenBucket,
)

SMALL_RUN = dict(num_clients=40, epochs=2, ticks_per_epoch=4, seed=7)

OVERLOAD_GATEWAY = GatewayConfig(
    queue_capacity=8,
    quote_capacity_per_tick=16,
    pending_quote_bound=32,
    bucket_rate=1.0,
    bucket_burst=2.0,
    max_snapshot_age=0,
    publish_every=2,
)


def small_pool() -> Pool:
    pool = Pool(PoolConfig(token0="A", token1="B", fee_pips=3000))
    pool.initialize(encode_price_sqrt(1, 1))
    pool.mint("lp", -600, 600, 10**18)
    return pool


# -- determinism --------------------------------------------------------------


def test_repeated_runs_are_byte_identical():
    first = ServingRun(ServingConfig(**SMALL_RUN)).execute()
    second = ServingRun(ServingConfig(**SMALL_RUN)).execute()
    assert first.log == second.log
    assert first.digest() == second.digest()
    assert first.summary() == second.summary()


def test_execute_runs_inside_a_running_event_loop():
    async def from_async_code():
        return ServingRun(ServingConfig(**SMALL_RUN)).execute()

    inside = asyncio.run(from_async_code())
    plain = ServingRun(ServingConfig(**SMALL_RUN)).execute()
    assert inside.digest() == plain.digest()
    assert inside.summary() == plain.summary()


def test_different_seeds_diverge():
    base = ServingRun(ServingConfig(**SMALL_RUN)).execute()
    other = ServingRun(
        ServingConfig(**{**SMALL_RUN, "seed": 8})
    ).execute()
    assert other.digest() != base.digest()


# -- overload -----------------------------------------------------------------


def overload_run():
    return ServingRun(
        ServingConfig(
            num_clients=80,
            epochs=2,
            ticks_per_epoch=4,
            seed=11,
            submit_fraction=0.9,
            burst_fraction=0.4,
            gateway=OVERLOAD_GATEWAY,
        )
    ).execute()


def test_overload_rejections_are_typed_and_exactly_once():
    report = overload_run()
    stats = report.stats
    # Saturation actually happened and surfaced as typed reasons.
    assert stats.submit_rejections.get(REASON_QUEUE_FULL, 0) > 0
    assert stats.submit_rejections.get(REASON_STALE_SNAPSHOT, 0) > 0
    for reason in stats.submit_rejections:
        assert reason in {
            REASON_QUEUE_FULL,
            REASON_STALE_SNAPSHOT,
            REASON_RATE_LIMITED,
            REASON_SHUTTING_DOWN,
        }
    # Exactly once: unique (client, seq), and rejected entries carry a reason.
    seen = set()
    for entry in report.log:
        key = (entry["client"], entry["seq"])
        assert key not in seen
        seen.add(key)
        if not entry["accepted"]:
            assert entry["reason"]
    # Log totals reconcile against the gateway counters: no silent drops.
    quotes_logged = sum(1 for e in report.log if e["kind"] == "quote")
    swaps_logged = sum(1 for e in report.log if e["kind"] == "swap")
    assert quotes_logged == (
        stats.quotes_served
        + stats.quotes_rejected
        + sum(stats.quote_errors.values())
    )
    assert swaps_logged == stats.submits_accepted + stats.submits_rejected


def test_overload_never_exceeds_admission_bound():
    report = overload_run()
    assert 0 < report.stats.peak_admission_queue <= OVERLOAD_GATEWAY.queue_capacity
    assert report.stats.peak_pending_quotes <= OVERLOAD_GATEWAY.pending_quote_bound


def test_overload_runs_are_deterministic_too():
    assert overload_run().digest() == overload_run().digest()


# -- gateway units ------------------------------------------------------------


def test_token_bucket_burst_then_refill():
    bucket = TokenBucket(rate=1.0, burst=2.0)
    assert bucket.try_take(0)
    assert bucket.try_take(0)
    assert not bucket.try_take(0)  # burst exhausted within the tick
    assert bucket.try_take(1)      # one token refilled next tick
    assert not bucket.try_take(1)
    assert bucket.try_take(3)      # refill caps at burst, still takeable


def test_stale_snapshot_rejects_submission():
    gateway = QuoteGateway(
        small_pool(),
        IdSpace(),
        GatewayConfig(max_snapshot_age=0, publish_every=2),
    )
    gateway.publish_snapshot(0)
    gateway.on_epoch_boundary(1)  # view lags: publish_every=2 keeps epoch-0 snap
    reply = gateway.submit(0, 0, "user-0", True, 10**15, snapshot_epoch=0)
    gateway.process_tick()

    receipt = reply.result()
    assert not receipt.accepted
    assert receipt.reason == REASON_STALE_SNAPSHOT


def test_admission_queue_full_rejects_submission():
    gateway = QuoteGateway(small_pool(), IdSpace(), GatewayConfig(queue_capacity=1))
    gateway.publish_snapshot(0)
    replies = [
        gateway.submit(i, 0, f"user-{i}", True, 10**15, snapshot_epoch=0)
        for i in range(2)
    ]
    gateway.process_tick()

    first, second = (reply.result() for reply in replies)
    assert first.accepted
    assert not second.accepted
    assert second.reason == REASON_QUEUE_FULL


def test_shutdown_serves_queued_quotes_and_refuses_new_work():
    gateway = QuoteGateway(small_pool(), IdSpace())
    gateway.publish_snapshot(0)
    queued = gateway.quote(0, 0, True, 10**15)
    assert not queued.done  # request reached the inbox, not yet decided
    gateway.shutdown()
    refused = gateway.quote(1, 0, True, 10**15)

    served, late = queued.result(), refused.result()
    assert served.accepted
    assert not late.accepted
    assert late.reason == REASON_SHUTTING_DOWN


def test_rate_limited_rejection_is_typed():
    gateway = QuoteGateway(
        small_pool(), IdSpace(), GatewayConfig(bucket_rate=0.0, bucket_burst=1.0)
    )
    gateway.publish_snapshot(0)
    replies = [gateway.quote(0, seq, True, 10**15) for seq in range(2)]
    gateway.process_tick()

    first, second = (reply.result() for reply in replies)
    assert first.accepted
    assert not second.accepted
    assert second.reason == REASON_RATE_LIMITED


def test_shutdown_refusals_carry_the_tick_they_were_issued_in():
    # Four quotes served a tick against a fleet of 24: the drain takes
    # several ticks, and the clients each one answers ask again at once.
    gateway = QuoteGateway(
        small_pool(), IdSpace(), GatewayConfig(quote_capacity_per_tick=4, bucket_burst=50.0)
    )
    gateway.publish_snapshot(0)
    fleet = ClientFleet(
        gateway, ["user-0", "user-1"], FleetConfig(num_clients=24, seed=5)
    )
    fleet.run_window(2)

    def refusals():
        return [
            entry
            for entry in fleet.merged_log()
            if entry["reason"] == REASON_SHUTTING_DOWN
        ]

    #: (client, seq) -> the gateway's tick when the refusal was issued.
    issued_in: dict[tuple[int, int], int] = {}

    def between_ticks():
        fleet.deliver_replies()
        for entry in refusals():
            issued_in.setdefault((entry["client"], entry["seq"]), gateway.now_tick)

    gateway.shutdown(between_ticks)
    fleet.close()

    assert len(set(issued_in.values())) > 1  # the drain really spanned ticks
    assert len(refusals()) == len(issued_in)
    for entry in refusals():
        issued = issued_in[entry["client"], entry["seq"]]
        assert entry["tick"] == issued
        assert entry.get("served_tick", entry.get("decided_tick")) == issued
    # Nothing is left waiting on the gateway, and every request the
    # fleet issued was logged with an outcome.
    assert not gateway._inbox and not gateway._pending_quotes
    assert all(client.blocked_on is None for client in fleet.clients)
    assert fleet.requests_issued == sum(client.seq for client in fleet.clients)
