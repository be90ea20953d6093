"""Serving-layer scenarios: closed-loop latency and typed overload.

* ``serving_latency`` — a closed-loop client fleet (hundreds to
  thousands of simulated clients on seeded bursty arrivals) quotes and
  swaps against the gateway; rows report p50/p99 quote latency in
  serving ticks and swap-to-finality in epoch boundaries.  The log
  digest column pins byte-identical behaviour across runs and
  ``--jobs`` fan-out.
* ``serving_overload`` — the same fleet against progressively tighter
  admission bounds, with a deliberately lagging snapshot
  (``publish_every=2`` with ``max_snapshot_age=0``), so saturation shows
  up as *typed* rejections (``queue_full``, ``stale_snapshot``,
  ``shutting_down``) wired into the existing ``peak_queue_depth``
  metric.  The exactly-once column audits that every logged request was
  accepted or rejected-with-reason — never silently dropped.

Fleet sizes divide by the REPRO_FAST/``--scale`` boost like every other
system scenario, so CI smoke runs stay fast.
"""

from __future__ import annotations

from repro.scenarios.scaling import env_scale_boost
from repro.scenarios.spec import ScenarioSpec
from repro.serving.driver import ServingConfig, ServingReport, ServingRun
from repro.serving.gateway import GatewayConfig

EPOCHS = 3
TICKS_PER_EPOCH = 6


def _fleet_boost(params) -> int:
    scale = params.get("scale")
    return max(1, scale if scale is not None else env_scale_boost())


def _exactly_once(report: ServingReport) -> bool:
    """Every request logged once, and accepted xor rejected-with-reason."""
    seen = set()
    for entry in report.log:
        key = (entry["client"], entry["seq"])
        if key in seen:
            return False
        seen.add(key)
        if not entry["accepted"] and not entry.get("reason"):
            return False
    stats = report.stats
    quotes_logged = sum(1 for e in report.log if e["kind"] == "quote")
    swaps_logged = sum(1 for e in report.log if e["kind"] == "swap")
    quote_outcomes = (
        stats.quotes_served
        + stats.quotes_rejected
        + sum(stats.quote_errors.values())
    )
    swap_outcomes = stats.submits_accepted + stats.submits_rejected
    return quotes_logged == quote_outcomes and swaps_logged == swap_outcomes


# ---------------------------------------------------------------------------
# serving_latency
# ---------------------------------------------------------------------------


def serving_latency_point(params) -> dict:
    boost = _fleet_boost(params)
    clients = max(25, params["clients"] // boost)
    config = ServingConfig(
        num_clients=clients,
        epochs=EPOCHS,
        ticks_per_epoch=TICKS_PER_EPOCH,
        seed=params["seed"],
        gateway=GatewayConfig(
            queue_capacity=512,
            quote_capacity_per_tick=256,
            pending_quote_bound=4096,
        ),
    )
    report = ServingRun(config).execute()
    summary = report.summary()
    latency = summary["quote_latency_ticks"]
    finality = summary["swap_finality_epochs"]
    rejected = (
        report.stats.quotes_rejected + report.stats.submits_rejected
    )
    row = [
        clients,
        summary["quotes_served"],
        latency["p50"],
        latency["p99"],
        summary["swaps_accepted"],
        finality["p50"],
        finality["p99"],
        rejected,
        "yes" if _exactly_once(report) else "NO",
        report.digest()[:12],
    ]
    return {"rows": [row]}


def serving_latency_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="serving_latency",
        experiment_id="Extra: Serving latency",
        title="Closed-loop quote/swap latency through the serving gateway",
        headers=("clients", "quotes", "quote p50 ticks", "quote p99 ticks",
                 "swaps", "finality p50 ep", "finality p99 ep", "rejected",
                 "exactly-once", "log digest"),
        grid=(
            {"clients": 200},
            {"clients": 600},
            {"clients": 1200},
        ),
        point=serving_latency_point,
        notes=(
            "thousands of seeded closed-loop clients quote against the "
            "frozen epoch-boundary snapshot and submit swaps into the "
            "bounded admission queue; quote latency is measured in "
            "serving ticks, swap-to-finality in epoch boundaries from "
            "admission to the confirming sync; the digest pins the "
            "merged request log byte-for-byte"
        ),
        group="extra",
        accepts_scale=True,
        derive_seeds=True,
        description="closed-loop p50/p99 quote latency + swap-to-finality, snapshot reads",
    )


# ---------------------------------------------------------------------------
# serving_overload
# ---------------------------------------------------------------------------


def serving_overload_point(params) -> dict:
    boost = _fleet_boost(params)
    clients = max(50, params["clients"] // boost)
    config = ServingConfig(
        num_clients=clients,
        epochs=EPOCHS,
        ticks_per_epoch=TICKS_PER_EPOCH,
        seed=params["seed"],
        submit_fraction=0.9,
        burst_fraction=0.4,
        gateway=GatewayConfig(
            queue_capacity=params["queue_capacity"],
            quote_capacity_per_tick=64,
            pending_quote_bound=128,
            bucket_rate=1.0,
            bucket_burst=2.0,
            max_snapshot_age=0,
            publish_every=2,
        ),
    )
    report = ServingRun(config).execute()
    stats = report.stats
    swap_rejects = stats.submit_rejections
    row = [
        params["queue_capacity"],
        len(report.log),
        stats.quotes_served,
        stats.quotes_rejected,
        stats.submits_accepted,
        swap_rejects.get("queue_full", 0),
        swap_rejects.get("stale_snapshot", 0),
        swap_rejects.get("shutting_down", 0),
        stats.peak_admission_queue,
        report.metrics_summary["peak_queue_depth"],
        "yes" if _exactly_once(report) else "NO",
        report.digest()[:12],
    ]
    return {"rows": [row]}


def serving_overload_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="serving_overload",
        experiment_id="Extra: Serving overload",
        title="Typed backpressure under admission-queue saturation",
        headers=("queue cap", "issued", "quotes", "q rejected", "swaps",
                 "swap queue_full", "stale_snapshot", "shutting_down",
                 "peak adm queue", "peak queue depth", "exactly-once",
                 "log digest"),
        grid=(
            {"clients": 400, "queue_capacity": 256},
            {"clients": 400, "queue_capacity": 48},
            {"clients": 400, "queue_capacity": 12},
        ),
        point=serving_overload_point,
        notes=(
            "a hot fleet against shrinking admission queues and a "
            "read view that lags every other boundary: every submission "
            "resolves as accepted or one of the typed rejections — the "
            "peak admission queue never exceeds its bound and the "
            "exactly-once audit fails the row on any silent drop"
        ),
        group="extra",
        accepts_scale=True,
        derive_seeds=True,
        description="typed queue_full/stale_snapshot rejections once admission saturates",
    )


SERVING_SPEC_BUILDERS = (
    serving_latency_spec,
    serving_overload_spec,
)
