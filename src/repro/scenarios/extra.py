"""Scenarios beyond the paper's tables — workloads the monolithic epoch
loop made awkward.

* ``multipool`` — traffic over many pools through
  :class:`~repro.multipool.executor.MultiPoolExecutor`, with the shared
  per-token deposit map and token-conservation checks;
* ``adversarial`` — system-level interruptions (sync-withholding
  leaders, consecutive failures, mainchain rollbacks) and their
  mass-sync recovery;
* ``pbft_adversary`` — committee-level misbehaviour
  (:mod:`repro.sidechain.adversary`): silent/equivocating leaders, vote
  withholding, Δ-bound network delay, resolved by view changes;
* ``arrivals`` — bursty and diurnal arrival processes
  (:mod:`repro.workload.arrivals`) against the constant-rate baseline.

The fault-injection scenarios (``partition_heal``, ``crash_churn``,
``delta_sweep``, ``interrupted_recovery``) live in
:mod:`repro.scenarios.faults` and register through the same builder
tuple.  All derive per-point seeds from the runner's deterministic
substreams, so tables are stable across runs and job counts.
"""

from __future__ import annotations

from repro import constants
from repro.core import phases
from repro.core.system import AmmBoostConfig, AmmBoostSystem
from repro.core.transactions import IdSpace, MintTx
from repro.crypto.keys import generate_keypair
from repro.multipool.executor import MultiPoolExecutor, PoolKey
from repro.scenarios.spec import ScenarioSpec
from repro.sidechain.adversary import corrupt_members, max_delay_adversary
from repro.sidechain.pbft import PbftConfig, PbftRound
from repro.simulation.clock import SimClock
from repro.simulation.events import EventScheduler
from repro.simulation.network import Network, NetworkConfig
from repro.simulation.rng import DeterministicRng
from repro.workload.arrivals import BurstyArrivals, ConstantArrivals, DiurnalArrivals
from repro.workload.distribution import TrafficDistribution
from repro.workload.generator import TrafficGenerator
from repro.workload.users import UserPopulation


def _small_config(seed: int, **overrides) -> AmmBoostConfig:
    defaults = dict(
        committee_size=8,
        miner_population=16,
        num_users=10,
        daily_volume=200_000,
        rounds_per_epoch=6,
        seed=seed,
    )
    defaults.update(overrides)
    return AmmBoostConfig(**defaults)


# ---------------------------------------------------------------------------
# multipool — traffic across many pools with shared per-token deposits
# ---------------------------------------------------------------------------


def multipool_point(params) -> dict:
    num_pools = params["num_pools"]
    rounds = params["rounds"]
    txs_per_round = params["txs_per_round"]
    seed = params["seed"]
    deposit = 10**22

    executor = MultiPoolExecutor()
    keys = [PoolKey(f"TK{i}", f"TK{i + 1}") for i in range(num_pools)]
    for key in keys:
        executor.create_pool(key)
    tokens = [f"TK{i}" for i in range(num_pools + 1)]

    # One population per pool (so burns target positions of that pool)
    # sharing one address space — and therefore one deposit map, the
    # multi-pool "newly accrued tokens are usable immediately" property.
    rng = DeterministicRng(seed)
    ids = IdSpace()
    users = 20
    populations = [
        UserPopulation(users, seed=seed) for _ in range(num_pools)
    ]
    generators = [
        TrafficGenerator(
            population=populations[i],
            distribution=TrafficDistribution.uniswap_2023(),
            rng=rng.child(f"pool{i}"),
            ids=ids,
            tick_spacing=executor.pools[keys[i].pool_id].config.tick_spacing,
        )
        for i in range(num_pools)
    ]
    for address in populations[0].addresses:
        for token in tokens:
            executor.credit_deposit(address, token, deposit)
    credited = {token: users * deposit for token in tokens}

    # Seed every pool with one wide LP position so swaps execute.
    for i, key in enumerate(keys):
        lp = populations[i].addresses[0]
        mint = MintTx(
            user=lp, tick_lower=-60_000, tick_upper=60_000,
            amount0_desired=10**20, amount1_desired=10**20, tx_id=ids(),
        )
        assert executor.process(key.pool_id, mint), mint.reject_reason
        populations[i].on_position_created(lp, mint.effects["position_id"])

    accepted = rejected = 0
    for round_index in range(rounds):
        for i, key in enumerate(keys):
            pool = executor.pools[key.pool_id]
            txs = generators[i].generate_round(
                txs_per_round, submitted_at=float(round_index), current_tick=pool.tick
            )
            for tx in txs:
                if executor.process(key.pool_id, tx, current_round=round_index):
                    accepted += 1
                    if isinstance(tx, MintTx):
                        populations[i].on_position_created(
                            tx.user, tx.effects["position_id"]
                        )
                else:
                    rejected += 1

    summary = executor.summarize(epoch=0)
    conserved = all(
        executor.total_token_supply(token) == credited[token] for token in tokens
    )
    row = [
        num_pools,
        accepted + rejected,
        accepted,
        rejected,
        len(summary.positions),
        "yes" if conserved else "NO",
    ]
    return {"rows": [row]}


def multipool_spec(
    pool_counts=(1, 2, 4, 8), rounds: int = 20, txs_per_round: int = 40
) -> ScenarioSpec:
    return ScenarioSpec(
        name="multipool",
        experiment_id="Extra: MultiPool",
        title="Traffic across pools with shared per-token deposits",
        headers=("pools", "txs", "accepted", "rejected", "positions",
                 "tokens conserved"),
        grid=tuple(
            {"num_pools": count, "rounds": rounds, "txs_per_round": txs_per_round}
            for count in pool_counts
        ),
        point=multipool_point,
        notes=(
            "per-token deposits are shared across pools within the epoch; "
            "conservation checks deposits + all pool reserves per token"
        ),
        group="extra",
        derive_seeds=True,
        description="MultiPoolExecutor under generated traffic, 1-8 pools",
    )


# ---------------------------------------------------------------------------
# adversarial — interruptions and mass-sync recovery, end to end
# ---------------------------------------------------------------------------


def adversarial_point(params) -> dict:
    mode, seed = params["mode"], params["seed"]
    if mode == "baseline":
        system = AmmBoostSystem(_small_config(seed))
        epochs = 3
        metrics = system.run(num_epochs=epochs)
    elif mode == "fail_sync":
        system = AmmBoostSystem(_small_config(seed, fail_sync_epochs={1}))
        epochs = 3
        metrics = system.run(num_epochs=epochs)
    elif mode == "double_fail_sync":
        system = AmmBoostSystem(_small_config(seed, fail_sync_epochs={0, 1}))
        epochs = 4
        metrics = system.run(num_epochs=epochs)
    elif mode == "rollback":
        system = AmmBoostSystem(_small_config(seed))
        system.setup()
        system._traffic_start = system.clock.now
        system._run_epoch(0, inject=True)
        system.mainchain.produce_blocks_until(system.clock.now + 36)
        phases.check_pending_syncs(system)
        sync_tx = next(
            tx
            for block in system.mainchain.blocks
            for tx in block.transactions
            if tx.label == "sync"
        )
        depth = system.mainchain.height - sync_tx.block_number
        system.inject_mainchain_rollback(depth)
        system._run_epoch(1, inject=True)
        system.mainchain.produce_blocks_until(system.clock.now + 36)
        phases.check_pending_syncs(system)
        phases.MetricsFinalizePhase().run(system)
        epochs = 2
        metrics = system.metrics
    else:
        raise ValueError(f"unknown adversarial mode {mode!r}")

    epochs_synced = sum(1 for e in range(epochs) if system.ledger.is_synced(e))
    recovered = epochs_synced == epochs
    row = [
        mode,
        metrics.processed_txs,
        metrics.num_syncs,
        f"{epochs_synced}/{epochs}",
        "yes" if recovered else "NO",
    ]
    return {"rows": [row]}


def adversarial_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="adversarial",
        experiment_id="Extra: Interruptions",
        title="Interrupted epochs recovered by mass-sync (Section IV-C)",
        headers=("mode", "processed txs", "syncs", "epochs synced", "recovered"),
        grid=(
            {"mode": "baseline"},
            {"mode": "fail_sync"},
            {"mode": "double_fail_sync"},
            {"mode": "rollback"},
        ),
        point=adversarial_point,
        notes=(
            "fail_sync: leader withholds the Sync call; rollback: a fork "
            "abandons a confirmed sync and TokenBank rewinds — both are "
            "mass-synced with key hand-over certificates"
        ),
        group="extra",
        derive_seeds=True,
        description="sync-withholding leaders + mainchain rollbacks, recovered",
    )


# ---------------------------------------------------------------------------
# pbft_adversary — committee-level misbehaviour resolved by view changes
# ---------------------------------------------------------------------------


def pbft_adversary_point(params) -> dict:
    mode, seed = params["mode"], params["seed"]
    members = [f"miner{i}" for i in range(8)]  # 3f + 2 with f = 2
    keypairs = {m: generate_keypair(f"{seed}/{m}") for m in members}
    behaviors = {}
    delay_hook = None
    if mode == "silent_leader":
        behaviors = corrupt_members(members, 1, silent_as_leader=True)
    elif mode == "invalid_proposer":
        behaviors = corrupt_members(members, 1, propose_invalid=True)
    elif mode == "two_bad_leaders":
        behaviors = corrupt_members(members, 2, silent_as_leader=True)
    elif mode == "vote_withholders":
        behaviors = corrupt_members(members, 2, withhold_votes=True)
    elif mode == "max_delay":
        delay_hook = max_delay_adversary(NetworkConfig().delta_bound)
    elif mode != "honest":
        raise ValueError(f"unknown pbft mode {mode!r}")

    scheduler = EventScheduler(SimClock())
    network = Network(scheduler, DeterministicRng(seed))
    if delay_hook is not None:
        network.set_adversary_delay(delay_hook)
    pbft = PbftRound(
        PbftConfig(
            members=members,
            quorum=constants.committee_quorum(len(members)),
            view_timeout=1.0,
        ),
        network,
        scheduler,
        keypairs,
        proposer_fn=lambda view: {"meta-block": view},
        validator=lambda proposal: isinstance(proposal, dict),
        behaviors=behaviors,
    )
    outcome = pbft.run_to_completion()
    row = [
        mode,
        "yes" if outcome.decided else "NO",
        outcome.view,
        round(outcome.decided_at, 3),
    ]
    return {"rows": [row]}


def pbft_adversary_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="pbft_adversary",
        experiment_id="Extra: PBFT adversary",
        title="Committee agreement under corrupted members (f of 3f+2)",
        headers=("behaviour", "decided", "final view", "agreement s"),
        grid=(
            {"mode": "honest"},
            {"mode": "silent_leader"},
            {"mode": "invalid_proposer"},
            {"mode": "two_bad_leaders"},
            {"mode": "vote_withholders"},
            {"mode": "max_delay"},
        ),
        point=pbft_adversary_point,
        notes="bad leaders cost one view change each; delay costs time, not views",
        group="extra",
        derive_seeds=True,
        description="silent/equivocating leaders, withheld votes, Δ-bound delay",
    )


# ---------------------------------------------------------------------------
# arrivals — bursty and diurnal traffic against the constant baseline
# ---------------------------------------------------------------------------


def arrivals_point(params) -> dict:
    profile, seed = params["profile"], params["seed"]
    if profile == "constant":
        process = ConstantArrivals()
    elif profile == "bursty":
        process = BurstyArrivals(
            burst_factor=params["burst_factor"],
            burst_fraction=params["burst_fraction"],
            seed=seed,
        )
    elif profile == "diurnal":
        process = DiurnalArrivals(
            amplitude=params["amplitude"],
            period=params.get("period", 86_400.0),
        )
    else:
        raise ValueError(f"unknown arrival profile {profile!r}")

    label = params.get("label", profile)
    config = _small_config(seed, daily_volume=1_000_000, meta_block_size=40_000)
    system = AmmBoostSystem(config, arrivals=process)
    metrics = system.run(num_epochs=3)
    row = [
        label,
        metrics.processed_txs,
        round(metrics.throughput, 2),
        round(metrics.sidechain_latency.mean, 2),
        round(metrics.payout_latency.mean, 2),
        metrics.peak_queue_depth,
    ]
    return {"rows": [row]}


def arrivals_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="arrivals",
        experiment_id="Extra: Arrivals",
        title="Arrival processes: constant vs bursty vs diurnal",
        headers=("profile", "processed txs", "tput tx/s", "sc lat s",
                 "payout lat s", "peak queue"),
        grid=(
            {"profile": "constant"},
            {"profile": "bursty", "burst_factor": 3.0, "burst_fraction": 0.25,
             "label": "bursty 3x/25%"},
            {"profile": "bursty", "burst_factor": 6.0, "burst_fraction": 0.1,
             "label": "bursty 6x/10%"},
            # One full cycle per epoch (6 rounds x 7 s), so the modulation
            # is visible inside the short simulated horizon.
            {"profile": "diurnal", "amplitude": 0.5, "period": 42.0,
             "label": "diurnal A=0.5"},
            {"profile": "diurnal", "amplitude": 1.0, "period": 42.0,
             "label": "diurnal A=1.0"},
        ),
        point=arrivals_point,
        notes=(
            "bursty/diurnal conserve mean volume; queue depth and latency "
            "absorb the variance (near capacity the bursts congest)"
        ),
        group="extra",
        derive_seeds=True,
        description="bursty/diurnal arrival processes vs the paper's constant rho",
    )


#: Builders for the extra scenarios, in listing order.  The fault-injection
#: scenarios (partition_heal, crash_churn, delta_sweep,
#: interrupted_recovery) live in :mod:`repro.scenarios.faults`, the
#: sharding scenarios (shard_scaling, hot_shard, cross_shard_ratio) in
#: :mod:`repro.scenarios.shard`, the recovery scenarios
#: (fork_recovery, shard_rebalance) in :mod:`repro.scenarios.recovery`,
#: and the serving scenarios (serving_latency, serving_overload) in
#: :mod:`repro.scenarios.serving`; all register through the same tuple.
from repro.scenarios.faults import FAULT_SPEC_BUILDERS  # noqa: E402
from repro.scenarios.recovery import RECOVERY_SPEC_BUILDERS  # noqa: E402
from repro.scenarios.serving import SERVING_SPEC_BUILDERS  # noqa: E402
from repro.scenarios.shard import SHARD_SPEC_BUILDERS  # noqa: E402

EXTRA_SPEC_BUILDERS = (
    (
        multipool_spec,
        adversarial_spec,
        pbft_adversary_spec,
        arrivals_spec,
    )
    + FAULT_SPEC_BUILDERS
    + SHARD_SPEC_BUILDERS
    + RECOVERY_SPEC_BUILDERS
    + SERVING_SPEC_BUILDERS
)
