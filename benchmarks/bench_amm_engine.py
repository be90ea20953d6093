"""Microbenchmarks of the AMM engine itself.

These measure the Python engine's real wall-clock throughput — the
quantity that bounds how large an experiment the epoch-level harness can
simulate, and a useful regression canary for the core math.

Each scenario is defined ONCE as a ``make_*_op`` factory returning a
zero-argument callable; the pytest-benchmark tests below and the
persistent harness (``run_benchmarks.py``, which writes ``BENCH_amm.json``)
both consume the same factories, so the two suites cannot drift apart.
Factories set ``op.scale`` when one call performs several logical
operations (conversions, transactions).
"""

from collections import deque

from repro.amm.fixed_point import encode_price_sqrt
from repro.amm.pool import Pool, PoolConfig
from repro.amm.quoter import quote_swap
from repro.amm import tick_math
from repro.core.executor import SidechainExecutor
from repro.core.transactions import BurnTx, CollectTx, MintTx, SwapTx

EXECUTOR_ROUND_TXS = 64
BLOCK_FILL_TXS = 100


def build_pool(num_positions=50):
    pool = Pool(PoolConfig(token0="A", token1="B", fee_pips=3000))
    pool.initialize(encode_price_sqrt(1, 1))
    for i in range(num_positions):
        width = 60 * (i + 1)
        pool.mint(f"lp{i}", -width, width, 10**18)
    return pool


# -- scenario factories --------------------------------------------------------


def make_swap_op(amount):
    """Alternating-direction swaps; small amounts stay in range, large
    amounts cross many initialized ticks."""
    pool = build_pool()
    state = {"direction": True}

    def op():
        state["direction"] = not state["direction"]
        return pool.swap(state["direction"], amount)

    return op


def make_swap_in_range_op():
    return make_swap_op(10**14)


def make_swap_crossing_ticks_op():
    return make_swap_op(5 * 10**17)


def make_quote_op():
    pool = build_pool()

    def op():
        return quote_swap(pool, True, 10**15)

    return op


def make_mint_burn_cycle_op():
    pool = build_pool(num_positions=5)

    def op():
        pool.mint("cycler", -600, 600, 10**15)
        pool.burn("cycler", -600, 600, 10**15)
        pool.collect("cycler", -600, 600, 10**30, 10**30)

    return op


def make_tick_math_roundtrip_op():
    ticks = list(range(-5000, 5000, 500))

    def op():
        total = 0
        for tick in ticks:
            ratio = tick_math.get_sqrt_ratio_at_tick(tick)
            total += tick_math.get_tick_at_sqrt_ratio(ratio)
        return total

    op.scale = len(ticks)
    return op


def make_sqrt_ratio_at_tick_op():
    ticks = list(range(-887200, 887200, 7919))

    def op():
        total = 0
        for tick in ticks:
            total += tick_math.get_sqrt_ratio_at_tick(tick)
        return total

    op.scale = len(ticks)
    return op


def make_executor_round_op():
    """End-to-end round processing: deposit-checked swaps via the executor.

    Exercises the fused quote/execute path — each accepted transaction
    must walk the ticks exactly once.
    """
    pool = build_pool()
    executor = SidechainExecutor(pool)
    executor.begin_epoch(
        {f"user{i}": [10**24, 10**24] for i in range(EXECUTOR_ROUND_TXS)}
    )
    state = {"round": 0}

    def op():
        state["round"] += 1
        txs = [
            SwapTx(
                user=f"user{i}",
                zero_for_one=(i % 2 == 0),
                exact_input=True,
                amount=10**15 + i,
                amount_limit=0,
            )
            for i in range(EXECUTOR_ROUND_TXS)
        ]
        accepted = executor.process_round(txs, current_round=state["round"])
        if len(accepted) != EXECUTOR_ROUND_TXS:
            rejected = [tx.reject_reason for tx in txs if tx.reject_reason]
            raise RuntimeError(f"executor round rejected txs: {rejected[:3]}")
        return accepted

    op.scale = EXECUTOR_ROUND_TXS
    return op


def make_block_fill_op():
    """One meta-block packed by ``SidechainExecutor.fill_block``: the
    position path's micro number, beside ``executor_round`` for swaps.

    Each call queues one 20/40/20/20 swap/mint/burn/collect arrival
    (``bench/``'s ``epoch_positions`` mix: swap runs one long, every other
    transaction a position handler) behind a standing backlog of one and
    packs a block whose byte capacity is one arrival — so every block ends
    on the byte check with transactions left over, as a loaded
    deployment's do.  Half the mints open positions, the burns close as
    many, the rest top up: the book is the same size at every call.
    """
    groups = BLOCK_FILL_TXS // 5
    pool = build_pool()
    executor = SidechainExecutor(pool)
    users = [f"user{i}" for i in range(20)]
    executor.begin_epoch({user: [10**24, 10**24] for user in users})
    #: (owner, position id), oldest first.  Burns close the oldest while
    #: top-ups and collects touch the newest, so no transaction names a
    #: position that one queued ahead of it has closed.
    open_positions = deque()
    state = {"round": 0, "serial": 0}

    def mint(user, position_id=None):
        # The 50 ranges build_pool opened: the tick table never grows.
        state["serial"] += 1
        width = 60 * (1 + state["serial"] % 50)
        return MintTx(
            user=user,
            tick_lower=-width,
            tick_upper=width,
            amount0_desired=10**15,
            amount1_desired=10**15,
            position_id=position_id,
        )

    def arrival():
        txs = []
        for i in range(groups):
            user = users[i % len(users)]
            owner, newest = open_positions[-1 - i]
            closer, oldest = open_positions.popleft()
            txs += [
                SwapTx(user=user, zero_for_one=(i % 2 == 0), amount=10**15 + i),
                mint(user),
                CollectTx(user=owner, position_id=newest),
                mint(owner, position_id=newest),
                BurnTx(user=closer, position_id=oldest),
            ]
        return txs

    for i in range(4 * groups):
        seed = mint(users[i % len(users)])
        if not executor.process(seed):
            raise RuntimeError(f"block_fill seed mint rejected: {seed.reject_reason}")
        open_positions.append((seed.user, seed.effects["position_id"]))
    queue = deque(arrival())
    capacity = sum(tx.size_bytes for tx in queue)

    def op():
        state["round"] += 1
        queue.extend(arrival())
        accepted, rejected = executor.fill_block(queue, capacity, state["round"])
        if rejected or len(accepted) != BLOCK_FILL_TXS:
            raise RuntimeError(
                f"block_fill packed {len(accepted)} of {BLOCK_FILL_TXS} "
                f"with {rejected} rejected"
            )
        for tx in accepted:
            if type(tx) is MintTx and tx.position_id is None:
                open_positions.append((tx.user, tx.effects["position_id"]))
        return accepted

    op.scale = BLOCK_FILL_TXS
    return op


PBFT_ROUND_MEMBERS = 8  # 3f + 2 with f = 2, the fault-scenario committee


def make_pbft_round_op():
    """One full message-level PBFT round with the fault machinery armed.

    Runs an honest 8-member agreement (pre-prepare, prepare, commit, all
    votes Schnorr-verified) with a :class:`~repro.faults.FaultDriver`
    installed whose plan never fires — so the number tracks the fault
    path's overhead on the happy path, not just the bare engine.
    """
    from repro import constants
    from repro.crypto.keys import generate_keypair
    from repro.faults import Crash, FaultDriver, FaultPlan
    from repro.sidechain.pbft import PbftConfig, PbftRound
    from repro.simulation.events import EventScheduler
    from repro.simulation.network import Network
    from repro.simulation.rng import DeterministicRng

    members = [f"m{i}" for i in range(PBFT_ROUND_MEMBERS)]
    keypairs = {m: generate_keypair(m) for m in members}
    config = PbftConfig(
        members=members,
        quorum=constants.committee_quorum(PBFT_ROUND_MEMBERS),
        view_timeout=3.0,
    )
    # An inert plan (its one event sits far beyond the horizon): every
    # send and delivery still pays the fault checks.
    plan = FaultPlan((Crash(start=1e9, node=members[0]),))
    state = {"seed": 0}

    def op():
        state["seed"] += 1
        scheduler = EventScheduler()
        network = Network(scheduler, DeterministicRng(state["seed"]))
        driver = FaultDriver(plan, rng=DeterministicRng(f'{state["seed"]}/f'))
        network.install_faults(driver)
        pbft = PbftRound(
            config,
            network,
            scheduler,
            keypairs,
            proposer_fn=lambda view: {"meta-block": view},
            validator=lambda proposal: isinstance(proposal, dict),
            faults=driver,
        )
        outcome = pbft.run_to_completion()
        scheduler.run(max_events=10_000)
        if not outcome.decided or outcome.view != 0:
            raise RuntimeError(
                f"happy-path round went wrong: decided={outcome.decided} "
                f"view={outcome.view}"
            )
        return outcome

    return op


COMMITTEE_EPOCH_MEMBERS = 500  # the paper's committee, drawn from
COMMITTEE_EPOCH_MINERS = 1_000  # AmmBoostConfig's default miner population


def make_committee_epoch_op():
    """The committee crypto of one paper-scale epoch, and nothing else.

    Sortition of 500 members out of 1 000 miners, the DKG fast path for
    the 334-of-500 key, and the two threshold signatures every epoch
    makes (hand-over certificate + sync) — what ``system_epoch`` and
    ``pbft_round`` cannot show with their 8-member committees.  Ops/sec
    is epochs of committee work per second.
    """
    from repro import constants
    from repro.core.sync import KeyHandover, TsqcAuthenticator
    from repro.crypto.bls import bls_verify
    from repro.crypto.dkg import simulate_dkg
    from repro.crypto.hashing import keccak256
    from repro.crypto.vrf import vrf_keygen
    from repro.sidechain.election import elect_committee
    from repro.simulation.rng import DeterministicRng

    miners = {f"miner{i}": vrf_keygen(i) for i in range(COMMITTEE_EPOCH_MINERS)}
    stakes = {name: 1.0 for name in miners}
    threshold = constants.committee_quorum(COMMITTEE_EPOCH_MEMBERS)
    rng = DeterministicRng("committee-epoch")
    state = {"epoch": 0}

    def op():
        state["epoch"] += 1
        epoch = state["epoch"]
        committee = elect_committee(
            miners,
            stakes,
            epoch,
            keccak256(b"epoch-seed", epoch),
            COMMITTEE_EPOCH_MEMBERS,
        )
        dkg = simulate_dkg(COMMITTEE_EPOCH_MEMBERS, threshold, rng.child(f"dkg{epoch}"))
        auth = TsqcAuthenticator(
            threshold=threshold,
            group_vk=dkg.group_vk,
            shares=dict(zip(committee.members, dkg.shares)),
        )
        signers = committee.members[:threshold]
        cert = auth.certify_handover(epoch + 1, dkg.group_vk, signers)
        signature = auth.threshold_sign(signers, b"sync", epoch)
        if not (
            bls_verify(dkg.group_vk, cert.signature, *KeyHandover.message(epoch + 1, cert.vkc))
            and bls_verify(dkg.group_vk, signature, b"sync", epoch)
        ):
            raise RuntimeError(f"epoch {epoch}: committee signature does not verify")
        return signature

    return op


SYSTEM_EPOCH_VOLUME = 500_000
SYSTEM_EPOCH_ROUNDS = 6


def make_system_epoch_op():
    """One full epoch of :class:`AmmBoostSystem` — the system-level bound.

    Drives the whole stack (election + DKG, traffic generation, meta-block
    mining, summary + TSQC sync, mainchain confirmation, pruning) for one
    epoch per call; successive calls run successive epochs of the same
    deployment.  ``op.scale`` is the nominal transaction count per epoch so
    the reported ops/sec is sidechain transactions per wall-clock second.
    """
    from repro.core.system import AmmBoostConfig, AmmBoostSystem
    from repro.workload.generator import arrival_rate_per_round

    config = AmmBoostConfig(
        committee_size=8,
        miner_population=16,
        num_users=20,
        daily_volume=SYSTEM_EPOCH_VOLUME,
        rounds_per_epoch=SYSTEM_EPOCH_ROUNDS,
        seed=11,
    )
    system = AmmBoostSystem(config)
    system.setup()
    system._traffic_start = system.clock.now
    state = {"epoch": 0}

    def op():
        system._run_epoch(state["epoch"], inject=True)
        state["epoch"] += 1

    rho = arrival_rate_per_round(SYSTEM_EPOCH_VOLUME, config.round_duration)
    op.scale = rho * (SYSTEM_EPOCH_ROUNDS - 1)
    return op


SHARDED_EPOCH_SHARDS = 4


def make_sharded_config(num_shards, jobs=1):
    """The sharded deployment both halves of the scaling story measure.

    One definition, consumed by ``make_sharded_epoch_op`` (wall-clock)
    and by ``run_benchmarks.measure_shard_scaling`` (simulated), so the
    published speedup ratios always compare the same deployment.
    """
    from repro.core.system import AmmBoostConfig
    from repro.sharding import ShardedConfig

    base = AmmBoostConfig(
        committee_size=8,
        miner_population=16,
        num_users=20,
        daily_volume=SYSTEM_EPOCH_VOLUME * num_shards,
        rounds_per_epoch=SYSTEM_EPOCH_ROUNDS,
        seed=11,
    )
    return ShardedConfig(
        num_shards=num_shards,
        num_pools=2 * num_shards,
        base=base,
        cross_shard_ratio=0.05,
        jobs=jobs,
    )


def make_sharded_epoch_op(num_shards=SHARDED_EPOCH_SHARDS, jobs=None):
    """One lock-step epoch of a ``num_shards``-shard deployment.

    Every shard runs the full system_epoch workload (election + DKG,
    traffic, meta-blocks, summary + TSQC sync, confirmation) under its
    own committee; the coordinator settles cross-shard escrows between
    epochs.  ``op.scale`` is the aggregate nominal transaction count, so
    ops/sec is aggregate sidechain transactions per wall-clock second —
    with ``jobs`` worker processes (default: one per shard, capped at
    the machine's cores) shard epochs run concurrently, which is where
    the wall-clock scaling over ``system_epoch`` comes from on a
    multi-core runner.
    """
    import os

    from repro.sharding import ShardedSystem
    from repro.workload.generator import arrival_rate_per_round

    if jobs is None:
        jobs = min(num_shards, os.cpu_count() or 1)
    system = ShardedSystem(make_sharded_config(num_shards, jobs=jobs))
    scheduler = system.scheduler  # build + set up shards outside the timing
    state = {"epoch": 0}

    def op():
        epoch = state["epoch"]
        instructions = system.registry.instructions_for(frozenset())
        records = scheduler.run_epoch(epoch, True, instructions)
        system.registry.add_prepares(
            prepare
            for index in sorted(records)
            for prepare in records[index].prepares
        )
        state["epoch"] = epoch + 1

    rho = arrival_rate_per_round(
        SYSTEM_EPOCH_VOLUME, system.config.base.round_duration
    )
    op.scale = num_shards * rho * (SYSTEM_EPOCH_ROUNDS - 1)
    #: Harness hook: tears down the forked scheduler workers (and their
    #: in-memory shard systems) once the scenario's measurement is done.
    op.cleanup = scheduler.close
    return op


def make_migration_epoch_op(num_shards=2, jobs=1):
    """One lock-step epoch with a live pool handoff always in flight.

    Same deployment shape as ``sharded_epoch`` but driven through the
    coordinator's recovery-aware boundary path (bridge journal, migration
    engine, conservation check), under a rebalance policy that ping-pongs
    one pool between two shards at every boundary — so every measured
    epoch carries two-boundary handoff work: a begin directive to the
    source, a manifest sealed into the epoch record, and a completion
    plus assignment fan-out at the next boundary.  In-window cross-shard
    legs abort retryably and are refunded, and conservation is re-checked
    every epoch (the op raises on the first violation).  Serial scheduler
    (``jobs=1``) so the number does not depend on the host's core count.

    ``op.scale`` is the deployment's *nominal* transaction count, but a
    pool's volume slice is dormant while its handoff is in the window
    (the source shed it, the destination has not activated it yet), so
    each epoch processes fewer transactions than ``sharded_epoch``'s and
    the reported ops/sec is NOT comparable across the two scenarios —
    it is a self-consistent trajectory of the migration path's cost,
    tracked PR-over-PR against its own baseline.
    """
    import dataclasses

    from repro.recovery.migration import RebalancePolicy
    from repro.sharding import ShardedSystem
    from repro.workload.generator import arrival_rate_per_round

    class PingPongPool(RebalancePolicy):
        cooldown_epochs = 0
        max_moves = None

        def decide(self, epoch, queue_depths, assignment):
            if epoch < 1:
                return ()  # boundary 0 predates the first epoch's records
            return (("pool-0", (assignment["pool-0"] + 1) % num_shards),)

    config = dataclasses.replace(
        make_sharded_config(num_shards, jobs=jobs), rebalance=PingPongPool()
    )
    system = ShardedSystem(config)
    scheduler = system.scheduler  # build + set up shards outside the timing
    state = {"epoch": 0, "baseline": None}
    nobody = frozenset()

    def op():
        epoch = state["epoch"]
        instructions = system._boundary_instructions(epoch, nobody, nobody)
        records = scheduler.run_epoch(epoch, True, instructions)
        system.epoch_records.append(records)
        system._fold_records(records)
        state["baseline"] = system._check_conservation(
            records, state["baseline"], epoch
        )
        state["epoch"] = epoch + 1

    rho = arrival_rate_per_round(
        SYSTEM_EPOCH_VOLUME, system.config.base.round_duration
    )
    op.scale = num_shards * rho * (SYSTEM_EPOCH_ROUNDS - 1)
    op.cleanup = scheduler.close
    return op


# -- pytest-benchmark wrappers -------------------------------------------------


def test_bench_swap_in_range(benchmark):
    result = benchmark(make_swap_in_range_op())
    assert result.amount0 != 0 or result.amount1 != 0


def test_bench_swap_crossing_ticks(benchmark):
    result = benchmark(make_swap_crossing_ticks_op())
    assert result.fee_paid > 0


def test_bench_quote(benchmark):
    quote = benchmark(make_quote_op())
    assert quote.amount0 > 0


def test_bench_mint_burn_cycle(benchmark):
    benchmark(make_mint_burn_cycle_op())


def test_bench_executor_round(benchmark):
    accepted = benchmark(make_executor_round_op())
    assert len(accepted) == EXECUTOR_ROUND_TXS


def test_bench_block_fill(benchmark):
    accepted = benchmark(make_block_fill_op())
    assert {type(tx) for tx in accepted} == {SwapTx, MintTx, BurnTx, CollectTx}


def test_bench_system_epoch(benchmark):
    benchmark(make_system_epoch_op())


def test_bench_pbft_round(benchmark):
    outcome = benchmark(make_pbft_round_op())
    assert outcome.decided


def test_bench_committee_epoch(benchmark):
    benchmark(make_committee_epoch_op())


def test_bench_sharded_epoch(benchmark):
    # Serial scheduler: pytest-benchmark numbers should not depend on
    # the host's core count.
    benchmark(make_sharded_epoch_op(num_shards=2, jobs=1))


def test_bench_migration_epoch(benchmark):
    # Serial scheduler again; every measured epoch carries a live pool
    # handoff (see the factory docstring), so this tracks the recovery
    # path's cost next to test_bench_sharded_epoch's happy path.
    benchmark(make_migration_epoch_op())


def test_bench_tick_math_roundtrip(benchmark):
    benchmark(make_tick_math_roundtrip_op())


def test_bench_sqrt_ratio_at_tick(benchmark):
    benchmark(make_sqrt_ratio_at_tick_op())
