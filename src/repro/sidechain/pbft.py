"""Message-level leader-based PBFT for the sidechain committee.

Implements the agreement pattern of Section III / Appendix A: the view's
leader proposes (pre-prepare), members validate and vote (prepare), a
quorum of ``2f + 2`` prepares triggers commit votes, and a quorum of
commits decides.  A leader that proposes an invalid block, or stays
silent past the timeout, is replaced by view change (Section IV-C,
handling interruptions).

Every message is BLS-signed with the member's vote key (derived
deterministically from its registered identity key), so the decided block
is backed by a verifiable quorum certificate.  Vote verification is
*deferred and aggregated*: instead of two pairings per vote on receipt, a
phase's votes are checked the moment a quorum forms with one aggregate
pairing check ``e(Σ sigma_i, g2) == e(H(m), Σ vk_i)``.  Only when that
batched check fails does the per-vote fallback run, which pinpoints the
corrupt signer(s), drops their votes and records the attribution in
``vote_faults`` — fault-injected signature corruption is still blamed on
the right node.  Verification is instantaneous on the simulated clock, so
deferral is unobservable in protocol time: a quorum still acts at the
arrival of its q-th valid vote.

Fault injection: pass a :class:`~repro.faults.driver.FaultDriver` as
``faults`` (and install the same driver on the network).  A crashed
member proposes nothing, votes nothing and processes nothing while down;
at recovery it re-arms its view timeout and rejoins the protocol
mid-flight — while agreement is still in progress.  A node that was down
when the commit quorum flew cannot decide retroactively (commits are not
retransmitted), exactly like a real replica that missed the round.
Member corruptions declared in the plan merge under any explicitly
passed ``behaviors``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable

from repro.crypto.bls import (
    BlsKeyPair,
    bls_aggregate_verify_hashed,
    bls_keygen,
    bls_sign_hashed,
    bls_verify_hashed,
)
from repro.crypto.groups import G1Element, PairingGroup
from repro.crypto.hashing import keccak256
from repro.crypto.keys import KeyPair
from repro.errors import ConsensusError
from repro.sidechain.messages import PbftMessage, PbftPhase
from repro.simulation.events import EventScheduler
from repro.simulation.network import Network
from repro.telemetry import trace


@lru_cache(maxsize=4096)
def _vote_keypair(member: str, identity_sk: int) -> BlsKeyPair:
    """The member's long-term BLS vote key, derived from its identity key.

    In a deployment each member registers the vote vk alongside its
    identity key; deriving both from the same secret models that binding
    (and doubles as the proof of possession the aggregate check assumes).
    Cached process-wide: one consensus instance is created per slot, but
    committees persist across many slots.
    """
    return bls_keygen(("pbft-vote", member, identity_sk))


#: Per-phase domain-separation tag for vote messages.
_PHASE_TAG = {
    PbftPhase.PRE_PREPARE: b"pre-prepare",
    PbftPhase.PREPARE: b"prepare",
    PbftPhase.COMMIT: b"commit",
    PbftPhase.VIEW_CHANGE: b"view-change",
}


@dataclass
class PbftConfig:
    """Parameters for one consensus instance."""

    members: list[str]
    quorum: int
    view_timeout: float = 3.0
    max_views: int = 8

    def __post_init__(self) -> None:
        if self.quorum > len(self.members):
            raise ConsensusError(
                f"quorum {self.quorum} exceeds committee size {len(self.members)}"
            )

    def leader(self, view: int) -> str:
        return self.members[view % len(self.members)]


@dataclass
class ConsensusOutcome:
    """Result of a PBFT instance."""

    decided: bool
    proposal: Any = None
    view: int = 0
    decided_at: float = 0.0
    deciders: set[str] = field(default_factory=set)
    view_changes: int = 0


@dataclass
class _NodeState:
    """Per-node bookkeeping inside one consensus instance."""

    view: int = 0
    prepares: dict[tuple[int, bytes], set[str]] = field(default_factory=dict)
    commits: dict[tuple[int, bytes], set[str]] = field(default_factory=dict)
    view_change_votes: dict[int, set[str]] = field(default_factory=dict)
    proposal_by_view: dict[int, Any] = field(default_factory=dict)
    sent_prepare: set[int] = field(default_factory=set)
    sent_commit: set[int] = field(default_factory=set)
    sent_view_change: set[int] = field(default_factory=set)
    decided: bool = False
    #: What this node committed — (view, digest, proposal); the safety
    #: invariant is that no two nodes' triples carry different digests.
    decided_view: int = -1
    decided_digest: bytes = b""
    decided_proposal: Any = None


class PbftRound:
    """One slot of agreement (a meta-block, a summary-block, or a sync).

    ``proposer_fn(view)`` supplies the proposal the view's leader would
    offer (return None for a silent leader).  ``validator(proposal)``
    implements the block-validity predicate.  Byzantine behaviours are
    injected per node via ``behaviors`` — see
    :mod:`repro.sidechain.adversary`.
    """

    def __init__(
        self,
        config: PbftConfig,
        network: Network,
        scheduler: EventScheduler,
        keypairs: dict[str, KeyPair],
        proposer_fn: Callable[[int], Any],
        validator: Callable[[Any], bool],
        behaviors: dict[str, "NodeBehavior"] | None = None,
        endpoint_prefix: str = "pbft",
        faults=None,
    ) -> None:
        self.config = config
        self.network = network
        self.scheduler = scheduler
        self.keypairs = keypairs
        self.proposer_fn = proposer_fn
        self.validator = validator
        self.faults = faults if faults is not None and not faults.plan.is_empty() else None
        # Plan-declared corruptions apply first; explicit behaviors win.
        self.behaviors = dict(self.faults.behaviors) if self.faults else {}
        self.behaviors.update(behaviors or {})
        self.prefix = endpoint_prefix
        self.states: dict[str, _NodeState] = {m: _NodeState() for m in config.members}
        self.outcome = ConsensusOutcome(decided=False)
        self._timeout_events: dict[str, Any] = {}
        self._closed = False
        #: Trace bookkeeping: virtual start time and whether the round's
        #: span has been emitted (decide and close must not double-emit).
        self._trace_started_at = 0.0
        self._trace_emitted = False
        #: (sender, view, digest, sig point) -> bool memo for pre-prepares,
        #: which are still verified eagerly (they gate proposal handling).
        self._verified: dict[tuple, bool] = {}
        self._vc_messages: dict[tuple[str, int], PbftMessage] = {}
        #: Each member's BLS vote keypair (public vks + simulated sks).
        self._vote_keys: dict[str, BlsKeyPair] = {
            m: _vote_keypair(m, kp.sk) for m, kp in keypairs.items()
        }
        #: (phase, view, digest, sender) -> received vote signature; votes
        #: are stashed unverified and resolved in bulk at quorum time.
        self._vote_sigs: dict[tuple, Any] = {}
        #: (phase, view, digest, sender) -> verification verdict, shared by
        #: every receiving node (a broadcast delivers one signed message).
        self._vote_valid: dict[tuple, bool] = {}
        #: signed message parts -> their G1 point: every voter and verifier
        #: of one (tag, view, digest) shares a single hash-to-curve.
        self._message_points: dict[tuple, G1Element] = {}
        #: (sender, phase value, view) triples for every vote whose
        #: signature failed the fallback check — the attribution record
        #: fault-engine corruption events are matched against.
        self.vote_faults: list[tuple[str, str, int]] = []
        for member in config.members:
            self.network.register(
                self._endpoint(member),
                lambda msg, m=member: self._on_message(m, msg),
            )

    # -- public API -------------------------------------------------------------

    def start(self) -> None:
        """Kick off view 0: the leader proposes, everyone arms a timeout."""
        self._trace_started_at = self.scheduler.clock.now
        if self.faults is not None:
            for time, node in self.faults.recoveries():
                if node in self.states:
                    self.scheduler.schedule_at(
                        max(time, self.scheduler.clock.now),
                        lambda n=node: self._on_recover(n),
                        label=f"pbft:recover:{node}",
                    )
        for member in self.config.members:
            self._arm_timeout(member, view=0)
        self._leader_propose(view=0)

    def run_to_completion(self, max_time: float = 120.0) -> ConsensusOutcome:
        """Convenience driver: run until every node settled (or timeout).

        Keeps delivering messages after the first decision so in-flight
        commit votes reach the remaining nodes — all honest members must
        decide, not just the fastest one.
        """
        self.start()
        while self.scheduler.clock.now < max_time:
            if self.outcome.decided and all(s.decided for s in self.states.values()):
                break
            if not self.scheduler.step():
                break
        self.close()
        return self.outcome

    def close(self) -> None:
        """Unregister endpoints so another instance can reuse the network."""
        if trace.enabled() and not self._trace_emitted:
            # The round ran but never decided: emit the span at close so
            # stalled instances are still visible in the trace.
            self._trace_emitted = True
            trace.complete(
                "pbft.round",
                self._trace_started_at,
                self.scheduler.clock.now,
                decided=False,
                view=max(s.view for s in self.states.values()),
                endpoint=self.prefix,
            )
        self._closed = True
        for member in self.config.members:
            self.network.unregister(self._endpoint(member))

    def decisions(self) -> dict[str, tuple[int, bytes, Any]]:
        """Each decided member's ``(view, digest, proposal)`` commit.

        The safety invariant of the property suite: all digests agree.
        """
        return {
            member: (state.decided_view, state.decided_digest,
                     state.decided_proposal)
            for member, state in self.states.items()
            if state.decided
        }

    # -- leader side -----------------------------------------------------------------

    def _leader_propose(self, view: int) -> None:
        leader = self.config.leader(view)
        if self._down(leader):
            return  # crashed leader: timeouts will trigger view change
        behavior = self.behaviors.get(leader)
        if behavior is not None and behavior.silent_as_leader:
            return  # unresponsive leader: timeouts will trigger view change
        proposal = self.proposer_fn(view)
        if behavior is not None and behavior.propose_invalid:
            proposal = behavior.corrupt(proposal)
        if proposal is None:
            return
        digest = self._digest(proposal)
        msg = PbftMessage(
            phase=PbftPhase.PRE_PREPARE,
            view=view,
            sender=leader,
            digest=digest,
            proposal=proposal,
            signature=bls_sign_hashed(
                self._vote_keys[leader].sk,
                self._message_point(b"pre-prepare", view, digest),
            ),
        )
        self._broadcast(leader, msg)
        # The leader treats its own proposal as received.
        self._handle_pre_prepare(leader, msg)

    # -- message handling ----------------------------------------------------------------

    def _on_message(self, member: str, raw) -> None:
        if self._down(member):
            return  # belt and braces: the network already drops these
        msg: PbftMessage = raw.payload
        if msg.phase is PbftPhase.PRE_PREPARE:
            if not self._verify_pre_prepare(msg):
                return
            self._handle_pre_prepare(member, msg)
            return
        # Vote phases: stash the signature and defer verification to the
        # moment a quorum forms (see _count_valid).  A vote already
        # refuted by the fallback is dropped on receipt, exactly as the
        # old verify-on-receipt path would have.
        if msg.signature is None or msg.sender not in self._vote_keys:
            return
        key = (msg.phase, msg.view, msg.digest, msg.sender)
        verdict = self._vote_valid.get(key)
        if verdict is False:
            return
        if verdict is None and key not in self._vote_sigs:
            self._vote_sigs[key] = msg.signature
        if msg.phase is PbftPhase.PREPARE:
            self._handle_prepare(member, msg)
        elif msg.phase is PbftPhase.COMMIT:
            self._handle_commit(member, msg)
        elif msg.phase is PbftPhase.VIEW_CHANGE:
            self._handle_view_change(member, msg)

    def _handle_pre_prepare(self, member: str, msg: PbftMessage) -> None:
        state = self.states[member]
        if state.decided or msg.view < state.view:
            return
        if msg.sender != self.config.leader(msg.view):
            return  # not from the rightful leader
        state.proposal_by_view[msg.view] = msg.proposal
        if not self.validator(msg.proposal):
            # Invalid proposal: vote to change the leader immediately.
            self._send_view_change(member, msg.view + 1)
            return
        if msg.view in state.sent_prepare:
            return
        state.sent_prepare.add(msg.view)
        behavior = self.behaviors.get(member)
        if behavior is not None and behavior.withhold_votes:
            return
        vote = PbftMessage(
            phase=PbftPhase.PREPARE,
            view=msg.view,
            sender=member,
            digest=msg.digest,
            signature=self._vote_sign(member, PbftPhase.PREPARE, msg.view, msg.digest),
        )
        self._broadcast(member, vote)
        self._record_prepare(member, vote)

    def _handle_prepare(self, member: str, msg: PbftMessage) -> None:
        self._record_prepare(member, msg)

    def _record_prepare(self, member: str, msg: PbftMessage) -> None:
        state = self.states[member]
        if state.decided:
            return
        key = (msg.view, msg.digest)
        voters = state.prepares.setdefault(key, set())
        voters.add(msg.sender)
        quorum = self._count_valid(
            member, PbftPhase.PREPARE, msg.view, msg.digest, voters
        )
        if quorum >= self.config.quorum and msg.view not in state.sent_commit:
            state.sent_commit.add(msg.view)
            behavior = self.behaviors.get(member)
            if behavior is not None and behavior.withhold_votes:
                return
            commit = PbftMessage(
                phase=PbftPhase.COMMIT,
                view=msg.view,
                sender=member,
                digest=msg.digest,
                signature=self._vote_sign(
                    member, PbftPhase.COMMIT, msg.view, msg.digest
                ),
            )
            self._broadcast(member, commit)
            self._record_commit(member, commit)

    def _handle_commit(self, member: str, msg: PbftMessage) -> None:
        self._record_commit(member, msg)

    def _record_commit(self, member: str, msg: PbftMessage) -> None:
        state = self.states[member]
        if state.decided:
            return
        key = (msg.view, msg.digest)
        voters = state.commits.setdefault(key, set())
        voters.add(msg.sender)
        quorum = self._count_valid(
            member, PbftPhase.COMMIT, msg.view, msg.digest, voters
        )
        if quorum >= self.config.quorum:
            state.decided = True
            self._cancel_timeout(member)
            proposal = state.proposal_by_view.get(msg.view)
            state.decided_view = msg.view
            state.decided_digest = msg.digest
            state.decided_proposal = proposal
            if not self.outcome.decided:
                self.outcome.decided = True
                self.outcome.proposal = proposal
                self.outcome.view = msg.view
                self.outcome.decided_at = self.scheduler.clock.now
                self.outcome.view_changes = msg.view
                if trace.enabled() and not self._trace_emitted:
                    self._trace_emitted = True
                    trace.complete(
                        "pbft.round",
                        self._trace_started_at,
                        self.outcome.decided_at,
                        decided=True,
                        view=msg.view,
                        endpoint=self.prefix,
                    )
            self.outcome.deciders.add(member)

    # -- view change ---------------------------------------------------------------------

    def _handle_view_change(self, member: str, msg: PbftMessage) -> None:
        state = self.states[member]
        if state.decided or msg.view <= state.view:
            return
        voters = state.view_change_votes.setdefault(msg.view, set())
        voters.add(msg.sender)
        # Echo once: seeing f+1 view-change votes means at least one honest
        # node timed out, so join the view change.
        quorum = self._count_valid(
            member, PbftPhase.VIEW_CHANGE, msg.view, b"", voters
        )
        if quorum >= self.config.quorum:
            self._enter_view(member, msg.view)

    def _send_view_change(self, member: str, new_view: int) -> None:
        state = self.states[member]
        if state.decided:
            return
        if new_view in state.sent_view_change:
            if self.faults is not None:
                # Fault mode models the transport's retry layer: votes
                # lost to a partition or crash are re-broadcast, so a
                # healed network regains liveness.  Signing is
                # deterministic — the retransmission is byte-identical.
                self._broadcast(member, self._view_change_msg(member, new_view))
            return
        state.sent_view_change.add(new_view)
        self._broadcast(member, self._view_change_msg(member, new_view))
        voters = state.view_change_votes.setdefault(new_view, set())
        voters.add(member)
        quorum = self._count_valid(
            member, PbftPhase.VIEW_CHANGE, new_view, b"", voters
        )
        if quorum >= self.config.quorum:
            self._enter_view(member, new_view)

    def _view_change_msg(self, member: str, new_view: int) -> PbftMessage:
        # Signing is deterministic, so the vote is built (and signed) once;
        # retransmissions reuse it verbatim.
        msg = self._vc_messages.get((member, new_view))
        if msg is None:
            msg = PbftMessage(
                phase=PbftPhase.VIEW_CHANGE,
                view=new_view,
                sender=member,
                digest=b"",
                signature=self._vote_sign(
                    member, PbftPhase.VIEW_CHANGE, new_view, b""
                ),
            )
            self._vc_messages[(member, new_view)] = msg
        return msg

    def _enter_view(self, member: str, view: int) -> None:
        state = self.states[member]
        if view <= state.view:
            return
        if view > self.config.max_views:
            return
        state.view = view
        trace.instant(
            "pbft.view_change",
            self.scheduler.clock.now,
            member=member,
            view=view,
            endpoint=self.prefix,
        )
        self._arm_timeout(member, view)
        if member == self.config.leader(view):
            # New leader re-proposes for the new view.
            self.scheduler.schedule_after(
                0.0, lambda: self._leader_propose(view), label="pbft:re-propose"
            )

    # -- timeouts --------------------------------------------------------------------------

    def _arm_timeout(self, member: str, view: int) -> None:
        self._cancel_timeout(member)
        event = self.scheduler.schedule_after(
            self.config.view_timeout,
            lambda: self._on_timeout(member, view),
            label=f"pbft:timeout:{member}",
        )
        self._timeout_events[member] = event

    def _cancel_timeout(self, member: str) -> None:
        event = self._timeout_events.pop(member, None)
        if event is not None:
            event.cancel()

    def _on_timeout(self, member: str, view: int) -> None:
        state = self.states[member]
        if state.decided or state.view != view:
            return
        if self._down(member):
            return  # a crashed node's timer does not vote
        behavior = self.behaviors.get(member)
        if behavior is not None and behavior.withhold_votes:
            return
        self._send_view_change(member, view + 1)
        if (
            self.faults is not None
            and not self._closed
            and not state.decided
            and state.view == view
            and not self.outcome.decided
        ):
            # Fault mode: a node still stuck in the same view keeps its
            # timer running and retries, so votes lost to partitions or
            # crashes are eventually re-broadcast (see _send_view_change).
            # If the view-change vote above just advanced the view,
            # _enter_view already armed the new view's timer — leave it.
            # Once the instance has decided globally, retries stop too:
            # commits are not retransmitted, so a node that missed them
            # can never catch up and its retries would only keep the
            # event queue alive until max_time.
            self._arm_timeout(member, view)

    # -- fault injection -------------------------------------------------------

    def _down(self, member: str) -> bool:
        return self.faults is not None and self.faults.is_crashed(
            member, self.scheduler.clock.now
        )

    def _on_recover(self, member: str) -> None:
        """A crashed member comes back: re-arm its timeout and rejoin.

        The node kept its pre-crash state (in-memory protocol state
        survives a process restart from its log); everything it missed
        while down is gone — view changes are how it catches up.
        """
        if self._closed:
            return
        state = self.states[member]
        if state.decided:
            return
        self._arm_timeout(member, state.view)

    # -- plumbing -------------------------------------------------------------------------

    def _endpoint(self, member: str) -> str:
        return f"{self.prefix}:{member}"

    def _broadcast(self, sender: str, msg: PbftMessage) -> None:
        recipients = [self._endpoint(m) for m in self.config.members if m != sender]
        self.network.broadcast(
            self._endpoint(sender),
            recipients,
            kind=msg.phase.value,
            payload=msg,
            size_bytes=msg.size_bytes,
        )

    def _message_point(self, *message) -> G1Element:
        """``H(message)``, hashed to the curve once per round."""
        point = self._message_points.get(message)
        if point is None:
            point = self._message_points[message] = PairingGroup.hash_to_g1(*message)
        return point

    @staticmethod
    def _vote_message(phase: PbftPhase, view: int, digest: bytes) -> tuple:
        """The parts a vote signs (view changes are not bound to a digest)."""
        tag = _PHASE_TAG[phase]
        return (tag, view) if phase is PbftPhase.VIEW_CHANGE else (tag, view, digest)

    def _vote_sign(self, member: str, phase: PbftPhase, view: int, digest: bytes):
        """Sign a vote with the member's BLS vote key.

        A ``corrupt_votes`` byzantine member emits a deterministic garbage
        signature (a signature on a domain-separated wrong message) — it
        still *sends* votes, but no honest quorum check can count them.
        """
        behavior = self.behaviors.get(member)
        if behavior is not None and behavior.corrupt_votes:
            message = (b"corrupted-vote", _PHASE_TAG[phase], view, digest)
        else:
            message = self._vote_message(phase, view, digest)
        return bls_sign_hashed(
            self._vote_keys[member].sk, self._message_point(*message)
        )

    def _verify_pre_prepare(self, msg: PbftMessage) -> bool:
        vote_key = self._vote_keys.get(msg.sender)
        if vote_key is None or msg.signature is None:
            return False
        # A broadcast (or a fault-mode retransmission) delivers the same
        # signed message to every member; verify each distinct one once.
        key = (msg.sender, msg.view, msg.digest, msg.signature.point)
        cached = self._verified.get(key)
        if cached is None:
            cached = bls_verify_hashed(
                vote_key.vk,
                msg.signature,
                self._message_point(b"pre-prepare", msg.view, msg.digest),
            )
            self._verified[key] = cached
        return cached

    def _count_valid(
        self,
        member: str,
        phase: PbftPhase,
        view: int,
        digest: bytes,
        voters: set[str],
    ) -> int:
        """Valid-vote count for a quorum check, resolving signatures lazily.

        Below quorum size nothing is verified at all — the whole batch
        resolves with one aggregate pairing check the first time any node's
        tally could form a quorum (the result is shared by every node, so
        each (view, phase, digest) batch is verified once per round).  Only
        when the aggregate check fails does the per-vote fallback run; the
        culprits are logged in ``vote_faults`` and pruned from the tally.
        ``member``'s own vote is exempt — a node does not verify itself,
        matching the eager scheme where self-votes were recorded directly.
        """
        if len(voters) < self.config.quorum:
            return 0
        valid = self._vote_valid
        unknown = [
            v
            for v in voters
            if v != member and valid.get((phase, view, digest, v)) is None
        ]
        if unknown:
            self._resolve_votes(phase, view, digest, unknown)
            refuted = [
                v for v in unknown if not valid[(phase, view, digest, v)]
            ]
            for v in refuted:
                voters.discard(v)
        return len(voters)

    def _resolve_votes(
        self, phase: PbftPhase, view: int, digest: bytes, senders: list[str]
    ) -> None:
        """Verify a batch of stashed votes: one aggregate check, then fallback."""
        h = self._message_point(*self._vote_message(phase, view, digest))
        sigs = [self._vote_sigs[(phase, view, digest, v)] for v in senders]
        vks = [self._vote_keys[v].vk for v in senders]
        valid = self._vote_valid
        if bls_aggregate_verify_hashed(vks, sigs, h):
            for v in senders:
                valid[(phase, view, digest, v)] = True
            return
        for v, vk, sig in zip(senders, vks, sigs):
            ok = bls_verify_hashed(vk, sig, h)
            valid[(phase, view, digest, v)] = ok
            if not ok:
                self.vote_faults.append((v, phase.value, view))

    @staticmethod
    def _digest(proposal: Any) -> bytes:
        return keccak256(repr(proposal))


class NodeBehavior:
    """Byzantine behaviour switches for a committee member.

    ``silent_as_leader`` — never propose when holding the leader slot.
    ``propose_invalid`` — corrupt the proposal before pre-preparing it.
    ``withhold_votes`` — receive but never vote (crash-like).
    ``corrupt_votes`` — vote with invalid signatures: the votes travel the
    network but fail verification, which exercises the aggregate-verify
    fallback and its per-node attribution.
    """

    def __init__(
        self,
        silent_as_leader: bool = False,
        propose_invalid: bool = False,
        withhold_votes: bool = False,
        corrupt_votes: bool = False,
    ) -> None:
        self.silent_as_leader = silent_as_leader
        self.propose_invalid = propose_invalid
        self.withhold_votes = withhold_votes
        self.corrupt_votes = corrupt_votes

    @staticmethod
    def corrupt(proposal: Any) -> Any:
        """Produce an invalid variant of the proposal."""
        return ("INVALID", proposal)
