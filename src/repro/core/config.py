"""Penelope configuration."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.managers.base import ManagerConfig


@dataclass(frozen=True)
class PenelopeConfig(ManagerConfig):
    """Parameters of the Penelope protocol (§3).

    Beyond the shared decider parameters (period ``T``, margin ``ε``,
    response timeout, overhead), Penelope adds the power-pool rate limit of
    Algorithm 2: non-urgent transactions receive ``rate * Pool`` watts,
    clamped to ``[lower_limit_w, upper_limit_w]`` -- "Our system sets
    UPPER_LIMIT to 30 watts and LOWER_LIMIT to 1 watt" with a 10 % rate.

    ``pool_service_time_s`` is the compute cost of one pool transaction;
    pools do a single cache update, far cheaper than SLURM's server-side
    bookkeeping, and the load is spread over all nodes anyway.
    """

    rate: float = 0.10
    lower_limit_w: float = 1.0
    upper_limit_w: float = 30.0
    pool_service_time_s: Tuple[float, float] = (5e-6, 15e-6)
    pool_inbox_capacity: int = 128
    #: Ablation switches (DESIGN.md §5).
    enable_urgency: bool = True
    enable_rate_limit: bool = True
    #: Reliable-transfer layer.  With escrow on, every positive grant is
    #: held in the donor pool's escrow until the requester's ``GrantAck``
    #: arrives; an escrow unacked by its deadline refunds to the donor, so
    #: grants dropped in flight (loss, partitions, dead requesters) never
    #: destroy budget.
    enable_escrow: bool = True
    #: Escrow refund deadline; ``None`` derives a safe default covering a
    #: full request timeout plus the stale-grant absorption path (a grant
    #: arriving just past the requester's timeout is only acked at its
    #: next iteration tick).
    escrow_timeout_s: Optional[float] = None
    #: Extra ack transmissions (one per subsequent decider iteration) on
    #: top of the immediate ack.  0 keeps nominal traffic at exactly one
    #: ack per applied grant; chaos runs raise it so a lost ack does not
    #: leave the refunded-then-applied duplication unrepaired.
    grant_ack_retries: int = 0
    #: How many times a timed-out peer request is retried (with backoff)
    #: within one decider iteration before giving up until the next tick.
    request_retries: int = 1
    #: First retry backoff; doubles (``retry_backoff_factor``) per retry,
    #: stretched by up to ``retry_jitter`` (uniform, seeded from the
    #: decider's RNG stream) to avoid synchronized retry storms.
    retry_backoff_s: float = 0.1
    retry_backoff_factor: float = 2.0
    retry_jitter: float = 0.5
    #: How long an unresponsive peer stays suspected.  Suspicion biases
    #: uniform random discovery away from the peer (it is re-drawn, at
    #: most twice); entries expire after this long, so peers behind a
    #: healed partition return to the candidate set.
    suspicion_ttl_s: float = 5.0
    #: SWIM-style gossip membership (src/repro/membership/).  Off by
    #: default: with the detector disabled the per-node TTL suspicion
    #: map above is the liveness heuristic and every RNG stream replays
    #: the pinned kernel fixtures byte-identically.  When enabled, each
    #: node runs a failure detector whose converging membership view
    #: replaces the suspicion map for discovery, gates escrow write-offs
    #: on *confirmed* deaths, and rides piggyback on pool traffic.
    enable_membership: bool = False
    #: Protocol period: one direct probe per node per period.
    membership_probe_period_s: float = 1.0
    #: Direct-probe ack deadline; on expiry the prober asks
    #: ``membership_indirect_probes`` relays before suspecting at the
    #: end of the period.
    membership_probe_timeout_s: float = 0.25
    #: k of SWIM: relays asked to ping the target indirectly.
    membership_indirect_probes: int = 2
    #: Suspect -> confirmed-dead deadline; a refutation (the subject
    #: gossiping a higher incarnation) cancels it.
    membership_suspect_timeout_s: float = 2.0
    #: Dedicated gossip messages sent per protocol period while updates
    #: are pending (idle-node dissemination; piggyback covers the rest).
    membership_gossip_fanout: int = 1
    #: Max updates piggybacked per outgoing message.
    membership_piggyback_max: int = 6
    #: Per-update retransmission budget (~lambda*log N of the SWIM paper
    #: for the cluster sizes the experiments use).
    membership_gossip_repeats: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 < self.rate <= 1.0):
            raise ValueError(f"rate out of (0, 1]: {self.rate!r}")
        if self.lower_limit_w <= 0:
            raise ValueError("lower limit must be positive")
        if self.upper_limit_w < self.lower_limit_w:
            raise ValueError("upper limit below lower limit")
        if self.pool_inbox_capacity <= 0:
            raise ValueError("pool inbox capacity must be positive")
        if self.escrow_timeout_s is not None and self.escrow_timeout_s <= 0:
            raise ValueError("escrow timeout must be positive")
        if self.grant_ack_retries < 0:
            raise ValueError("grant_ack_retries must be non-negative")
        if self.request_retries < 0:
            raise ValueError("request_retries must be non-negative")
        if self.retry_backoff_s <= 0:
            raise ValueError("retry backoff must be positive")
        if self.retry_backoff_factor < 1.0:
            raise ValueError("retry backoff factor must be >= 1")
        if self.retry_jitter < 0:
            raise ValueError("retry jitter must be non-negative")
        if self.suspicion_ttl_s < 0:
            raise ValueError("suspicion TTL must be non-negative")
        if self.membership_probe_period_s <= 0:
            raise ValueError("membership probe period must be positive")
        if not (0.0 < self.membership_probe_timeout_s < self.membership_probe_period_s):
            raise ValueError(
                "membership probe timeout must lie inside the probe period"
            )
        if self.membership_indirect_probes < 0:
            raise ValueError("membership indirect probe count must be non-negative")
        if self.membership_suspect_timeout_s <= 0:
            raise ValueError("membership suspect timeout must be positive")
        if self.membership_gossip_fanout < 0:
            raise ValueError("membership gossip fanout must be non-negative")
        if self.membership_piggyback_max < 0:
            raise ValueError("membership piggyback max must be non-negative")
        if self.membership_gossip_repeats < 1:
            raise ValueError("membership gossip repeats must be at least 1")

    @property
    def effective_escrow_timeout_s(self) -> float:
        """The escrow refund deadline actually used.

        The default covers the worst *normal* ack path: the grant rides
        almost a full request timeout, is absorbed as a stale grant up to
        one period later, and the ack still has to fly back -- so
        ``2 * (timeout + period)`` refunds only transfers whose ack is
        genuinely missing, not merely slow.
        """
        if self.escrow_timeout_s is not None:
            return self.escrow_timeout_s
        return 2.0 * (self.timeout_s + self.period_s)

    def with_period(self, period_s: float) -> "PenelopeConfig":
        return replace(self, period_s=period_s)
