"""CDPF and CDPF-NE: the completely distributed particle filter (paper §IV-§V).

One :class:`CDPFTracker` iteration executes Algorithm 1 with the reordered
steps of Fig. 2(b):

1.  **Prediction / propagation** — every holder broadcasts its particle
    (state + weight) one hop; nodes in the sender's predicted area decide
    *locally* whether to record it (linear probability model), split the
    weight (division rules), and merge shares from several senders
    (combination).
2.  **Correction** — every node that overheard the propagation knows the
    total weight as a side product, so it normalizes its recorded share,
    applies the drop rule (the paper's resampling for node-hosted
    particles), and computes the estimate *for the previous iteration*.
3.  **Likelihood** — holders that detected the target broadcast their
    measurements one hop; every holder evaluates the joint likelihood of its
    own (node-position) state.       [CDPF only]
4.  **Assign weight** — ``w_{k+1} = share * likelihood`` — or, for CDPF-NE,
    ``w_{k+1} = share * c_0`` with the estimated neighbor contribution of
    §V replacing the likelihood, which removes step 3's traffic entirely.

The estimate returned by :meth:`step` at iteration ``k`` therefore refers to
iteration ``k - 1``: the one-iteration correction latency is inherent to the
reordering and the runner accounts for it explicitly.

Implementation discipline: every per-node decision uses only that node's
local knowledge (its position, its neighbor table, its inbox).  The harness
computes *which* nodes to iterate over globally — a pure scheduling shortcut
that does not leak information into any node's decision.

Each phase has exactly one implementation, here: serial sweeps, the
lock-step sweep backend, service sessions, checkpoint replay and the fuzz
harness all run it.  Its vectorized forms are bit-exact replicas of the
per-node computations they replace, and each is chosen from state the code
can observe (never from a user flag):

* **direct handoff on a reliable medium** (``not medium.is_unreliable``):
  every broadcast reaches exactly the available nodes within comm radius
  (the medium's own ``d2 <= r^2`` membership test, replicated bitwise) and
  an inbox holds only this round's broadcasts in sorted-sender order, so
  the likelihood phase reads every holder's inbox from one (holders,
  sharers) mask.  The messages still go through the medium, which charges
  the same per-``(iteration, category, phase)`` ledger rows;
* **grouped combination**: a stable sort over all recorded ``(recorder,
  share, velocity)`` triples keeps broadcast order inside every recorder's
  group, so each group sums the same floats in the same order as
  :func:`~repro.core.propagation.combine_shares` on a per-recorder list;
* **RNG draw order**: ``Generator.uniform(size=n)`` produces the same
  stream as ``n`` scalar draws (pinned by a test), so the creation gate
  takes its draws at once in sorted-candidate order;
* **estimation-area geometry**: when ``2 R_s <= 0.999 R_c`` (the paper's
  R_s <= R_c/2 with margin) all nodes of one estimation area are mutual
  one-hop neighbors, so one padded disk query followed by the exact
  in-area expression yields every holder's ``neighbors ∩ area``;
* **exact counts without lists**: degrees are warmed in one batch before
  the per-node reads (``NeighborTables.warm_degrees``).

``tests/core/cdpf_fold_golden.json`` pins every path (paper grid plus the
test-only configurations) to the outputs recorded before these forms were
folded in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kernels.contributions import batch_contributions
from ..kernels.geometry import norm2d_many
from ..kernels.likelihood import batch_likelihood
from ..kernels.propagation import batch_implied_velocities, batch_propagate
from ..models.measurement import wrap_angle
from ..network.messages import MeasurementMessage, ParticleMessage
from ..runtime import IterationState, Phase, PhasePipeline, TrackerStats
from ..scenario import Scenario, StepContext
from .propagation import HeldParticle, PropagationConfig

__all__ = ["CDPFTracker", "CDPFStats", "bearing_log_kernel"]

#: Measurements taken closer than this to a particle's position are skipped:
#: a bearing constrains direction only, and at the sensor itself the
#: direction to the target is undefined (atan2(0, 0)).
_SENSOR_EPS = 1e-6


def quantization_sigma(
    local_density_per_m2: float, sensor_distance: float
) -> float:
    """Bearing-sigma inflation for node-hosted (position-quantized) particles.

    A node stands in for its Voronoi cell (~ half-spacing ``h = 0.5 / sqrt(lambda)``
    across); evaluating a bearing likelihood *at the node* instead of anywhere
    in the cell is an angular error up to ``atan(h / d)`` as seen from a
    sensor at distance ``d``.  Without this term the raw kernel selects the
    single node nearest the measured ray and the holder population collapses
    to one — fatal at low densities.  Locally computable: a node estimates
    ``lambda`` from its own one-hop degree.
    """
    if local_density_per_m2 <= 0:
        raise ValueError("local density must be positive")
    h = 0.5 / np.sqrt(local_density_per_m2)
    return float(np.arctan(h / max(sensor_distance, h)))


def bearing_log_kernel(
    particle_position: np.ndarray,
    z: float,
    sensor_position: np.ndarray,
    noise_std: float,
) -> float:
    """log of the *normalized* bearing likelihood kernel exp(-r^2 / 2 sigma^2).

    The 1/(sigma sqrt(2 pi)) constant cancels under weight normalization, and
    keeping the kernel <= 1 prevents overflow when many measurements are
    fused on one node.
    """
    d = np.asarray(particle_position, dtype=np.float64) - np.asarray(
        sensor_position, dtype=np.float64
    )
    if float(d @ d) < _SENSOR_EPS**2:
        return 0.0  # own-position measurement carries no positional information
    predicted = np.arctan2(d[1], d[0])
    residual = float(wrap_angle(z - predicted))
    return -0.5 * (residual / noise_std) ** 2


@dataclass
class CDPFStats(TrackerStats):
    """Per-run bookkeeping the experiments read out.

    Extends the shared :class:`~repro.runtime.stats.TrackerStats` (holder /
    creator / track-lost / degraded counters, per-phase timings) with the
    CDPF-specific series.  ``degraded_iterations`` counts iterations where
    channel loss forced graceful degradation: a recorder renormalized against
    an incomplete overheard total, or the whole correction round lost quorum
    and fell back to prior-weight propagation.  Always 0 on a reliable
    medium.
    """

    dropped_per_iteration: list[int] = field(default_factory=list)
    estimate_disagreement: list[float] = field(default_factory=list)
    partial_overhearing: list[int] = field(default_factory=list)
    area_widenings: int = 0


class CDPFTracker:
    """The completely distributed particle filter (set ``neighborhood_estimation``
    for CDPF-NE).

    Parameters
    ----------
    scenario:
        Static world configuration (deployment, radio, models, byte sizes).
    rng:
        Randomness source (only the sensing layer consumes randomness inside
        the tracker-facing pipeline; propagation itself is deterministic).
    config:
        Propagation mechanism knobs; defaults to the paper's geometry
        (predicted-area radius = sensing radius).
    neighborhood_estimation:
        When True, run CDPF-NE: skip measurement sharing and weight by the
        estimated neighbor contribution c_0 instead of the likelihood.
    check_consistency:
        When True, compute the correction-step estimate independently at
        every recorder and record the maximum disagreement (slow; used by
        integration tests to validate Theorem 2's operational consequence).
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        rng: np.random.Generator,
        config: PropagationConfig | None = None,
        neighborhood_estimation: bool = False,
        initial_weight: float = 1.0,
        medium=None,
        check_consistency: bool = False,
        report_to_sink: bool = False,
    ) -> None:
        self.scenario = scenario
        self.rng = rng
        if config is None:
            if neighborhood_estimation:
                # NE has no likelihood channel: detection-driven particle
                # creation is its only grounding, so it anchors more eagerly
                # (tighter slack, higher creation rate); and with no
                # likelihood to concentrate weights, the holder population is
                # bounded geometrically instead (tighter recording radius) so
                # that NE stays the minimum-cost option at every density.
                config = PropagationConfig(
                    predicted_area_radius=scenario.sensing_radius,
                    record_threshold=0.65,
                    creation_slack=1.2,
                    creation_limit=6.0,
                )
            else:
                config = PropagationConfig(predicted_area_radius=scenario.sensing_radius)
        self.config = config
        self.neighborhood_estimation = neighborhood_estimation
        self.name = "CDPF-NE" if neighborhood_estimation else "CDPF"
        if initial_weight <= 0:
            raise ValueError(f"initial_weight must be positive, got {initial_weight}")
        self.initial_weight = float(initial_weight)
        self.medium = medium if medium is not None else scenario.make_medium()
        self.neighbors = scenario.make_neighbor_tables()
        self.check_consistency = check_consistency
        #: §IV-A step 2: "possibly report it to sink nodes".  Off by default
        #: (Table I's CDPF cost excludes reporting); when on, the highest-
        #: share holder unicasts each correction-step estimate to the sink,
        #: charged under the "report" category.
        self.report_to_sink = report_to_sink
        self._sink = scenario.sink_node() if report_to_sink else None

        #: node id -> the single (combined) particle it maintains
        self.holders: dict[int, HeldParticle] = {}
        self.stats = CDPFStats()
        #: anticipated availability hook: callable(ids) -> bool mask, or None
        self.anticipate_available = None

        self._estimate: np.ndarray | None = None
        self._estimate_iter: int | None = None
        self._velocity_estimate: np.ndarray | None = None
        self._last_sender_positions: np.ndarray | None = None
        self._last_predictions: np.ndarray | None = None

        # Fig. 2(b)'s reordered iteration as declared phases: CDPF-NE has no
        # likelihood channel, so its phase list simply omits that phase (the
        # traffic difference between the variants is one missing phase row).
        phases = [
            Phase("propagation", self._phase_propagation),
            Phase("correction", self._phase_correction),
            Phase("creation", self._phase_creation),
        ]
        if not neighborhood_estimation:
            phases.append(Phase("likelihood", self._phase_likelihood))
        phases.append(Phase("assign_weight", self._phase_assign_weight))
        self.phases = tuple(phases)
        self.pipeline = PhasePipeline(self, medium=self.medium, stats=self.stats)

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------

    def step(self, ctx: StepContext) -> np.ndarray | None:
        """One CDPF iteration; returns the estimate for the *previous* iteration."""
        return self.pipeline.run(ctx)

    def estimate_iteration(self) -> int | None:
        return self._estimate_iter

    @property
    def accounting(self):
        return self.medium.accounting

    # ------------------------------------------------------------------
    # checkpoint protocol
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Mutable tracker state only.  The medium is owned by the run layer
        (and shared across trackers under :class:`~repro.core.multitarget.
        MultiTargetCDPF`), so it snapshots separately; static configuration
        (scenario, config, phase list) is rebuilt from the spec on restore."""
        from ..runtime.checkpoint import snapshot_rng

        return {
            "holders": [
                [int(nid), p.velocity.copy(), float(p.weight)]
                for nid, p in sorted(self.holders.items())
            ],
            "estimate": None if self._estimate is None else self._estimate.copy(),
            "estimate_iter": self._estimate_iter,
            "velocity_estimate": (
                None
                if self._velocity_estimate is None
                else np.asarray(self._velocity_estimate, dtype=np.float64).copy()
            ),
            "last_sender_positions": (
                None
                if self._last_sender_positions is None
                else self._last_sender_positions.copy()
            ),
            "last_predictions": (
                None if self._last_predictions is None else self._last_predictions.copy()
            ),
            "rng": snapshot_rng(self.rng),
            "stats": self.stats.snapshot(),
        }

    def restore(self, state: dict) -> None:
        from ..runtime.checkpoint import restore_rng

        self.holders = {
            int(nid): HeldParticle(
                velocity=np.asarray(velocity, dtype=np.float64), weight=float(weight)
            )
            for nid, velocity, weight in state["holders"]
        }
        est = state["estimate"]
        self._estimate = None if est is None else np.asarray(est, dtype=np.float64).copy()
        self._estimate_iter = (
            None if state["estimate_iter"] is None else int(state["estimate_iter"])
        )
        vel = state["velocity_estimate"]
        self._velocity_estimate = (
            None if vel is None else np.asarray(vel, dtype=np.float64).copy()
        )
        sp = state["last_sender_positions"]
        self._last_sender_positions = (
            None if sp is None else np.asarray(sp, dtype=np.float64).copy()
        )
        lp = state["last_predictions"]
        self._last_predictions = (
            None if lp is None else np.asarray(lp, dtype=np.float64).copy()
        )
        restore_rng(self.rng, state["rng"])
        self.stats.restore(state["stats"])

    # ------------------------------------------------------------------
    # initialization (paper §III-B: first detectors get unit-weight particles)
    # ------------------------------------------------------------------

    def _initialize(self, ctx: StepContext, detectors: set[int]) -> None:
        if not detectors:
            return
        v0 = np.asarray(self.scenario.prior_velocity, dtype=np.float64)
        for nid in sorted(detectors):
            self.holders[nid] = HeldParticle(velocity=v0.copy(), weight=self.initial_weight)
        self.stats.holders_per_iteration.append(len(self.holders))
        self.stats.creators_per_iteration.append(len(detectors))

    # ------------------------------------------------------------------
    # steps 1 + 2: propagation, overheard total, correction
    # ------------------------------------------------------------------

    def _available_mask(self, ids: np.ndarray) -> np.ndarray:
        """Locally *anticipated* availability of candidate recorders (§V-D)."""
        if self.anticipate_available is None:
            return np.ones(ids.shape[0], dtype=bool)
        return np.asarray(self.anticipate_available(ids), dtype=bool)

    def _phase_propagation(self, state: IterationState) -> None:
        """Step 1 (first half): every available holder broadcasts its particle.

        Also hosts the birth iteration (§III-B initialization): with no
        holders yet there is nothing to propagate, the detectors seed the
        first particles, and the iteration ends early.
        """
        ctx = state.ctx
        state.detectors = set(int(d) for d in np.asarray(ctx.detectors).ravel())
        if not self.holders:
            self._initialize(ctx, state.detectors)
            state.finish(None)
            return
        k = state.iteration
        positions = self.scenario.deployment.positions

        # A holder that slept or failed before its broadcast loses its
        # particle — the weight leaks, exactly the §V-D uncertain-factor case.
        # Under an unreliable channel each broadcast's per-recipient drop
        # record is kept: a node that lost a copy can neither record a share
        # from it nor count its weight in the overheard total.
        senders = [nid for nid in sorted(self.holders) if self.medium.is_available(nid)]
        particles = [self.holders[nid] for nid in senders]
        # the round's (position ++ velocity, weight) rows, one per message
        states = np.concatenate(
            [positions[senders], np.array([p.velocity for p in particles]).reshape(-1, 2)],
            axis=1,
        )
        weights = np.array([p.weight for p in particles], dtype=np.float64)
        batch = self.medium.transmission_batch(k)
        for nid, msg in zip(senders, ParticleMessage.round_of(senders, k, states, weights)):
            batch.broadcast(nid, msg)
        state.broadcast = (states, weights)
        # per-broadcast recipients that lost the copy, aligned with the rows
        state.lost_sets = [
            set(d.dropped.tolist()) | set(d.delayed.tolist())
            if d.dropped.size or d.delayed.size
            else set()
            for d in batch.flush()
        ]
        if not senders:
            # the whole population became unavailable: the track is lost and
            # detection-driven creation must rebuild it
            self.holders = {}

    def _phase_correction(self, state: IterationState) -> None:
        """Steps 1b + 2: overheard total, record/divide/combine, normalize, drop."""
        states, weights = state.broadcast
        if not weights.size:
            return  # nothing was propagated; the estimate stays unavailable
        lost_sets: list[set[int]] = state.lost_sets
        k = state.iteration
        positions = self.scenario.deployment.positions
        index = self.scenario.deployment.index
        dt = self.scenario.dynamics.dt
        cfg = self.config

        # --- overheard aggregate (identical at every in-area node) --------
        total = float(weights.sum())
        w_eff = weights if total > 0 else np.full(weights.shape[0], 1.0 / weights.shape[0])
        total_eff = float(w_eff.sum())
        estimate = (w_eff @ states[:, :2]) / total_eff
        # Track velocity: blend the carried-velocity mean with the
        # displacement of consecutive consensus estimates.  The displacement
        # is the only signal that follows the target's turns, but it carries
        # ~2x the estimate noise amplified by 1/dt, so it is smoothed into
        # the carried mean rather than used raw.
        carried = (w_eff @ states[:, 2:]) / total_eff
        if self._estimate is not None and self._estimate_iter == k - 2:
            displacement = (estimate - self._estimate) / dt
            beta = self.config.velocity_alpha
            self._velocity_estimate = (1.0 - beta) * carried + beta * displacement
        else:
            self._velocity_estimate = carried
        self._estimate = estimate
        self._estimate_iter = k - 1

        # --- steps 1b + 2: record, divide, combine; normalize; drop -------
        #
        # The recording decision and the division shares are functions of
        # *shared* data only (sender state in the broadcast message, static
        # node positions, anticipated availability), so — exactly as Theorem 2
        # argues for contributions — every candidate computes the identical
        # result.  The simulator exploits that consistency and evaluates each
        # broadcast's recorder set once instead of once per receiver; the
        # per-receiver equivalence is asserted by a dedicated test.
        comm_radius = self.scenario.radio.comm_radius
        self._last_sender_positions = states[:, :2]
        self._last_predictions = states[:, :2] + states[:, 2:] * dt
        # In track mode every holder carries the same consensus velocity, and
        # the natural propagation target is the *consensus* predicted
        # position (Definition 1's estimation area is the disk around "the
        # target's predicted position", singular) — all predicted areas
        # coincide, which is what bounds the recorder union.
        consensus_pred = (
            estimate + self._velocity_estimate * dt
            if cfg.velocity_mode == "track"
            else None
        )
        if consensus_pred is not None:
            self._last_predictions = consensus_pred[None, :]

        # degeneracy-aware area adaptation (future-work item 2): all
        # participants see the same overheard weights, hence the same ESS
        # and the same widened geometry
        if cfg.adaptive_area and weights.shape[0] > 1:
            w_norm = w_eff / total_eff
            ess_ratio = float(1.0 / np.sum(w_norm * w_norm)) / weights.shape[0]
            if ess_ratio < cfg.ess_target:
                from dataclasses import replace as _replace

                cfg = _replace(
                    cfg,
                    predicted_area_radius=cfg.predicted_area_radius * cfg.area_scale_max,
                )
                self.stats.area_widenings += 1
        # One spatial query + one batched recorder selection for the whole
        # round instead of per-broadcast scalar calls.  In track mode every
        # broadcast shares the consensus predicted area, so the candidate set
        # is queried once; otherwise the per-sender areas are unioned and each
        # broadcast keeps only its own in-area candidates (``query_disk``'s
        # ``d2 <= r*r`` test replicated bitwise — the sqrt'd probability cut
        # alone is NOT equivalent at the disk boundary).  The availability
        # hook is evaluated once over the shared candidate set; hooks are
        # pure functions of the ids (all in-repo hooks are).
        sender_pos_all = states[:, :2]
        sender_vel_all = states[:, 2:]
        if consensus_pred is not None:
            preds = np.broadcast_to(consensus_pred, (weights.shape[0], 2))
            cand = index.query_disk(consensus_pred, cfg.predicted_area_radius)
            in_area_masks = None
        else:
            preds = sender_pos_all + sender_vel_all * dt
            cand = index.query_disk_many(preds, cfg.predicted_area_radius)
        selected = []
        if cand.size:
            cand_pos = positions[cand]
            if consensus_pred is None:
                pdx = cand_pos[None, :, 0] - preds[:, 0:1]
                pdy = cand_pos[None, :, 1] - preds[:, 1:2]
                in_area_masks = pdx * pdx + pdy * pdy <= (
                    cfg.predicted_area_radius * cfg.predicted_area_radius
                )
            sdx = cand_pos[None, :, 0] - sender_pos_all[:, 0:1]
            sdy = cand_pos[None, :, 1] - sender_pos_all[:, 1:2]
            keep_masks = np.sqrt(sdx * sdx + sdy * sdy) <= comm_radius
            if in_area_masks is not None:
                keep_masks &= in_area_masks
            if self.anticipate_available is not None:
                keep_masks &= self._available_mask(cand)[None, :]
            for bi, lost in enumerate(lost_sets):
                if lost:
                    # a candidate that lost this copy never heard the
                    # particle: it cannot record a share of it
                    keep_masks[bi] &= np.fromiter(
                        (int(c) not in lost for c in cand), dtype=bool, count=cand.size
                    )
            selected = batch_propagate(
                preds,
                w_eff,
                cand,
                cand_pos,
                area_radius=cfg.predicted_area_radius,
                record_threshold=cfg.record_threshold,
                max_recorders=cfg.max_recorders,
                keep_masks=keep_masks,
            )
        # every recorded (recorder, share, velocity) triple, broadcast-major
        combined: dict[int, HeldParticle] = {}
        kept = [(bi, sel, sh) for bi, (sel, _, sh) in enumerate(selected) if sel.size]
        if kept:
            rids = cand[np.concatenate([sel for _, sel, _ in kept])]
            senders = np.repeat([bi for bi, _, _ in kept], [sel.size for _, sel, _ in kept])
            vels = batch_implied_velocities(
                sender_pos_all[senders],
                positions[rids],
                sender_vel_all[senders],
                dt,
                cfg.velocity_mode,
                cfg.velocity_alpha,
                track_velocity=self._velocity_estimate,
            )
            shares = np.concatenate([sh for _, _, sh in kept])
            combined = self._combine_recorded(rids, shares, vels)

        # Drop rule (the correction step's "resampling"): discard recorded
        # particles whose share is below drop_threshold times the largest
        # recorded share.  Every recorder can evaluate this locally: shares
        # are deterministic functions of the overheard broadcasts and static
        # positions (the same shared data Theorem 2 relies on), so each node
        # can reconstruct every other recorder's share without communication.
        # Relative-to-max pruning is scale-free in the weights, so it cannot
        # go extinct and the surviving holder count is set by geometry —
        # growing with deployment density exactly as §III-A describes.
        any_lost = any(lost_sets)
        if not combined and any_lost:
            # Graceful degradation: the correction round lost quorum — every
            # share was lost to the channel.  Fall back to prior-weight
            # propagation: surviving holders keep their particles and weights
            # for one iteration instead of declaring the track lost, so a
            # single deep fade does not erase the whole posterior.
            self.stats.degraded_iterations += 1
            self.stats.dropped_per_iteration.append(0)
            self.holders = {
                nid: p for nid, p in self.holders.items() if self.medium.is_available(nid)
            }
            if self.check_consistency:
                self._record_consistency()
            self.medium.clear_inboxes()
            state.estimate = estimate
            return

        # Per-recorder overheard totals: a recorder that lost copies saw a
        # *smaller* total weight than the full round carried.  It renormalizes
        # by what it actually overheard (the locally correct denominator) —
        # on a reliable medium this is exactly the shared total.
        lost_weight_at: dict[int, float] = {}
        if any_lost:
            for bi, lost in enumerate(lost_sets):
                w_bi = float(w_eff[bi])
                for r in lost:
                    lost_weight_at[r] = lost_weight_at.get(r, 0.0) + w_bi

        max_share = max((p.weight for p in combined.values()), default=0.0)
        threshold = cfg.drop_threshold * max_share
        new_holders: dict[int, HeldParticle] = {}
        dropped = 0
        degraded = False
        for rid, particle in combined.items():
            if particle.weight < threshold:
                dropped += 1
                continue
            lost_w = lost_weight_at.get(rid, 0.0)
            if lost_w > 0.0:
                degraded = True
                denom = total_eff - lost_w
                if denom <= 0.0:
                    denom = total_eff
            else:
                denom = total_eff
            particle.weight = particle.weight / denom
            new_holders[rid] = particle
        if degraded:
            self.stats.degraded_iterations += 1

        if self.check_consistency:
            self._record_consistency()

        self.holders = new_holders
        self.stats.dropped_per_iteration.append(dropped)
        if self.report_to_sink and new_holders:
            self._send_estimate_report(estimate, k)
        self.medium.clear_inboxes()
        state.estimate = estimate

    def _combine_recorded(self, rids, shares, vels) -> dict[int, HeldParticle]:
        """§III-A combination: merge each recorder's shares into one particle.

        One stable sort over the concatenated ``(recorder, share, velocity)``
        triples groups them per recorder while keeping broadcast order inside
        each group, so every group sums the same values in the same order as
        :func:`~repro.core.propagation.combine_shares` on that recorder's
        list, and the result is keyed in sorted-recorder order.  Anticipated
        recorders that are actually unavailable lose their share (weight
        leak — the §V-D uncertain-factor case).
        """
        combined: dict[int, HeldParticle] = {}
        live = self.medium.available_mask(rids)
        if not live.all():
            rids, shares, vels = rids[live], shares[live], vels[live]
            if rids.size == 0:
                return combined
        order = np.argsort(rids, kind="stable")
        rids, shares, vels = rids[order], shares[order], vels[order]
        bounds = np.flatnonzero(np.concatenate([[True], rids[1:] != rids[:-1], [True]]))
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            w = shares[a:b]
            total = float(w.sum())
            if total > 0.0:
                velocity = (w / total) @ vels[a:b]
            else:  # pragma: no cover - recorded shares are strictly positive
                velocity = vels[a:b].mean(axis=0)
            combined[int(rids[a])] = HeldParticle(velocity=velocity, weight=total)
        return combined

    def _send_estimate_report(self, estimate: np.ndarray, k: int) -> None:
        """Route the correction-step estimate from the top holder to the sink."""
        from ..network.messages import EstimateReportMessage
        from ..network.routing import RoutingError, greedy_path

        reporter = max(self.holders, key=lambda nid: self.holders[nid].weight)
        msg = EstimateReportMessage(sender=reporter, iteration=k, estimate=estimate)
        if reporter == self._sink:
            return
        try:
            path = greedy_path(
                self.scenario.deployment.index, reporter, self._sink, self.scenario.radio
            )
            self.medium.unicast_path(path, msg, k)
        except (RoutingError, RuntimeError):
            pass  # the report is best-effort; tracking is unaffected

    def _record_consistency(self) -> None:
        """Per-receiver estimates from actual inboxes (Theorem 2's operational check).

        The paper's consistency claim holds for nodes with *complete*
        overhearing ("as long as the propagation does not reach too far",
        §IV-A): those must agree to numerical precision.  Nodes that heard a
        strict subset are recorded separately as a coverage statistic.
        """
        n_broadcast = len(self.holders)
        per_node_estimates: list[np.ndarray] = []
        n_partial = 0
        for r in self.medium.pending_nodes():
            inbox = [m for m in self.medium.peek(r) if isinstance(m, ParticleMessage)]
            if not inbox:
                continue
            if len(inbox) < n_broadcast:
                n_partial += 1
                continue
            st = np.vstack([m.states for m in inbox])
            wt = np.concatenate([m.weights for m in inbox])
            tw = wt.sum()
            if tw > 0:
                per_node_estimates.append((wt @ st[:, :2]) / tw)
        if len(per_node_estimates) > 1:
            ests = np.vstack(per_node_estimates)
            spread = float(np.max(np.linalg.norm(ests - ests.mean(axis=0), axis=1)))
            self.stats.estimate_disagreement.append(spread)
        self.stats.partial_overhearing.append(n_partial)

    # ------------------------------------------------------------------
    # new-particle creation (§III-B: detectors that heard no propagation)
    # ------------------------------------------------------------------

    def _create_new_particles(self, ctx: StepContext, detectors: set[int]) -> set[int]:
        """§III-B: a detector outside every overheard predicted area (or out of
        earshot entirely) creates a particle "as in the initialization step".

        Created particles keep the initialization weight this iteration (no
        likelihood/NE multiplier — initialization assigns a constant weight),
        which is the channel that re-anchors a drifting track to physical
        detections.  Returns the created node ids.

        Each candidate's hearing and slack tests are local (its position
        against the overheard senders and predictions); they are evaluated
        for all candidates as one (candidates, senders) matrix test.  The
        rate limit's draws are taken as one ``uniform(size=n)`` in
        sorted-candidate order, the same stream as ``n`` scalar draws.
        """
        positions = self.scenario.deployment.positions
        holders = self.holders
        if holders:
            base_weight = float(np.mean([p.weight for p in holders.values()]))
        else:
            base_weight = self.initial_weight
        cand = [
            nid
            for nid in sorted(detectors)
            if nid not in holders and self.medium.is_available(nid)
        ]
        if not cand:
            return set()
        sender_pos = self._last_sender_positions
        predictions = self._last_predictions
        if sender_pos is not None and sender_pos.size:
            cpos = positions[cand]
            d2 = np.sum((sender_pos[None, :, :] - cpos[:, None, :]) ** 2, axis=2)
            heard = d2 <= self.scenario.radio.comm_radius**2
            heard_any = heard.any(axis=1)
            # it overheard propagation: create only if it sits outside every
            # predicted area (with slack).  Under consensus prediction there
            # is a single area; otherwise one per overheard sender.
            d_pred = np.sqrt(np.sum((predictions[None, :, :] - cpos[:, None, :]) ** 2, axis=2))
            within = d_pred <= self.config.creation_slack * self.config.predicted_area_radius
            if predictions.shape[0] == sender_pos.shape[0]:
                within &= heard
            inside = within.any(axis=1) & heard_any
        else:
            heard_any = inside = np.zeros(len(cand), dtype=bool)
        # local creation rate limit for the outside-area case: keep the
        # expected creator count at ~creation_limit network-wide.  Detectors
        # out of earshot entirely skip the limit — they are the re-anchoring
        # channel and behave like initialization.
        gated = heard_any & ~inside if holders else np.zeros(len(cand), dtype=bool)
        n_gate = int(np.count_nonzero(gated))
        if n_gate:
            self.neighbors.warm_degrees([nid for nid, g in zip(cand, gated) if g])
            draws = iter(self.rng.uniform(size=n_gate).tolist())
        area_ratio = (self.scenario.sensing_radius / self.scenario.radio.comm_radius) ** 2
        v0 = np.asarray(self.scenario.prior_velocity, dtype=np.float64)
        dt = self.scenario.dynamics.dt
        created: set[int] = set()
        for nid, skip, gate in zip(cand, inside.tolist(), gated.tolist()):
            if skip:
                continue
            if gate:
                n_codetectors = max(1.0, (self.neighbors.degree(nid) + 1) * area_ratio)
                if next(draws) >= min(1.0, self.config.creation_limit / n_codetectors):
                    continue
            if self._estimate is not None:
                # The creator detects the target *now*, so the displacement
                # from the last consensus estimate to its own position is a
                # direct (locally computable) velocity observation — the
                # channel through which the track velocity re-learns turns.
                velocity = (positions[nid] - self._estimate) / dt
            else:
                velocity = v0.copy()
            holders[nid] = HeldParticle(velocity=velocity, weight=base_weight)
            created.add(nid)
        return created

    # ------------------------------------------------------------------
    # new-particle creation phase
    # ------------------------------------------------------------------

    def _phase_creation(self, state: IterationState) -> None:
        state.created = self._create_new_particles(state.ctx, state.detectors)

    # ------------------------------------------------------------------
    # step 3, CDPF flavor: measurement sharing + likelihood evaluation
    # ------------------------------------------------------------------

    def _phase_likelihood(self, state: IterationState) -> None:
        """Share measurements one hop and evaluate each holder's joint kernel.

        Only computes the per-holder log-likelihood (into ``state.log_liks``);
        the weight multiplication is the assign_weight phase.  The kernels
        read only prior-weight-independent data (states, measurements), so
        deferring the multiply is bit-identical to the fused loop.
        """
        ctx = state.ctx
        detectors: set[int] = state.detectors
        positions = self.scenario.deployment.positions
        measurement = self.scenario.measurement
        k = state.iteration
        sharers = sorted(
            nid
            for nid in self.holders
            if nid in detectors and self.medium.is_available(nid)
        )
        batch = self.medium.transmission_batch(k)
        for s in sharers:
            msg = MeasurementMessage(sender=s, iteration=k, value=float(ctx.measurements[s]))
            batch.broadcast(s, msg)
        batch.flush()
        # Gather every holder's (sender, measurement) pairs, then evaluate the
        # whole round as one (holders, measurements) log-kernel matrix.  The
        # matrix columns are the distinct pairs actually heard — a delayed
        # channel can deliver stale copies whose value differs from this
        # iteration's reading, so columns key on the pair, not the sender.
        # Created holders keep their initialization weight.
        receivers = [r for r in sorted(self.holders) if r not in state.created]
        if self.medium.is_unreliable:
            heard = [
                [(m.sender, m.value) for m in self.medium.collect(r)
                 if isinstance(m, MeasurementMessage)]
                for r in receivers
            ]
        else:
            heard = self._heard_reliably(receivers, sharers, ctx)
        rows: list[int] = []
        pair_lists: list[list[tuple[int, float]]] = []
        for r, pairs in zip(receivers, heard):
            if r in detectors:
                # a node's own measurement needs no radio message
                pairs = pairs + [(r, ctx.measurements[r])]
            if not pairs:
                continue  # no information this iteration; weight unchanged
            rows.append(r)
            pair_lists.append(pairs)
        log_liks: dict[int, float] = {}
        if rows:
            col_of: dict[tuple[int, float], int] = {}
            for pairs in pair_lists:
                for pair in pairs:
                    if pair not in col_of:
                        col_of[pair] = len(col_of)
            senders = [s for s, _ in col_of]
            if measurement.reference == "node":
                refs = positions[senders]
            else:
                refs = np.zeros((len(senders), 2))
            zs = np.array([z for _, z in col_of], dtype=np.float64)
            # discretization-aware sigma: local density from each node's degree
            lam_denom = np.pi * self.scenario.radio.comm_radius**2
            self.neighbors.warm_degrees(rows)
            lam = np.array(
                [(self.neighbors.degree(r) + 1) / lam_denom for r in rows]
            )
            matrix = batch_likelihood(
                positions[rows], lam, refs, zs, measurement.noise_std
            )
            # tempered fusion (mean log-kernel): the per-sensor bearings share
            # a common-mode error, so treating them as fully independent would
            # sharpen the joint likelihood far below the node-position
            # quantization scale and randomly annihilate every holder
            for i, (r, pairs) in enumerate(zip(rows, pair_lists)):
                cols = [col_of[pair] for pair in pairs]
                log_liks[r] = float(matrix[i, cols].mean())
        state.log_liks = log_liks
        self.medium.clear_inboxes()

    def _heard_reliably(self, receivers, sharers, ctx) -> list[list[tuple[int, float]]]:
        """Each receiver's inbox of this round's measurements, on a reliable medium.

        Every copy reaches exactly the available nodes within comm radius of
        its sender (the medium's own ``d2 <= r*r`` test over its geometry),
        and the inbox holds this round's broadcasts only, in sorted-sharer
        order.  So the inboxes are one (receivers, sharers) mask — the same
        pairs as draining each inbox, without a per-holder scan of the log.
        """
        if not sharers or not receivers:
            return [[] for _ in receivers]
        medium = self.medium
        pairs = [(s, float(ctx.measurements[s])) for s in sharers]
        spos = medium.positions[sharers]
        rpos = medium.positions[receivers]
        dx = rpos[:, None, 0] - spos[None, :, 0]
        dy = rpos[:, None, 1] - spos[None, :, 1]
        radius = medium.radio.comm_radius
        mask = dx * dx + dy * dy <= radius * radius
        mask &= np.asarray(receivers)[:, None] != np.asarray(sharers)[None, :]
        mask &= medium.available_mask(receivers)[:, None]
        return [[pairs[j] for j in np.flatnonzero(row).tolist()] for row in mask]

    # ------------------------------------------------------------------
    # step 4: assign weight (likelihood multiply, or NE contribution)
    # ------------------------------------------------------------------

    def _phase_assign_weight(self, state: IterationState) -> None:
        if self.neighborhood_estimation:
            self._assign_weights_ne(state.iteration, skip=state.created)
        else:
            for r, log_lik in state.log_liks.items():
                particle = self.holders[r]
                particle.weight = particle.weight * float(np.exp(log_lik))
        self.stats.record_population(len(self.holders), len(state.created))

    # ------------------------------------------------------------------
    # steps 3 + 4, CDPF-NE flavor: estimated neighbor contributions
    # ------------------------------------------------------------------

    def _assign_weights_ne(self, k: int, skip: set[int] = frozenset()) -> None:
        if self._estimate is None or self._velocity_estimate is None:
            return  # no consensus prediction yet; weights stay as recorded
        positions = self.scenario.deployment.positions
        dt = self.scenario.dynamics.dt
        r_s = self.scenario.sensing_radius
        predicted_now = self._estimate + self._velocity_estimate * dt
        holders = [r for r in sorted(self.holders) if r not in skip]
        if not holders:
            return
        # Own distances batched in the np.linalg.norm (FMA) form; area
        # distances in the plain sqrt-of-squares form — the two differ in
        # the last bit and both are kept as the node programs compute them.
        own_diff = positions[holders] - predicted_now
        d_own = norm2d_many(own_diff[:, 0], own_diff[:, 1])
        in_area_holders = []
        for i, r in enumerate(holders):
            if d_own[i] > r_s:
                # outside the estimation area: zero contribution -> drop later
                self.holders[r].weight = 0.0
            else:
                in_area_holders.append(r)
        if not in_area_holders:
            return
        # Each holder's estimation-area view: its (anticipated-available)
        # in-area neighbors in sorted order, then itself — as CSR groups of
        # distances plus the flat position of the holder's own entry.
        if 2.0 * r_s <= 0.999 * self.scenario.radio.comm_radius:
            rows, dists, counts, own = self._area_groups_shared(in_area_holders, predicted_now)
        else:
            rows, dists, counts, own = self._area_groups_by_neighbors(
                in_area_holders, predicted_now
            )
        offsets = np.concatenate([[0], np.cumsum(counts)])
        contributions = batch_contributions(dists, offsets)
        for r, c in zip(rows, contributions[offsets[:-1] + own].tolist()):
            particle = self.holders[r]
            particle.weight = particle.weight * c

    def _area_groups_shared(self, holders: list[int], predicted_now: np.ndarray):
        """Estimation areas when R_s <= R_c/2 (the paper's geometry).

        Any two nodes of one estimation area are then mutual one-hop
        neighbors, so every in-area holder's ``neighbors ∩ area`` is the area
        itself: one disk query replaces the per-holder neighbor lists.  The
        query radius is padded so the exact in-area expression decides
        membership.  A holder's group is the area's anticipated-available
        members without it, in id order, then the holder itself.
        """
        r_s = self.scenario.sensing_radius
        cand = self.scenario.deployment.index.query_disk(predicted_now, r_s * (1.0 + 1e-9))
        diff = self.scenario.deployment.positions[cand] - predicted_now
        dist = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])
        inside = dist <= r_s
        order = np.argsort(cand[inside])
        m_ids, m_d = cand[inside][order], dist[inside][order]
        avail = self._available_mask(m_ids)
        a_ids, a_d = m_ids[avail], m_d[avail]
        h = np.asarray(holders)
        j = np.searchsorted(m_ids, h)
        if m_ids.size == 0 or not np.array_equal(m_ids[np.minimum(j, m_ids.size - 1)], h):
            raise RuntimeError("a holder inside its own estimation area is missing from it")
        listed = avail[j]  # holders the hook left in the area
        # listed holders: drop the holder's own column, append it last
        ja = np.searchsorted(a_ids, h[listed])
        m = a_ids.size
        cols = np.arange(m - 1)[None, :]
        cols = np.concatenate([cols + (cols >= ja[:, None]), ja[:, None]], axis=1)
        rows = h[listed].tolist() + h[~listed].tolist()
        dists = [a_d[cols].ravel()]
        counts = [np.full(ja.size, m)]
        own = [np.full(ja.size, m - 1)]
        for jj in j[~listed].tolist():  # a hook-excluded holder still counts itself
            dists.append(np.append(a_d, m_d[jj]))
            counts.append([m + 1])
            own.append([m])
        return rows, np.concatenate(dists), np.concatenate(counts), np.concatenate(own)

    def _area_groups_by_neighbors(self, holders: list[int], predicted_now: np.ndarray):
        """Estimation areas from each holder's own neighbor table (any geometry)."""
        positions = self.scenario.deployment.positions
        r_s = self.scenario.sensing_radius
        self.neighbors.warm(holders)
        views = []
        for r in holders:
            neigh = self.neighbors.neighbors(r)
            views.append(np.append(neigh[self._available_mask(neigh)], r))
        flat_ids = np.concatenate(views)
        diff = positions[flat_ids] - predicted_now
        d_flat = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])
        in_area = d_flat <= r_s
        dists, counts, own = [], [], []
        offset = 0
        for r, ids in zip(holders, views):
            mask = in_area[offset : offset + ids.size]
            area_ids = ids[mask]
            dists.append(d_flat[offset : offset + ids.size][mask])
            offset += ids.size
            counts.append(area_ids.size)
            own.append(int(np.nonzero(area_ids == r)[0][0]))
        return holders, np.concatenate(dists), np.array(counts), np.array(own)
