"""SDPF: the semi-distributed particle filter baseline (Coates & Ing [7]).

Particles are maintained on sensor nodes exactly as in CDPF — the propagation,
division and combination mechanics are shared with
:mod:`repro.core.propagation` — but the filter keeps the *classic* step order,
which forces weight aggregation through a **global transceiver** assumed to be
one radio hop from every node.  Each iteration:

1. **propagation** — every holder broadcasts its (up to ``particles_per_node``)
   particles one hop; recorders record/divide/combine           [N_s (D_p + D_w)]
2. **measurement sharing** — holders that detected broadcast     [N_n D_m]
3. **likelihood + weight update** locally on every holder
4. **weight aggregation** — three-way handshake with the transceiver:
   query broadcast, per-holder weight reports, total broadcast  [N_s D_w + 2 msgs]
5. **resampling** — holders normalize by the total and apply the drop rule;
   per-node particle lists are capped at ``particles_per_node``
6. **estimation** — the transceiver, which received every weight (and knows
   the static host positions), computes the global estimate; unlike CDPF the
   estimate is available for the *current* iteration.

The per-iteration cost is Table I's  N_s (D_p + D_m + 2 D_w)  row, which the
simulator's ledger reproduces exactly (a test asserts it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.propagation import PropagationConfig
from ..kernels.likelihood import batch_likelihood
from ..kernels.propagation import batch_implied_velocities, batch_propagate
from ..network.messages import (
    MeasurementMessage,
    ParticleMessage,
    QueryMessage,
    TotalWeightMessage,
    WeightReportMessage,
)
from ..runtime import IterationState, Phase, PhasePipeline, TrackerStats
from ..scenario import Scenario, StepContext

__all__ = ["SDPFTracker"]


@dataclass
class _NodeParticles:
    """A holder's particle list: velocities (n, 2) and weights (n,)."""

    velocities: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def total(self) -> float:
        return float(self.weights.sum())


class SDPFTracker:
    """Semi-distributed PF with transceiver-based weight aggregation."""

    def __init__(
        self,
        scenario: Scenario,
        *,
        rng: np.random.Generator,
        config: PropagationConfig | None = None,
        particles_per_node: int = 8,
        initial_weight: float = 1.0,
        medium=None,
    ) -> None:
        if particles_per_node < 1:
            raise ValueError(f"particles_per_node must be >= 1, got {particles_per_node}")
        self.name = "SDPF"
        self.scenario = scenario
        self.rng = rng
        if config is None:
            # blend (not track) by default: SDPF's per-node particle lists
            # draw their diversity from per-particle displacement velocities
            config = PropagationConfig(
                predicted_area_radius=scenario.sensing_radius, velocity_mode="blend"
            )
        self.config = config
        self.particles_per_node = particles_per_node
        self.initial_weight = float(initial_weight)
        self.medium = medium if medium is not None else scenario.make_medium()
        self.neighbors = scenario.make_neighbor_tables()
        self.holders: dict[int, _NodeParticles] = {}
        self._estimate: np.ndarray | None = None
        self._estimate_iter: int | None = None
        self._velocity_estimate: np.ndarray | None = None
        self._last_sender_positions: np.ndarray | None = None
        self._last_predictions: np.ndarray | None = None
        self._last_union_count = 1
        self.transceiver_id = -1  # pseudo-node; not part of the deployment
        self.stats = TrackerStats()

        # The classic SIR order of Fig. 2(a): measurement sharing and the
        # local likelihood multiply are separate phases (Table I charges the
        # sharing traffic under N_n D_m), and the transceiver handshake is
        # the aggregation phase whose 2-message overhead CDPF eliminates.
        self.phases = (
            Phase("propagation", self._phase_propagation),
            Phase("creation", self._phase_creation),
            Phase("share", self._phase_share),
            Phase("likelihood", self._phase_likelihood),
            Phase("aggregation", self._phase_aggregation),
            Phase("resample", self._phase_resample),
            Phase("estimation", self._phase_estimation),
        )
        self.pipeline = PhasePipeline(self, medium=self.medium, stats=self.stats)

    @property
    def degraded_iterations(self) -> int:
        """Iterations where channel loss erased every recorded share and the
        tracker fell back to prior-weight propagation (0 on a reliable medium)."""
        return self.stats.degraded_iterations

    # ------------------------------------------------------------------

    @property
    def n_particles_total(self) -> int:
        """N_s: the number of particles currently maintained network-wide."""
        return sum(p.n for p in self.holders.values())

    def estimate_iteration(self) -> int | None:
        return self._estimate_iter

    @property
    def accounting(self):
        return self.medium.accounting

    # ------------------------------------------------------------------
    # checkpoint protocol
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Mutable tracker state only; the medium snapshots at the run layer."""
        from ..runtime.checkpoint import snapshot_rng

        return {
            "holders": [
                [int(nid), p.velocities.copy(), p.weights.copy()]
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
            "last_union_count": int(self._last_union_count),
            "rng": snapshot_rng(self.rng),
            "stats": self.stats.snapshot(),
        }

    def restore(self, state: dict) -> None:
        from ..runtime.checkpoint import restore_rng

        self.holders = {
            int(nid): _NodeParticles(
                velocities=np.asarray(velocities, dtype=np.float64),
                weights=np.asarray(weights, dtype=np.float64),
            )
            for nid, velocities, weights in state["holders"]
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
        self._last_union_count = int(state["last_union_count"])
        restore_rng(self.rng, state["rng"])
        self.stats.restore(state["stats"])

    # ------------------------------------------------------------------

    def step(self, ctx: StepContext) -> np.ndarray | None:
        """One SDPF iteration; the estimate refers to the *current* iteration."""
        return self.pipeline.run(ctx)

    # ------------------------------------------------------------------

    def _initialize(self, detectors: set[int]) -> None:
        if not detectors:
            return
        v0 = np.asarray(self.scenario.prior_velocity, dtype=np.float64)
        m = self.particles_per_node
        for nid in sorted(detectors):
            # sample the velocity prior: per-particle diversity is the whole
            # point of holding m particles per node (identical velocities
            # would make the m-fold propagation cost pure waste)
            velocities = v0 + self.rng.normal(
                0.0, self.scenario.prior_velocity_std, size=(m, 2)
            )
            self.holders[nid] = _NodeParticles(
                velocities=velocities,
                weights=np.full(m, self.initial_weight / m),
            )

    def _create_new_particles(self, detectors: set[int]) -> set[int]:
        """Same creation rule as CDPF: detectors outside all predicted areas."""
        positions = self.scenario.deployment.positions
        if self.holders:
            base = float(np.mean([p.total for p in self.holders.values()]))
        else:
            base = self.initial_weight
        sender_pos = self._last_sender_positions
        predictions = self._last_predictions
        comm_r2 = self.scenario.radio.comm_radius**2
        slack_r = self.config.creation_slack * self.config.predicted_area_radius
        v0 = np.asarray(self.scenario.prior_velocity, dtype=np.float64)
        m = self.particles_per_node
        area_ratio = (self.scenario.sensing_radius / self.scenario.radio.comm_radius) ** 2
        track_alive = bool(self.holders)
        created: set[int] = set()
        for nid in sorted(detectors):
            if nid in self.holders or not self.medium.is_available(nid):
                continue
            if track_alive:
                # local creation rate limit (see core.cdpf)
                n_codetectors = max(1.0, (self.neighbors.degree(nid) + 1) * area_ratio)
                if self.rng.uniform() >= min(1.0, self.config.creation_limit / n_codetectors):
                    continue
            if sender_pos is not None and sender_pos.size:
                heard = np.sum((sender_pos - positions[nid]) ** 2, axis=1) <= comm_r2
                if heard.any():
                    d_pred = np.sqrt(
                        np.sum((predictions[heard] - positions[nid]) ** 2, axis=1)
                    )
                    if (d_pred <= slack_r).any():
                        continue
            if self._estimate is not None:
                # displacement from the last global estimate to the creator —
                # a direct velocity observation (see core.cdpf)
                velocity = (positions[nid] - self._estimate) / self.scenario.dynamics.dt
            else:
                velocity = v0
            velocities = velocity + self.rng.normal(
                0.0, self.scenario.prior_velocity_std, size=(m, 2)
            )
            self.holders[nid] = _NodeParticles(
                velocities=velocities,
                weights=np.full(m, base / m),
            )
            created.add(nid)
        return created

    # ------------------------------------------------------------------

    def _phase_propagation(self, state: IterationState) -> None:
        """Step 1: broadcast particle lists; record/divide/combine per particle.

        Also hosts the birth iteration: with no holders yet the detectors seed
        the first particle lists and the iteration jumps straight to the
        aggregation handshake (``state.birth`` short-circuits the in-between
        phases), exactly as the classic order prescribes.
        """
        state.detectors = set(int(d) for d in np.asarray(state.ctx.detectors).ravel())
        state.birth = False
        if not self.holders:
            self._initialize(state.detectors)
            if not self.holders:
                state.finish(None)
            else:
                state.birth = True
            return
        k = state.iteration
        positions = self.scenario.deployment.positions
        index = self.scenario.deployment.index
        dt = self.scenario.dynamics.dt
        cfg = self.config

        broadcast: list[ParticleMessage] = []
        batch = self.medium.transmission_batch(k)
        for nid in sorted(self.holders):
            if not self.medium.is_available(nid):
                continue  # sleeping/failed holder: its particles leak away
            p = self.holders[nid]
            states = np.hstack([np.tile(positions[nid], (p.n, 1)), p.velocities])
            msg = ParticleMessage(sender=nid, iteration=k, states=states, weights=p.weights)
            batch.broadcast(nid, msg)
            broadcast.append(msg)
        # per-broadcast recipients that lost the copy, aligned with broadcast
        lost_sets = [
            set(delivery.dropped.tolist()) | set(delivery.delayed.tolist())
            for delivery in batch.flush()
        ]
        if not broadcast:
            self.holders = {}
            return

        # Per-broadcast recording (consistent across receivers, evaluated once
        # per particle — see the Theorem-2 note in repro.core.cdpf).
        all_states = np.vstack([m.states for m in broadcast])
        self._last_sender_positions = all_states[:, :2]
        self._last_predictions = all_states[:, :2] + all_states[:, 2:] * dt
        comm_radius = self.scenario.radio.comm_radius
        shares_at: dict[int, list[tuple[float, np.ndarray]]] = {}
        all_recorder_ids: set[int] = set()
        for mi, msg in enumerate(broadcast):
            # one spatial query per message covering all of its particles'
            # predicted areas, then vectorized per-particle filtering
            preds = msg.states[:, :2] + msg.states[:, 2:] * dt
            center = preds.mean(axis=0)
            spread = float(np.max(np.linalg.norm(preds - center, axis=1))) if preds.shape[0] > 1 else 0.0
            sender_pos0 = msg.states[0, :2]
            cand_all = index.query_disk(center, cfg.predicted_area_radius + spread)
            if cand_all.size == 0:
                continue
            d_sender_all = np.sqrt(
                np.sum((positions[cand_all] - sender_pos0) ** 2, axis=1)
            )
            cand_all = cand_all[d_sender_all <= comm_radius]
            lost = lost_sets[mi]
            if lost and cand_all.size:
                # recipients that lost this broadcast heard none of its
                # particles and cannot record any of its shares
                keep = np.fromiter(
                    (int(c) not in lost for c in cand_all), dtype=bool, count=cand_all.size
                )
                cand_all = cand_all[keep]
            if cand_all.size == 0:
                continue
            cand_pos_all = positions[cand_all]
            # all of the message's particles against the shared candidate set
            # in one batched selection; the per-particle in-area cut keeps the
            # scalar path's squared-distance compare bitwise (Python ``** 2``
            # on the radius, plain mul-add on the coordinate deltas)
            pdx = cand_pos_all[None, :, 0] - preds[:, 0:1]
            pdy = cand_pos_all[None, :, 1] - preds[:, 1:2]
            in_area_masks = pdx * pdx + pdy * pdy <= cfg.predicted_area_radius**2
            selected = batch_propagate(
                preds,
                msg.weights,
                cand_all,
                cand_pos_all,
                area_radius=cfg.predicted_area_radius,
                record_threshold=cfg.record_threshold,
                max_recorders=cfg.max_recorders,
                keep_masks=in_area_masks,
            )
            for j, (sel, _, rec_shares) in enumerate(selected):
                if sel.size == 0:
                    continue
                rec_ids = cand_all[sel]
                all_recorder_ids.update(rec_ids.tolist())
                vels = batch_implied_velocities(
                    msg.states[j, :2],
                    positions[rec_ids],
                    msg.states[j, 2:],
                    dt,
                    cfg.velocity_mode,
                    cfg.velocity_alpha,
                    track_velocity=self._velocity_estimate,
                )
                for i, (rid, share) in enumerate(
                    zip(rec_ids.tolist(), rec_shares.tolist())
                ):
                    if not self.medium.is_available(rid):
                        continue
                    shares_at.setdefault(rid, []).append((share, vels[i]))

        new_holders: dict[int, _NodeParticles] = {}
        for rid in sorted(shares_at):
            received = shares_at[rid]
            weights = np.array([s[0] for s in received])
            velocities = np.vstack([s[1] for s in received])
            # local thinning: keep the top particles_per_node shares,
            # preserving the node's total weight through the cut
            if weights.size > self.particles_per_node:
                order = np.argsort(weights)[::-1][: self.particles_per_node]
                total_before = weights.sum()
                weights, velocities = weights[order], velocities[order]
                kept = weights.sum()
                if kept > 0:
                    weights = weights * (total_before / kept)
            new_holders[rid] = _NodeParticles(velocities=velocities, weights=weights)

        if not new_holders and any(lost_sets):
            # Graceful degradation: every share was lost to the channel.
            # Prior-weight propagation — surviving holders keep their particle
            # lists for one iteration instead of the track dying in one fade.
            self.stats.degraded_iterations += 1
            new_holders = {
                nid: p for nid, p in self.holders.items() if self.medium.is_available(nid)
            }
        self.holders = new_holders
        self._last_union_count = max(len(all_recorder_ids), 1)
        self.medium.clear_inboxes()

    # ------------------------------------------------------------------

    def _phase_creation(self, state: IterationState) -> None:
        if state.birth:
            return
        state.created = self._create_new_particles(state.detectors)

    def _phase_share(self, state: IterationState) -> None:
        """Step 2: holders that detected broadcast their measurements (N_n D_m)."""
        if state.birth:
            return
        ctx = state.ctx
        k = state.iteration
        sharers = sorted(
            nid
            for nid in self.holders
            if nid in state.detectors and self.medium.is_available(nid)
        )
        batch = self.medium.transmission_batch(k)
        for s in sharers:
            msg = MeasurementMessage(sender=s, iteration=k, value=float(ctx.measurements[s]))
            batch.broadcast(s, msg)
        batch.flush()

    def _phase_likelihood(self, state: IterationState) -> None:
        """Step 3: every holder multiplies its weights by the joint likelihood."""
        if state.birth:
            return
        ctx = state.ctx
        detectors = state.detectors
        positions = self.scenario.deployment.positions
        measurement = self.scenario.measurement
        rows: list[int] = []
        pair_lists: list[list[tuple[int, float]]] = []
        for r in sorted(self.holders):
            if r in state.created:
                self.medium.collect(r)
                continue
            inbox = [m for m in self.medium.collect(r) if isinstance(m, MeasurementMessage)]
            own = [(r, ctx.measurements[r])] if r in detectors else []
            pairs = [(m.sender, m.value) for m in inbox] + own
            if not pairs:
                continue
            rows.append(r)
            pair_lists.append(pairs)
        if rows:
            # one (holders, measurements) log-kernel matrix with the
            # discretization-aware sigma inflation (see core.cdpf); columns
            # key on distinct (sender, value) pairs so delayed stale copies
            # evaluate separately from this iteration's readings
            col_of: dict[tuple[int, float], int] = {}
            for pairs in pair_lists:
                for pair in pairs:
                    if pair not in col_of:
                        col_of[pair] = len(col_of)
            refs = np.vstack(
                [measurement.reference_point(positions[s]) for s, _ in col_of]
            )
            zs = np.array([z for _, z in col_of], dtype=np.float64)
            lam_denom = np.pi * self.scenario.radio.comm_radius**2
            lam = np.array(
                [(self.neighbors.degree(r) + 1) / lam_denom for r in rows]
            )
            matrix = batch_likelihood(
                positions[rows], lam, refs, zs, measurement.noise_std
            )
            for i, (r, pairs) in enumerate(zip(rows, pair_lists)):
                cols = [col_of[pair] for pair in pairs]
                # tempered fusion — same rationale as CDPF (see core.cdpf)
                log_lik = float(matrix[i, cols].mean())
                p = self.holders[r]
                p.weights = p.weights * float(np.exp(log_lik))
        self.medium.clear_inboxes()

    # ------------------------------------------------------------------

    def _phase_aggregation(self, state: IterationState) -> None:
        """Step 4: three-way transceiver handshake (query, reports, total)."""
        k = state.iteration

        # (a) transceiver query broadcast (1 global message)
        self.medium.global_broadcast(
            QueryMessage(sender=self.transceiver_id, iteration=k), k
        )
        # (b) every holder reports its weights (N_s * D_w bytes, one msg each);
        #     the transceiver is simulated by the harness, so the reports are
        #     charged out of band rather than delivered to a field inbox.
        reported: list[tuple[int, np.ndarray]] = []
        batch = self.medium.transmission_batch(k)
        for nid in sorted(self.holders):
            p = self.holders[nid]
            report = WeightReportMessage(sender=nid, iteration=k, weights=p.weights)
            batch.charge_out_of_band(
                report.category, report.size_bytes(self.medium.sizes), 1
            )
            reported.append((nid, p.weights))
        batch.flush()
        total = float(sum(w.sum() for _, w in reported))
        # (c) transceiver broadcasts the total (1 global message)
        self.medium.global_broadcast(
            TotalWeightMessage(sender=self.transceiver_id, iteration=k, total_weight=max(total, 0.0)),
            k,
        )
        self.medium.clear_inboxes()
        state.reported = reported
        state.total = total

    def _phase_resample(self, state: IterationState) -> None:
        """Step 5: normalize by the total; a holder drops out when its share
        falls below drop_threshold times the average per-node share
        (scale-free, so a freshly initialized population of equal-weight
        holders always survives)."""
        total = state.total
        if total > 0 and self.holders:
            threshold = self.config.drop_threshold / len(self.holders)
            for nid in list(self.holders):
                p = self.holders[nid]
                p.weights = p.weights / total
                if p.weights.sum() < threshold:
                    del self.holders[nid]

    def _phase_estimation(self, state: IterationState) -> None:
        """Step 6: the transceiver computes the global (current-iteration) estimate."""
        self.stats.record_population(len(self.holders), len(state.created))
        reported = state.reported
        if not reported:
            return  # estimate stays unavailable this iteration
        k = state.iteration
        positions = self.scenario.deployment.positions
        # transceiver-side estimate: weights + static (a-priori known) host positions
        ids = [nid for nid, _ in reported]
        w_sums = np.array([float(w.sum()) for _, w in reported])
        w_total = float(w_sums.sum())
        if w_total > 0:
            est = (w_sums / w_total) @ positions[ids]
        else:
            est = positions[ids].mean(axis=0)
        # velocity estimate for new-particle seeding: finite difference of
        # successive global estimates (the transceiver never sees velocities)
        if self._estimate is not None and self._estimate_iter == k - 1:
            self._velocity_estimate = (est - self._estimate) / self.scenario.dynamics.dt
        self._estimate = est
        self._estimate_iter = k
        state.estimate = self._estimate

    # convenience for tests -------------------------------------------------

    @property
    def holder_ids(self) -> list[int]:
        return sorted(self.holders)
