"""Online (streaming) LHMM matching with fixed-lag commitment.

The batch matcher (:class:`~repro.core.matcher.LHMM`) needs the whole
trajectory; real deployments (live traffic estimation, the paper's §I
motivation) receive cellular samples one at a time.  :class:`OnlineLHMM`
wraps a *fitted* matcher and decodes incrementally: each arriving point
extends the Viterbi lattice, and once a point falls ``lag`` steps behind
the head, its candidate is committed (fixed-lag smoothing) and streamed
out.  Shortcut optimisation is a whole-path pass and is deliberately not
applied online — that trade-off (latency vs. noisy-point skipping) is the
cost of streaming.
"""

from __future__ import annotations

import numpy as np

from repro.cellular.trajectory import Trajectory, TrajectoryPoint
from repro.core.features import transition_feature_rows
from repro.core.matcher import LHMM
from repro.core.trellis import UNREACHABLE_SCORE, step_scores, viterbi_layer
from repro.errors import InvalidTrajectoryInput
from repro.geometry.cell_index import sorted_unique
# route_pairs stays bound for perfbench/trace.py, which patches it by name.
from repro.network.router import route_block, route_pairs  # noqa: F401
from repro.network.shortest_path import stitch_segments
from repro.nn import Tensor, no_grad


class OnlineLHMM:
    """Streaming decoder over a fitted :class:`LHMM`.

    Args:
        matcher: A fitted LHMM (``fit`` must have been called).
        lag: How many points behind the head a decision is committed.
            Larger lags approach batch accuracy at higher latency.
        context_window: How many recent points feed the attention context
            and road-relevance models.
    """

    def __init__(self, matcher: LHMM, lag: int = 4, context_window: int = 12) -> None:
        matcher._require_fit()
        if lag < 1:
            raise InvalidTrajectoryInput("lag must be >= 1")
        self.matcher = matcher
        self.lag = lag
        self.context_window = max(context_window, lag + 1)
        self._points: list[TrajectoryPoint] = []
        self._layers: list[list[int]] = []
        self._f: list[dict[int, float]] = []
        self._pre: list[dict[int, int]] = []
        self._committed_through = 0  # layers with a fixed candidate
        self._emitted: list[int] = []

    # ------------------------------------------------------------ internals
    def _backtrack_step(self, i: int, current: int) -> int:
        """One backward step; on a disconnected lattice restart from the
        best-scoring state of the previous layer (mirrors the batch
        :meth:`Trellis._backtrack` so fixed-lag and batch decoding agree)."""
        previous = self._pre[i].get(current)
        if previous is None:
            layer = self._f[i - 1]
            previous = max(layer, key=layer.get)  # type: ignore[arg-type]
        return previous

    def _commit_ready_layers(self) -> None:
        """Fix candidates that have fallen ``lag`` behind the head."""
        while len(self._layers) - self._committed_through > self.lag:
            head = self._f[-1]
            current = max(head, key=head.get)  # type: ignore[arg-type]
            for i in range(len(self._layers) - 1, self._committed_through, -1):
                current = self._backtrack_step(i, current)
            layer = self._committed_through
            self._layers[layer] = [current]
            self._emitted.append(current)
            self._committed_through += 1

    # ------------------------------------------------------------- interface
    def add_point(self, point: TrajectoryPoint) -> None:
        """Feed the next cellular sample.

        Each point runs the batch matcher's stages: candidates from
        :meth:`LHMM._candidate_layers`, the step's candidate product routed
        into one :class:`~repro.network.shortest_path.RouteBlock`, ``P_T``
        rows from ``transition_feature_rows``, then the batch trellis's
        kernel (:func:`~repro.core.trellis.step_scores` and
        :func:`~repro.core.trellis.viterbi_layer`).  A point with no
        candidate road raises before the decoder changes.
        """
        matcher = self.matcher
        # The recent window's towers feed both the attention context and
        # road relevance.
        window = [*self._points[-(self.context_window - 1) :], point]
        nodes = matcher._tower_nodes_for(window)
        towers = Tensor(matcher.node_embeddings[nodes])  # type: ignore[index]
        with no_grad():
            context = matcher.observation_learner.context(towers).numpy()
        (candidates,), (po,) = matcher._candidate_layers([point], context[-1:])
        obs = np.array([po[seg] for seg in candidates], dtype=np.float64)
        self._points.append(point)

        if not self._layers:
            self._layers.append(candidates)
            self._f.append(dict(zip(candidates, obs.tolist())))
            self._pre.append({})
            return

        # Route every (previous candidate -> new candidate) pair into one
        # block, then score road relevance for exactly the roads it touches.
        prev_layer = self._layers[-1]
        block = route_block(
            matcher.engine, [(prev, nxt) for prev in prev_layer for nxt in candidates]
        )
        relevance = touched = None
        if matcher.transition_learner.use_implicit:
            touched = sorted_unique(block.segment_ids)
            relevance = matcher._segment_relevance(towers, touched.tolist())
        straight = self._points[-2].position.distance_to(point.position)
        rows, positions = transition_feature_rows(
            matcher.network, block, straight, relevance=relevance, relevance_ids=touched
        )
        trans = np.full(len(block), UNREACHABLE_SCORE)
        if rows.shape[0]:
            trans[positions] = matcher._transition_probs(rows)
        w = step_scores(trans.reshape(len(prev_layer), len(candidates)), obs)
        f_prev = np.array([self._f[-1][seg] for seg in prev_layer], dtype=np.float64)
        f, pre, _ = viterbi_layer(f_prev, w, prev_layer, candidates)
        self._layers.append(candidates)
        self._f.append(f)
        self._pre.append(pre)
        self._commit_ready_layers()

    @property
    def committed_path(self) -> list[int]:
        """Segments committed so far, stitched into a consecutive path."""
        return stitch_segments(self._emitted, self.matcher.engine)

    def pending_points(self) -> int:
        """Points whose decision is still open (at most ``lag``)."""
        return len(self._layers) - self._committed_through

    def finish(self) -> list[int]:
        """Flush remaining decisions and return the full matched path."""
        if not self._layers:
            return []
        head = self._f[-1]
        current = max(head, key=head.get)  # type: ignore[arg-type]
        tail = [current]
        for i in range(len(self._layers) - 1, self._committed_through, -1):
            current = self._backtrack_step(i, current)
            tail.append(current)
        tail.reverse()
        full_sequence = self._emitted + tail
        return stitch_segments(full_sequence, self.matcher.engine)

    def match_stream(self, trajectory: Trajectory) -> list[int]:
        """Convenience: feed a whole trajectory point by point."""
        for point in trajectory.points:
            self.add_point(point)
        return self.finish()
