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

import math

import numpy as np

from repro.cellular.trajectory import Trajectory, TrajectoryPoint
from repro.core.candidates import learned_candidate_pool
from repro.core.features import (
    dense_relevance,
    transition_feature_rows,
    transition_features,
)
from repro.core.matcher import LHMM
from repro.core.trellis import UNREACHABLE_SCORE
from repro.errors import InvalidTrajectoryInput
from repro.network.router import route_pairs
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
    def _context_vector(self) -> np.ndarray:
        """Attention context for the newest point over the recent window."""
        matcher = self.matcher
        window = self._points[-self.context_window :]
        nodes = np.array([matcher._tower_node_for(p) for p in window])
        with no_grad():
            x = Tensor(matcher.node_embeddings[nodes])  # type: ignore[index]
            context = matcher.observation_learner.context(x).numpy()
        return context[-1]

    def _relevance(self, segment_ids: list[int]) -> dict[int, float]:
        matcher = self.matcher
        if not matcher.transition_learner.use_implicit:
            return {}
        window = self._points[-self.context_window :]
        nodes = np.array([matcher._tower_node_for(p) for p in window])
        with no_grad():
            values = matcher._segment_relevance(
                Tensor(matcher.node_embeddings[nodes]),  # type: ignore[index]
                segment_ids,
            )
        return dict(zip(segment_ids, values.tolist()))

    def _transition_for_route(self, relevance, route, prev_point, point) -> float:
        matcher = self.matcher
        if route is None:
            return UNREACHABLE_SCORE
        explicit = transition_features(matcher.network, route, prev_point, point)
        if matcher.transition_learner.use_implicit:
            implicit = float(
                np.mean([relevance.get(s, 0.5) for s in route.segments])
            )
            row = np.concatenate([[implicit], explicit])
        else:
            row = explicit
        with no_grad():
            return float(
                matcher.transition_learner.fusion_mlp(Tensor(row.reshape(1, -1)))
                .reshape(1)
                .sigmoid()
                .numpy()[0]
            )

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

        A point with no candidate road raises before the decoder changes.
        """
        matcher = self.matcher
        cfg = matcher.config
        if cfg.pipeline_impl == "batched":
            # The matcher's per-tower pool cache answers repeat towers in
            # O(1); a miss runs the stacked spatial kernel. Same pool as
            # the scalar builder below, point for point.
            pool = matcher._pool_cache().pool(point)
        else:
            pool = learned_candidate_pool(
                matcher.graph,
                point,
                cfg.candidate_radius_m,
                cfg.candidate_pool,
                include_cooccurrence=cfg.extend_pool_with_cooccurrence,
            )
        self._points.append(point)
        context = self._context_vector()
        scores = matcher._score_observations(point, pool, context)
        order = np.argsort(-scores)
        candidates = [pool[int(j)] for j in order[: cfg.candidate_k]]
        po = {pool[int(j)]: float(scores[int(j)]) for j in order[: cfg.candidate_k]}

        if not self._layers:
            self._layers.append(candidates)
            self._f.append(dict(po))
            self._pre.append({})
            return

        # Route every (previous candidate -> new candidate) pair with one
        # batched multi-source query, then score road relevance for exactly
        # the segments those routes touch.
        prev_layer = self._layers[-1]
        pairs = [(prev, nxt) for prev in prev_layer for nxt in candidates]
        route_list = route_pairs(self.matcher.engine, pairs)
        routes = dict(zip(pairs, route_list))
        touched = sorted(
            {s for route in route_list if route is not None for s in route.segments}
        )
        relevance = self._relevance(touched)

        prev_point = self._points[-2]
        prev_f = self._f[-1]
        if self.matcher.config.trellis_impl == "vectorized":
            new_f, new_pre = self._vectorized_layer(
                relevance, pairs, route_list, prev_point, point, candidates, po
            )
        else:
            new_f = {}
            new_pre = {}
            for seg in candidates:
                best_score = -math.inf
                best_prev = None
                for prev_seg in prev_layer:
                    trans = self._transition_for_route(
                        relevance, routes[(prev_seg, seg)], prev_point, point
                    )
                    w = trans * po[seg] if trans > UNREACHABLE_SCORE else UNREACHABLE_SCORE
                    score = prev_f[prev_seg] + w
                    if score > best_score:
                        best_score = score
                        best_prev = prev_seg
                new_f[seg] = best_score
                if best_prev is not None:
                    new_pre[seg] = best_prev
        self._layers.append(candidates)
        self._f.append(new_f)
        self._pre.append(new_pre)
        self._commit_ready_layers()

    def _vectorized_layer(
        self, relevance, pairs, route_list, prev_point, point, candidates, po
    ) -> tuple[dict[int, float], dict[int, int]]:
        """One streaming Viterbi layer as a batched MLP call + numpy max-plus.

        Feature rows for every reachable pair are stacked into a single
        ``fusion_mlp`` forward (the same stacking the batch matcher's
        scorer performs per step), and the layer update is an ``argmax``
        over the score matrix — first previous candidate wins ties, exactly
        like the scalar scan.
        """
        matcher = self.matcher
        prev_layer = self._layers[-1]
        if matcher.config.pipeline_impl == "batched":
            dense = None
            if matcher.transition_learner.use_implicit:
                dense = dense_relevance(matcher.network, relevance)
            row_matrix, row_positions = transition_feature_rows(
                matcher.network,
                route_list,
                prev_point,
                point,
                relevance_dense=dense,
            )
        else:
            rows: list[np.ndarray] = []
            row_positions = []
            for pos, route in enumerate(route_list):
                if route is None:
                    continue
                explicit = transition_features(
                    matcher.network, route, prev_point, point
                )
                if matcher.transition_learner.use_implicit:
                    implicit = float(
                        np.mean([relevance.get(s, 0.5) for s in route.segments])
                    )
                    rows.append(np.concatenate([[implicit], explicit]))
                else:
                    rows.append(explicit)
                row_positions.append(pos)
            row_matrix = (
                np.stack(rows)
                if rows
                else np.empty((0, 0), dtype=np.float64)
            )
        trans = np.full(len(pairs), UNREACHABLE_SCORE)
        if row_matrix.shape[0]:
            with no_grad():
                probs = (
                    matcher.transition_learner.fusion_mlp(Tensor(row_matrix))
                    .reshape(row_matrix.shape[0])
                    .sigmoid()
                    .numpy()
                )
            trans[row_positions] = probs
        trans = trans.reshape(len(prev_layer), len(candidates))
        po_row = np.array([po[seg] for seg in candidates], dtype=np.float64)
        w = np.where(
            trans > UNREACHABLE_SCORE, trans * po_row[np.newaxis, :], UNREACHABLE_SCORE
        )
        f_prev = np.array([self._f[-1][seg] for seg in prev_layer], dtype=np.float64)
        scores = f_prev[:, np.newaxis] + w
        best_rows = scores.argmax(axis=0)
        best = scores[best_rows, np.arange(len(candidates))]
        new_f: dict[int, float] = {}
        new_pre: dict[int, int] = {}
        for k, seg in enumerate(candidates):
            value = float(best[k])
            new_f[seg] = value if value > -math.inf else -math.inf
            if value > -math.inf:
                new_pre[seg] = prev_layer[int(best_rows[k])]
        return new_f, new_pre

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
