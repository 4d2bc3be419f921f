"""Candidate-graph path finding: Viterbi (Alg. 1) plus shortcuts (Alg. 2).

The trellis is deliberately matcher-agnostic: it consumes candidate sets and
a :class:`TrellisScorer` (observation and transition callbacks), so LHMM and
the heuristic HMM baselines — including the STM+S bolt-on of Table III —
share the same path-finding machinery.

Scores follow the paper exactly: the step score is
``W(c_{i-1} -> c_i) = P_T(c_{i-1} -> c_i) * P_O(c_i | x_i)`` (Eq. 13), path
scores are *sums* of step scores (Eq. 14), and unreachable transitions are
assigned a large negative penalty so they are chosen only when no
alternative exists.

Two interchangeable backends implement the forward pass:

* :class:`Trellis` — the reference dict-based implementation, kept as the
  oracle the differential tests (``tests/test_trellis_parity.py``) compare
  against;
* :class:`VectorizedTrellis` — assembles each step's ``W`` as a numpy
  matrix (one batched router/MLP call per layer when the scorer supports
  :class:`BatchTrellisScorer`), runs the forward pass as log-domain
  max-plus updates with integer backpointers, and plans the shortcut
  pass once per trajectory in batched phases.

Both must decode the *same* sequence with the same tie-breaking (first
candidate in set order wins ties) and the same disconnected-lattice restart
behaviour; :func:`make_trellis` selects one by name.  The vectorized layer
kernel — :func:`step_scores` (Eq. 13) and :func:`viterbi_layer` (the
max-plus update) — is also the streaming decoder's
(:class:`~repro.core.online.OnlineLHMM`), one layer per fed point.

Shortcut caveat: Algorithm 2 redirects ``pre[c_{i-1}^u]`` (line 10), which
the paper applies verbatim.  Applied unconditionally it can corrupt the
backtracks of *other* layer-``i`` states routed through ``c_{i-1}^u`` (a
later, weaker shortcut re-pointing the shared predecessor), so we redirect
only when the shortcut also improves ``f[i-1][u]`` — any state backtracking
through ``u`` then follows a predecessor at least as good as the one its
score was computed with.
"""

from __future__ import annotations

import math
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.cellular.trajectory import TrajectoryPoint
from repro.errors import InvalidTrajectoryInput, MatchFailure
from repro.geometry import Point
from repro.network.road_network import RoadNetwork
from repro.network.router import Router, route_block
from repro.network.shortest_path import RouteBlock

UNREACHABLE_SCORE = -1e6

#: Valid ``trellis_impl`` configuration values.
TRELLIS_IMPLS = ("reference", "vectorized")


class TrellisScorer(Protocol):
    """Scoring interface the trellis drives.

    Implementations must be able to score *any* segment at any point index,
    because shortcut construction inserts candidates that were not in the
    original candidate sets.
    """

    def observation(self, index: int, segment_id: int) -> float:
        """``P_O(segment | x_index)`` in ``[0, 1]``."""
        ...

    def transition(self, index: int, prev_segment_id: int, segment_id: int) -> float:
        """``P_T`` for moving between points ``index-1`` and ``index``.

        Return :data:`UNREACHABLE_SCORE` when no route exists.
        """
        ...


@runtime_checkable
class BatchTrellisScorer(Protocol):
    """Optional batched extension of :class:`TrellisScorer`.

    Implementations must return exactly the floats the scalar callbacks
    would — the vectorized backend's bit-parity with the reference depends
    on it (batch the *fetching*, keep the arithmetic identical).

    A scorer may also define ``transition_pairs(keys)``: ``P_T`` for
    arbitrary ``(step, prev, cur)`` keys, across any number of steps,
    aligned with ``keys``.  The shortcut pass then scores the off-lattice
    transitions of every layer it plans in one call, instead of one call
    per pair.  It is optional (not part of the runtime check), and bound
    by the same contract: the floats of one-pair
    :meth:`TrellisScorer.transition` calls.
    """

    def observation_batch(self, index: int, segment_ids: list[int]) -> np.ndarray:
        """``P_O`` for every segment of one point, aligned with the input."""
        ...

    def transition_batch(
        self, index: int, prev_segment_ids: list[int], segment_ids: list[int]
    ) -> np.ndarray:
        """``P_T`` matrix of shape ``(|prev|, |cur|)`` for one step."""
        ...


def step_scores(trans: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """The step-score matrix ``W[j, k] = P_T[j, k] * P_O[k]`` (Eq. 13).

    ``trans`` is one layer's ``(|prev|, |cur|)`` transition matrix and
    ``obs`` the current candidates' observation row.  Unreachable entries
    (``P_T <= UNREACHABLE_SCORE``) stay :data:`UNREACHABLE_SCORE`; every
    other entry is the float the reference :meth:`Trellis._w` computes.
    """
    reachable = trans > UNREACHABLE_SCORE
    return np.where(reachable, trans * obs[np.newaxis, :], UNREACHABLE_SCORE)


def viterbi_layer(
    f_prev: np.ndarray, w: np.ndarray, prev: list[int], cur: list[int]
) -> tuple[dict[int, float], dict[int, int], np.ndarray]:
    """One max-plus Viterbi layer (Alg. 1, Eq. 14): ``f_i(c) = max_j f_{i-1}(j) + W``.

    ``f_prev`` holds the previous layer's scores aligned with ``prev`` and
    ``w`` is :func:`step_scores` for ``prev`` × ``cur``.  Returns
    ``(f, pre, f_array)``: the new scores and backpointers keyed by
    segment in ``cur`` order, and the scores aligned with ``cur`` for the
    next layer.  ``argmax`` keeps the first maximum, which is the
    reference's strictly-greater scan over ``prev`` in order.  A column
    with no finite entry scores ``-inf`` and gets no backpointer, so the
    backtrack restarts from the best previous state there.
    """
    scores = f_prev[:, np.newaxis] + w
    best_rows = scores.argmax(axis=0)
    best = scores[best_rows, np.arange(len(cur))].tolist()
    f: dict[int, float] = {}
    pre: dict[int, int] = {}
    for k, seg in enumerate(cur):
        value = best[k]
        if value > -math.inf:
            f[seg] = value
            pre[seg] = prev[int(best_rows[k])]
        else:
            f[seg] = -math.inf
    return f, pre, np.array([f[seg] for seg in cur], dtype=np.float64)


def closest_segments(
    network: RoadNetwork, block: RouteBlock, positions: Sequence[Point]
) -> list[int]:
    """Alg. 2 line 5 for a block of routes: each route's road closest to its point.

    ``positions`` holds one point per block entry.  One stacked
    :meth:`RoadNetwork.point_segment_distances` pass covers every route's
    segments, each against its own route's point.  Those are the exact
    scalar ``distance_to`` floats, and ties keep the first minimum in route
    order, so each winner is the reference's ``min(route, key=distance_to)``.
    Returns one road per non-empty route, in block order.
    """
    counts = np.diff(block.offsets)
    n = int(block.offsets[-1])
    if n == 0:
        return []
    distances = network.point_segment_distances(
        np.repeat([p.x for p in positions], counts),
        np.repeat([p.y for p in positions], counts),
        block.segment_ids,
    )
    owner = np.repeat(np.arange(len(counts)), counts)
    # Sort by route, then distance, then position in the route: each
    # route's first entry (at its block offset) is its first minimum.
    order = np.lexsort((np.arange(n), distances, owner))
    return block.segment_ids[order[block.offsets[:-1][counts > 0]]].tolist()


class Trellis:
    """One map-matching instance over fixed candidate sets (reference)."""

    def __init__(
        self,
        candidate_sets: list[list[int]],
        scorer: TrellisScorer,
        network: RoadNetwork,
        engine: Router,
        points: list[TrajectoryPoint],
    ) -> None:
        if len(candidate_sets) != len(points):
            raise InvalidTrajectoryInput(
                "one candidate set per trajectory point required"
            )
        if any(not c for c in candidate_sets):
            raise InvalidTrajectoryInput(
                "every point needs at least one candidate road "
                "(a point may lie too far from the network)"
            )
        self.candidate_sets = [list(c) for c in candidate_sets]
        self.scorer = scorer
        self.network = network
        self.engine = engine
        self.points = points
        self._f: list[dict[int, float]] = []
        self._pre: list[dict[int, int]] = []
        self._w_cache: dict[tuple[int, int, int], float] = {}

    # ---------------------------------------------------------------- scoring
    def _w(self, index: int, prev_segment: int, segment: int) -> float:
        """Cached step score ``W`` (Eq. 13)."""
        key = (index, prev_segment, segment)
        cached = self._w_cache.get(key)
        if cached is not None:
            return cached
        trans = self.scorer.transition(index, prev_segment, segment)
        if trans <= UNREACHABLE_SCORE:
            score = UNREACHABLE_SCORE
        else:
            score = trans * self.scorer.observation(index, segment)
        self._w_cache[key] = score
        return score

    # ---------------------------------------------------------------- viterbi
    def _forward(self) -> None:
        """Fill ``f`` and ``pre`` tables (Alg. 1, lines 4–12)."""
        n = len(self.points)
        self._f = [dict() for _ in range(n)]
        self._pre = [dict() for _ in range(n)]
        for seg in self.candidate_sets[0]:
            self._f[0][seg] = self.scorer.observation(0, seg)
        for i in range(1, n):
            for seg in self.candidate_sets[i]:
                best_score = -math.inf
                best_prev: int | None = None
                for prev_seg in self.candidate_sets[i - 1]:
                    score = self._f[i - 1][prev_seg] + self._w(i, prev_seg, seg)
                    if score > best_score:
                        best_score = score
                        best_prev = prev_seg
                self._f[i][seg] = best_score
                if best_prev is not None:
                    self._pre[i][seg] = best_prev

    # -------------------------------------------------------------- shortcuts
    def _closest_route_segment(self, route_segments: tuple[int, ...], index: int) -> int:
        """The route segment closest to point ``index`` (Alg. 2, line 5)."""
        position = self.points[index].position
        return min(
            route_segments,
            key=lambda seg_id: self.network.segments[seg_id].distance_to(position),
        )

    def _apply_shortcuts(self, shortcut_k: int) -> None:
        """Insert skipping edges for every candidate (Alg. 2)."""
        n = len(self.points)
        for i in range(2, n):
            prev_candidates = list(self.candidate_sets[i - 1])
            prev2_candidates = list(self.candidate_sets[i - 2])
            for seg in list(self.candidate_sets[i]):
                # Eq. 20: rank one-hop predecessors by the best two-step score.
                ranked: list[tuple[float, int]] = []
                for j_seg in prev2_candidates:
                    best_two_step = max(
                        (
                            self._w(i - 1, j_seg, l_seg) + self._w(i, l_seg, seg)
                            for l_seg in prev_candidates
                        ),
                        default=-math.inf,
                    )
                    ranked.append((best_two_step, j_seg))
                ranked.sort(reverse=True)
                for _, j_seg in ranked[:shortcut_k]:
                    route = self.engine.route(j_seg, seg)
                    if route is None or len(route.segments) == 0:
                        continue
                    u_seg = self._closest_route_segment(route.segments, i - 1)
                    w_in = self._w(i - 1, j_seg, u_seg)
                    w_out = self._w(i, u_seg, seg)
                    if w_in <= UNREACHABLE_SCORE or w_out <= UNREACHABLE_SCORE:
                        continue
                    shortcut_score = self._f[i - 2][j_seg] + w_in + w_out
                    if shortcut_score > self._f[i][seg]:
                        self._f[i][seg] = shortcut_score
                        self._pre[i][seg] = u_seg
                        # Redirect the shared predecessor only on score
                        # improvement: an unconditional redirect (the paper's
                        # literal line 10) lets a weaker shortcut re-point
                        # ``u``'s backtrack under states whose scores were
                        # computed through a better predecessor.
                        projected = self._f[i - 2][j_seg] + w_in
                        if projected > self._f[i - 1].get(u_seg, -math.inf):
                            self._f[i - 1][u_seg] = projected
                            self._pre[i - 1][u_seg] = j_seg
                        if u_seg not in self.candidate_sets[i - 1]:
                            self.candidate_sets[i - 1].append(u_seg)

    # -------------------------------------------------------------- interface
    def run(self, shortcut_k: int = 0) -> list[int]:
        """Best candidate per point (Alg. 1 with optional Alg. 2 shortcuts)."""
        self._forward()
        if shortcut_k > 0 and len(self.points) >= 3:
            self._apply_shortcuts(shortcut_k)
        return self._backtrack()

    def _backtrack(self) -> list[int]:
        n = len(self.points)
        last_scores = self._f[-1]
        current = max(last_scores, key=last_scores.get)  # type: ignore[arg-type]
        sequence = [current]
        for i in range(n - 1, 0, -1):
            current = self._pre[i].get(current)
            if current is None:
                # Disconnected trellis: restart from the best state at i-1.
                layer = self._f[i - 1]
                current = max(layer, key=layer.get)  # type: ignore[arg-type]
            sequence.append(current)
        sequence.reverse()
        return sequence

    @property
    def best_score(self) -> float:
        """Score of the decoded path (valid after :meth:`run`)."""
        if not self._f:
            raise MatchFailure("run() first")
        return max(self._f[-1].values())


class VectorizedTrellis(Trellis):
    """Log-domain matrix forward pass over batched per-step score matrices.

    Per layer it gathers every ``(prev, cur)`` candidate pair, fetches the
    whole transition matrix in one batched scorer call (one multi-source
    router query / one MLP batch, when the scorer implements
    :class:`BatchTrellisScorer`), and replaces the Python ``|prev|×|cur|``
    loop with a numpy max-plus update and integer backpointers.

    Decoding is bit-identical to :class:`Trellis`: ``W`` entries are the
    same floats, ``argmax`` keeps the reference's first-wins tie-breaking,
    all-unreachable columns leave no backpointer (the disconnected-lattice
    restart), and the shortcut pass (:meth:`_apply_shortcuts`) batches its
    fetching per trajectory but applies shortcuts in the reference's order.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # A runtime Protocol check is slow; the scorer never changes.
        self._batched = isinstance(self.scorer, BatchTrellisScorer)
        self._capture_w = False
        # step index -> (prev seg -> row, cur seg -> col, W matrix), the
        # forward pass's own matrices retained for the shortcut pass.
        self._w_steps: dict[
            int, tuple[dict[int, int], dict[int, int], np.ndarray]
        ] = {}
        # (step, prev seg, seg) -> P_T fetched ahead by the shortcut pass.
        self._prefetched: dict[tuple[int, int, int], float] = {}

    def _w(self, index: int, prev_segment: int, segment: int) -> float:
        """Step score served from the retained forward matrices when possible."""
        key = (index, prev_segment, segment)
        cached = self._w_cache.get(key)
        if cached is not None:
            return cached
        step = self._w_steps.get(index)
        if step is not None:
            prev_pos, cur_pos, w = step
            j = prev_pos.get(prev_segment)
            k = cur_pos.get(segment)
            if j is not None and k is not None:
                return float(w[j, k])
        trans = self._prefetched.get(key)
        if trans is None:
            return super()._w(index, prev_segment, segment)
        # The reference's W (Eq. 13) over the prefetched P_T.
        if trans <= UNREACHABLE_SCORE:
            score = UNREACHABLE_SCORE
        else:
            score = trans * self.scorer.observation(index, segment)
        self._w_cache[key] = score
        return score

    def _prefetch(self, keys: Iterable[tuple[int, int, int]]) -> None:
        """Fetch ``P_T`` for the ``(step, prev, seg)`` keys ``_w`` cannot answer yet.

        One ``transition_pairs`` call for all of them.  A no-op for scorers
        without that hook: ``_w`` then asks their scalar ``transition``
        pair by pair, as the reference does.
        """
        fetch = getattr(self.scorer, "transition_pairs", None)
        if fetch is None:
            return
        fresh = []
        for key in dict.fromkeys(keys):
            index, a, b = key
            prev_pos, cur_pos, _ = self._w_steps[index]
            if not (
                key in self._w_cache
                or key in self._prefetched
                or (a in prev_pos and b in cur_pos)
            ):
                fresh.append(key)
        if fresh:
            values = np.asarray(fetch(fresh), dtype=np.float64).tolist()
            self._prefetched.update(zip(fresh, values))

    # ---------------------------------------------------------------- scoring
    def _observation_batch(self, index: int, segments: list[int]) -> np.ndarray:
        if self._batched:
            return np.asarray(
                self.scorer.observation_batch(index, segments), dtype=np.float64
            )
        return np.array(
            [self.scorer.observation(index, seg) for seg in segments],
            dtype=np.float64,
        )

    def _step_matrix(self, index: int, prev: list[int], cur: list[int]) -> np.ndarray:
        """The step-score matrix ``W[j, k]`` (Eq. 13) for one trellis layer."""
        if self._batched:
            trans = np.asarray(
                self.scorer.transition_batch(index, prev, cur), dtype=np.float64
            )
        else:
            trans = np.array(
                [[self.scorer.transition(index, p, c) for c in cur] for p in prev],
                dtype=np.float64,
            )
        w = step_scores(trans, self._observation_batch(index, cur))
        if self._capture_w:
            # Retain the matrix (plus id -> index maps) for the shortcut
            # pass; entries are the exact floats the scalar ``_w`` yields.
            self._w_steps[index] = (
                {p: j for j, p in enumerate(prev)},
                {c: k for k, c in enumerate(cur)},
                w,
            )
        return w

    # ---------------------------------------------------------------- viterbi
    def _forward(self) -> None:
        """Matrix max-plus forward pass, exactly mirroring the reference."""
        n = len(self.points)
        self._f = [dict() for _ in range(n)]
        self._pre = [dict() for _ in range(n)]
        first = self.candidate_sets[0]
        f_prev = self._observation_batch(0, first)
        self._f[0] = {seg: float(v) for seg, v in zip(first, f_prev)}
        for i in range(1, n):
            prev = self.candidate_sets[i - 1]
            cur = self.candidate_sets[i]
            w = self._step_matrix(i, prev, cur)
            self._f[i], self._pre[i], f_prev = viterbi_layer(f_prev, w, prev, cur)

    # -------------------------------------------------------------- shortcuts
    def _inserted_rows(self, index: int, inserted: list[int]) -> np.ndarray:
        """``W`` rows of step ``index`` for two-hop predecessors the pass inserted.

        Their columns are the forward pass's layer ``index`` candidates.
        A batched scorer fetches the ``P_T`` block with one
        ``transition_batch`` call; ``_w`` then applies Eq. 13 and caches.
        """
        cur = self.candidate_sets[index]
        if self._batched:
            trans = np.asarray(
                self.scorer.transition_batch(index, inserted, cur), dtype=np.float64
            ).tolist()
            self._prefetched.update(
                ((index, j, l), value)
                for j, row in zip(inserted, trans)
                for l, value in zip(cur, row)
            )
        return np.array(
            [[self._w(index, j, l) for l in cur] for j in inserted], dtype=np.float64
        )

    def _plan_shortcuts(
        self, layers: Sequence[int], shortcut_k: int
    ) -> dict[int, list[tuple[int, int, int]]]:
        """Alg. 2's candidate shortcuts ``(j, seg, u)`` for ``layers``, in batched phases.

        1. Rank every candidate's two-hop predecessors (Eq. 20) with one
           broadcast max over the retained ``W`` matrices of steps ``i-1``
           and ``i``.  Two-hop predecessors inserted while processing
           layer ``i-1`` get extra ``W`` rows (:meth:`_inserted_rows`).
        2. Route every layer's top-k ``(j, seg)`` pairs in one
           :func:`~repro.network.router.route_block` call.
        3. Pick each route's road closest to its own point ``i-1``
           (line 5) in one stacked distance pass (:func:`closest_segments`).
        4. Fetch every transition the updates read — ``(j, u)`` at step
           ``i-1`` and ``(u, seg)`` at step ``i`` — in one scorer call.

        A layer's plan reads only the ``W`` matrices and the current
        ``candidate_sets[i-2]``; each layer lists its shortcuts in the
        reference's order.
        """
        chosen: list[tuple[int, int, int]] = []
        for i in layers:
            prev2 = self.candidate_sets[i - 2]
            prev2_pos, _, w1 = self._w_steps[i - 1]
            w2 = self._w_steps[i][2]
            # Roads inserted into layer i-2 follow its forward candidates.
            inserted = prev2[len(prev2_pos) :]
            if inserted:
                w1 = np.vstack([w1, self._inserted_rows(i - 1, inserted)])
            # w1 columns and w2 rows are both indexed by the forward pass's
            # layer i-1 candidates, in the same order, so the two-step score
            # of (j, l, seg) is w1[j, l] + w2[l, seg].
            best_two = np.max(w1[:, :, None] + w2[None, :, :], axis=1)
            # The reference sorts (score, j) tuples in reverse: best score
            # first, ties to the larger road id.
            ids = np.array(prev2, dtype=np.int64)
            order = np.lexsort(
                (-np.broadcast_to(ids[:, None], best_two.shape), -best_two), axis=0
            )
            top = ids[order[:shortcut_k]].T.tolist()
            for seg, predecessors in zip(self.candidate_sets[i], top):
                chosen.extend((i, j, seg) for j in predecessors)
        block = route_block(self.engine, [(j, seg) for _, j, seg in chosen])
        live = np.flatnonzero(np.diff(block.offsets) > 0).tolist()
        closest = closest_segments(
            self.network, block, [self.points[i - 1].position for i, _, _ in chosen]
        )
        plans: dict[int, list[tuple[int, int, int]]] = {i: [] for i in layers}
        for r, u in zip(live, closest):
            i, j, seg = chosen[r]
            plans[i].append((j, seg, u))
        self._prefetch(
            key
            for i, shortcuts in plans.items()
            for j, seg, u in shortcuts
            for key in ((i - 1, j, u), (i, u, seg))
        )
        return plans

    def _apply_shortcuts(self, shortcut_k: int) -> None:
        """Alg. 2, planned once per trajectory, applied in the reference's order.

        :meth:`_plan_shortcuts` plans every layer at once.  A layer's plan
        depends only on the ``W`` matrices and its two-hop set
        ``candidate_sets[i-2]``, which grows only while layer ``i-1`` is
        applied; a layer whose two-hop set grew is planned again, alone,
        just before it is applied.  The updates then only read caches.
        Observations of inserted roads stay scalar and in the reference's
        order, because each new road is scored against its point's pool,
        which grows as roads are inserted.
        """
        n = len(self.points)
        if any(i not in self._w_steps for i in range(1, n)):
            super()._apply_shortcuts(shortcut_k)
            return
        plans = self._plan_shortcuts(range(2, n), shortcut_k)
        for i in range(2, n):
            if len(self.candidate_sets[i - 2]) > len(self._w_steps[i - 1][0]):
                plans.update(self._plan_shortcuts([i], shortcut_k))
            for j_seg, seg, u_seg in plans[i]:
                w_in = self._w(i - 1, j_seg, u_seg)
                w_out = self._w(i, u_seg, seg)
                if w_in <= UNREACHABLE_SCORE or w_out <= UNREACHABLE_SCORE:
                    continue
                shortcut_score = self._f[i - 2][j_seg] + w_in + w_out
                if shortcut_score > self._f[i][seg]:
                    self._f[i][seg] = shortcut_score
                    self._pre[i][seg] = u_seg
                    projected = self._f[i - 2][j_seg] + w_in
                    if projected > self._f[i - 1].get(u_seg, -math.inf):
                        self._f[i - 1][u_seg] = projected
                        self._pre[i - 1][u_seg] = j_seg
                    if u_seg not in self.candidate_sets[i - 1]:
                        self.candidate_sets[i - 1].append(u_seg)

    def run(self, shortcut_k: int = 0) -> list[int]:
        """Best candidate per point (Alg. 1 with optional Alg. 2 shortcuts)."""
        # Retain the step matrices only when the shortcut pass will read
        # them; the plain Viterbi skips that bookkeeping.
        self._capture_w = shortcut_k > 0 and len(self.points) >= 3
        return super().run(shortcut_k)


def make_trellis(
    candidate_sets: list[list[int]],
    scorer: TrellisScorer,
    network: RoadNetwork,
    engine: Router,
    points: list[TrajectoryPoint],
    impl: str = "vectorized",
) -> Trellis:
    """Build the trellis backend named by ``impl``.

    ``"vectorized"`` (the default) runs the batched matrix kernel;
    ``"reference"`` runs the dict-based oracle.  Both decode identical
    sequences — the differential suite enforces it.
    """
    if impl not in TRELLIS_IMPLS:
        raise ValueError(
            f"unknown trellis impl {impl!r}; choose from {list(TRELLIS_IMPLS)}"
        )
    cls = VectorizedTrellis if impl == "vectorized" else Trellis
    return cls(candidate_sets, scorer, network, engine, points)
