"""Attention mechanisms.

:class:`AdditiveAttention` is the paper's Eq. 6 / Eq. 9 form:
``softmax_j( W_v . tanh( W_q q  (+)  W_k k_j ) )`` followed by a weighted sum
of the values, where ``(+)`` is concatenation.  Trajectories are short
(tens of points), so materialising the pairwise score tensor is cheap.

:class:`ScaledDotProductSelfAttention` is the standard single-head form used
by the TransformerMM baseline.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.functional import concat, softmax
from repro.nn.init import xavier_uniform
from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class AdditiveAttention(Module):
    """Additive (concat) attention with learned projections.

    Known defect, kept because changing it moves accuracy and the golden
    corpora: the query does not affect the weights.  ``tanh`` is applied
    to the concatenation ``[W_q q, W_k k]`` elementwise, so the score
    ``w_score . tanh(...)`` splits into ``a(q) + b(k)``, and the softmax
    over keys cancels ``a(q)``.  Every query gets the same weights (five
    random queries agree to ~1e-16), so the Eq. 6 and Eq. 9 contexts are
    the same for every point and every road.

    Args:
        dim: Embedding dimension of queries/keys/values.
        hidden: Width of the projected query/key spaces (defaults to ``dim``).
    """

    def __init__(self, dim: int, hidden: int | None = None,
                 rng: int | np.random.Generator | None = None) -> None:
        super().__init__()
        hidden = hidden or dim
        self.w_query = Linear(dim, hidden, bias=False, rng=rng)
        self.w_key = Linear(dim, hidden, bias=False, rng=rng)
        self.w_score = Parameter(xavier_uniform((2 * hidden, 1), rng))

    def scores(self, queries: Tensor, keys: Tensor) -> Tensor:
        """Unnormalised pairwise scores, shape ``(n_queries, n_keys)``."""
        n = queries.shape[0]
        m = keys.shape[0]
        q_proj = self.w_query(queries)  # (n, h)
        k_proj = self.w_key(keys)  # (m, h)
        h = q_proj.shape[-1]
        ones_m = Tensor(np.ones((1, m, 1)))
        ones_n = Tensor(np.ones((n, 1, 1)))
        q_tiled = q_proj.reshape(n, 1, h) * ones_m  # (n, m, h)
        k_tiled = k_proj.reshape(1, m, h) * ones_n  # (n, m, h)
        merged = concat([q_tiled, k_tiled], axis=-1).tanh()  # (n, m, 2h)
        flat = merged.reshape(n * m, 2 * h) @ self.w_score  # (n*m, 1)
        return flat.reshape(n, m)

    def forward(self, queries: Tensor, keys: Tensor, values: Tensor | None = None) -> Tensor:
        """Context vectors: attention-weighted sums of ``values`` per query.

        ``values`` defaults to ``keys`` (self-attention over a trajectory).
        Returns shape ``(n_queries, dim_values)``.
        """
        if values is None:
            values = keys
        weights = softmax(self.scores(queries, keys), axis=-1)
        return weights @ values

    def attention_weights(self, queries: Tensor, keys: Tensor) -> np.ndarray:
        """Normalised attention matrix as a plain array (for inspection)."""
        return softmax(self.scores(queries, keys), axis=-1).numpy()


class ScaledDotProductSelfAttention(Module):
    """Single-head scaled dot-product self-attention."""

    def __init__(self, dim: int, rng: int | np.random.Generator | None = None) -> None:
        super().__init__()
        self.dim = dim
        self.w_query = Linear(dim, dim, bias=False, rng=rng)
        self.w_key = Linear(dim, dim, bias=False, rng=rng)
        self.w_value = Linear(dim, dim, bias=False, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        """Self-attend over rows of ``x`` (sequence length on axis 0)."""
        q = self.w_query(x)
        k = self.w_key(x)
        v = self.w_value(x)
        scores = (q @ k.transpose()) * (1.0 / math.sqrt(self.dim))
        return softmax(scores, axis=-1) @ v
