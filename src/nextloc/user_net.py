"""Next-place network: recurrent trajectory encoder with periodic decay recall.

Instead of predicting from the current recurrent state alone, every past
hidden state is folded back in with a weight that peaks at whole-day temporal
offsets (people repeat daily patterns) and decays with elapsed time and with
geographic distance between the two check-ins.  The aggregated state is
concatenated with a per-user embedding and mapped to a score over all places.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .data import SECONDS_PER_DAY
from .net import WindowNet

EARTH_RADIUS_KM = 6371.0


def _haversine_arrays(lat1, lon1, lat2, lon2):
    """Great-circle distance in km; accepts broadcastable arrays of degrees."""
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = phi2 - phi1
    dlmb = np.radians(lon2) - np.radians(lon1)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlmb / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def haversine_km(a, b) -> float:
    """Distance between two (lat, lon) points in degrees."""
    return float(_haversine_arrays(a[0], a[1], b[0], b[1]))


def decay_weight(delta_t_days, delta_d_km, alpha: float = 0.1, beta: float = 100.0):
    """Recall weight for a past check-in seen from the current one.

    0.5*(1+cos(2*pi*dt)) puts full weight on whole-day offsets and none on
    half-day antiphase; the two exponentials fade weight at alpha per day and
    beta per km.  Returns values in [0, 1], broadcasting over array inputs.
    A rate whose exponent overflows gives the limit, weight 0, silently.
    """
    dt = np.asarray(delta_t_days, dtype=np.float64)
    dd = np.asarray(delta_d_km, dtype=np.float64)
    with np.errstate(over="ignore"):
        w = 0.5 * (1.0 + np.cos(2.0 * np.pi * dt)) * np.exp(-alpha * dt) * np.exp(-beta * dd)
    if w.ndim == 0:
        return float(w)
    return w


class UserNet(WindowNet):
    """Scores the next place for each user from their check-in trajectory."""

    target_field = "poi"
    step_inputs = (("poi", "poi_embeddings"),)
    context_input = ("user", "user_embeddings")
    grouping = "by_user"
    description = "next-place network"
    recall_fields = ("t", "lat", "lon")

    def __init__(self, n_users: int, n_pois: int, dim: int = 10,
                 alpha: float = 0.1, beta: float = 100.0, seed: int = 0):
        self.n_users = n_users
        self.n_pois = n_pois
        self.dim = dim
        self.alpha = float(alpha)
        self.beta = float(beta)
        rng = np.random.default_rng(seed)

        def init(*shape):
            return ad.Tensor(rng.normal(0.0, 0.1, shape), requires_grad=True)

        self.poi_embeddings = init(n_pois, dim)
        self.user_embeddings = init(n_users, dim)
        self.w_hidden = init(dim, dim)
        self.w_input = init(dim, dim)
        self.b_hidden = init(1, dim)
        self.w_out = init(2 * dim, n_pois)
        self.b_out = init(1, n_pois)

    def named_parameters(self) -> dict[str, ad.Tensor]:
        return {
            "poi_embeddings": self.poi_embeddings,
            "user_embeddings": self.user_embeddings,
            "w_hidden": self.w_hidden,
            "w_input": self.w_input,
            "b_hidden": self.b_hidden,
            "w_out": self.w_out,
            "b_out": self.b_out,
        }

    # -- persistence ---------------------------------------------------------

    def _checkpoint_entries(self) -> dict[str, ad.Tensor]:
        # The decay rates are fixed settings, saved beside the parameters.
        named = self.named_parameters()
        named["alpha"] = ad.Tensor(self.alpha)
        named["beta"] = ad.Tensor(self.beta)
        return named

    @classmethod
    def _from_checkpoint(cls, arrays) -> "UserNet":
        n_pois, dim = arrays["poi_embeddings"].shape
        return cls(arrays["user_embeddings"].shape[0], n_pois, dim,
                   alpha=float(arrays["alpha"]), beta=float(arrays["beta"]))

    # -- decay machinery -----------------------------------------------------

    def _recall(self, last: np.ndarray, t: np.ndarray, lat: np.ndarray,
                lon: np.ndarray) -> np.ndarray:
        """Normalised recall weights over past steps, one row per step in ``last``.

        ``t`` (seconds), ``lat`` and ``lon`` are (..., K) arrays of the steps
        and ``last`` (...) holds one step index per row, broadcast against
        their leading axes.  Each row of the (..., K) result weighs every step
        j <= last as seen from step last, sums to 1, and gives later steps 0.
        Training sees each window from every one of its steps (a
        lower-triangular K x K per window), prediction each cut from its last
        step.
        """
        ts = t / SECONDS_PER_DAY

        def at_last(column):
            return np.take_along_axis(column, last[..., None], axis=-1)

        dt = at_last(ts) - ts
        dd = _haversine_arrays(at_last(lat), at_last(lon), lat, lon)
        # Later steps are masked out; clamping their negative time offsets
        # keeps the decay finite before the mask applies.
        w = (decay_weight(np.maximum(dt, 0.0), dd, self.alpha, self.beta)
             * (np.arange(ts.shape[-1]) <= last[..., None]))
        return w / w.sum(axis=-1, keepdims=True)
