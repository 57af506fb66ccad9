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
from .data import SECONDS_PER_DAY, CheckIn, Dataset
from .net import WindowNet

EARTH_RADIUS_KM = 6371.0

#: Cuts scored together by ``UserNet.score_rows_at_cuts``, and windows whose
#: recall weights ``UserNet._recall`` computes together: the block bounds the
#: size of their temporaries.
CUT_BLOCK = 128


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
    """
    dt = np.asarray(delta_t_days, dtype=np.float64)
    dd = np.asarray(delta_d_km, dtype=np.float64)
    w = 0.5 * (1.0 + np.cos(2.0 * np.pi * dt)) * np.exp(-alpha * dt) * np.exp(-beta * dd)
    if w.ndim == 0:
        return float(w)
    return w


class UserNet(WindowNet):
    """Scores the next place for each user from their check-in trajectory."""

    target_field = "poi"
    step_inputs = (("poi", "poi_embeddings"),)
    context_input = ("user", "user_embeddings")
    window_pool = "user_windows"
    description = "next-place network"

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

    def _recall_matrix(self, ts_days: np.ndarray, lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
        """Normalized recall weights over past steps.

        Inputs are (..., K) arrays; output (..., K, K) is lower-triangular with
        row t giving the weight of each step j <= t as seen from step t,
        normalized to sum to 1.
        """
        dt = ts_days[..., :, None] - ts_days[..., None, :]
        dd = _haversine_arrays(lat[..., :, None], lon[..., :, None],
                               lat[..., None, :], lon[..., None, :])
        mask = np.tril(np.ones((ts_days.shape[-1], ts_days.shape[-1])))
        w = decay_weight(np.maximum(dt, 0.0), dd, self.alpha, self.beta) * mask
        return w / w.sum(axis=-1, keepdims=True)

    def _recall(self, column) -> np.ndarray:
        # Padded steps get zero times and coordinates: finite weights that
        # reach only padded rows, which the loss masks out.
        ts, lat, lon = column("t") / SECONDS_PER_DAY, column("lat"), column("lon")
        return np.concatenate([self._recall_matrix(ts[s:s + CUT_BLOCK], lat[s:s + CUT_BLOCK],
                                                   lon[s:s + CUT_BLOCK])
                               for s in range(0, len(ts), CUT_BLOCK)])

    # -- prediction ----------------------------------------------------------

    def _hidden_states(self, events: list[CheckIn]) -> np.ndarray:
        """Plain-array recurrence over a full event sequence: (len, dim)."""
        h = np.zeros(self.dim)
        out = np.empty((len(events), self.dim))
        w_h, w_x, b = self.w_hidden.values, self.w_input.values, self.b_hidden.values[0]
        emb = self.poi_embeddings.values
        for k, e in enumerate(events):
            h = np.tanh(h @ w_h + emb[e.poi] @ w_x + b)
            out[k] = h
        return out

    def score_rows_at_cuts(self, events: list[CheckIn], user: int,
                           cuts: list[int]) -> np.ndarray:
        """Next-place probability rows after observing a prefix of events.

        Cut c means "the first c events have happened"; the row predicts the
        following one.  Cut 0 (no history) yields a uniform row.  The
        recurrent pass runs once; each cut reweights its prefix of states from
        the viewpoint of the prefix's last event.  Cuts are taken in ascending
        blocks of ``CUT_BLOCK``: one masked, row-normalised weight matrix per
        block, one product against the states and one output product, so
        memory stays O(CUT_BLOCK x events).
        """
        cuts = np.asarray(cuts, dtype=np.int64)
        if cuts.size and (cuts.min() < 0 or cuts.max() > len(events)):
            raise ValueError(f"cuts must lie in [0, {len(events)}]")
        rows = np.full((cuts.size, self.n_pois), 1.0 / self.n_pois)
        order = np.argsort(cuts, kind="stable")
        order = order[cuts[order] > 0]
        if order.size == 0:
            return rows
        states = self._hidden_states(events)
        ts = np.array([e.t for e in events], dtype=np.float64) / SECONDS_PER_DAY
        lat = np.array([e.lat for e in events])
        lon = np.array([e.lon for e in events])
        u_vec = self.user_embeddings.values[user]
        w_out, b_out = self.w_out.values, self.b_out.values[0]
        for start in range(0, order.size, CUT_BLOCK):
            idx = order[start:start + CUT_BLOCK]
            block = cuts[idx]
            width = int(block[-1])
            last = block - 1
            mask = np.arange(width) < block[:, None]
            # Steps after a cut's last event are masked out; zeroing their
            # time offsets keeps the decay finite before the mask applies.
            dt = np.where(mask, ts[last, None] - ts[None, :width], 0.0)
            dd = _haversine_arrays(lat[last, None], lon[last, None],
                                   lat[None, :width], lon[None, :width])
            w = np.where(mask, decay_weight(dt, dd, self.alpha, self.beta), 0.0)
            agg = (w / w.sum(axis=1, keepdims=True)) @ states[:width]
            combined = np.concatenate([agg, np.broadcast_to(u_vec, agg.shape)], axis=1)
            rows[idx] = ad.softmax_rows(combined @ w_out + b_out)
        return rows

    def predict_score_matrix(self, dataset: Dataset, at: str = "train_end") -> np.ndarray:
        """Row-stochastic next-place scores per user, at the end of training history."""
        if at != "train_end":
            raise ValueError("per-test-step rows come from score_rows_at_cuts")
        s_u = np.empty((self.n_users, self.n_pois))
        for u in range(self.n_users):
            events = dataset.train[u]
            s_u[u] = self.score_rows_at_cuts(events, u, [len(events)])[0]
        return s_u
