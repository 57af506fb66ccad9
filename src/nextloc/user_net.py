"""Next-place network: recurrent trajectory encoder with periodic decay recall.

Instead of predicting from the current recurrent state alone, every past
hidden state is folded back in with a weight that peaks at whole-day temporal
offsets (people repeat daily patterns) and decays with elapsed time and with
geographic distance between the two check-ins.  The aggregated state is
concatenated with a per-user embedding and mapped to a score over all places.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .data import SECONDS_PER_DAY, CheckIn, Dataset

EARTH_RADIUS_KM = 6371.0

#: Cuts scored together by ``UserNet.score_rows_at_cuts``.
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


class UserNet:
    """Scores the next place for each user from their check-in trajectory."""

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

    def parameters(self) -> list[ad.Tensor]:
        return list(self.named_parameters().values())

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        named = dict(self.named_parameters())
        named["alpha"] = ad.Tensor(self.alpha)
        named["beta"] = ad.Tensor(self.beta)
        ad.save_checkpoint(path, named)

    @classmethod
    def load(cls, path) -> "UserNet":
        arrays = ad.load_checkpoint(path)
        expected = {"poi_embeddings", "user_embeddings", "w_hidden", "w_input",
                    "b_hidden", "w_out", "b_out", "alpha", "beta"}
        if set(arrays) != expected:
            raise ValueError(f"{path}: not a next-place network checkpoint "
                             f"(entries {sorted(arrays)})")
        n_pois, dim = arrays["poi_embeddings"].shape
        n_users = arrays["user_embeddings"].shape[0]
        net = cls(n_users, n_pois, dim,
                  alpha=float(arrays["alpha"]), beta=float(arrays["beta"]))
        for name, tensor in net.named_parameters().items():
            tensor.values[...] = arrays[name]
        return net

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

    # -- forward -------------------------------------------------------------

    def forward_window(self, window: list[CheckIn], tape: ad.Tape | None = None) -> ad.Tensor:
        """Logits for each predicted step of one sub-sequence: (len-1, n_pois)."""
        if len(window) < 2:
            raise ValueError("window must contain an input step and a target")
        return self._forward_batch([window], tape)

    def _forward_batch(self, windows: list[list[CheckIn]], tape: ad.Tape | None) -> ad.Tensor:
        """Stacked logits for same-length windows: (K*B, n_pois), step-major."""
        bsz = len(windows)
        k_steps = len(windows[0]) - 1
        inputs = np.array([[e.poi for e in w[:-1]] for w in windows])      # (B, K)
        users = np.array([w[0].user for w in windows])
        ts = np.array([[e.t for e in w[:-1]] for w in windows], dtype=np.float64)
        lat = np.array([[e.lat for e in w[:-1]] for w in windows])
        lon = np.array([[e.lon for e in w[:-1]] for w in windows])
        recall = self._recall_matrix(ts / SECONDS_PER_DAY, lat, lon)       # (B, K, K)

        user_vecs = ad.embedding_lookup(self.user_embeddings, users, tape)
        h = ad.Tensor(np.zeros((bsz, self.dim)))
        states: list[ad.Tensor] = []
        step_logits: list[ad.Tensor] = []
        for k in range(k_steps):
            x = ad.embedding_lookup(self.poi_embeddings, inputs[:, k], tape)
            pre = ad.add(ad.add(ad.matmul(h, self.w_hidden, tape),
                                ad.matmul(x, self.w_input, tape), tape),
                         self.b_hidden, tape)
            h = ad.tanh(pre, tape)
            states.append(h)
            agg = ad.scale(states[0], recall[:, k, 0][:, None], tape)
            for j in range(1, k + 1):
                agg = ad.add(agg, ad.scale(states[j], recall[:, k, j][:, None], tape), tape)
            combined = ad.concat([agg, user_vecs], axis=1, tape=tape)
            step_logits.append(ad.add(ad.matmul(combined, self.w_out, tape), self.b_out, tape))
        return ad.concat(step_logits, axis=0, tape=tape) if len(step_logits) > 1 else step_logits[0]

    def window_loss(self, windows: list[list[CheckIn]], tape: ad.Tape | None = None) -> ad.Tensor:
        """Mean next-place cross-entropy over same-length windows."""
        logits = self._forward_batch(windows, tape)
        targets = np.array([w[k + 1].poi for k in range(len(windows[0]) - 1) for w in windows])
        return ad.softmax_cross_entropy(logits, targets, tape)

    # -- training ------------------------------------------------------------

    def train(self, dataset: Dataset, epochs: int, seed: int = 0, lr: float = 1e-3,
              optimizer: str = "adam", batch_size: int | None = None,
              windows: list[list[CheckIn]] | None = None) -> list[float]:
        """Fit on the training sub-sequences; returns the per-epoch loss log.

        Default is one full-batch step per epoch (windows grouped by length).
        With batch_size set, windows are reshuffled each epoch from the seed.
        """
        pool = list(dataset.user_windows if windows is None else windows)
        if not pool:
            raise ValueError("no training windows")
        opt = ad.make_optimizer(optimizer, self.parameters(), lr)
        rng = np.random.default_rng(seed)
        log: list[float] = []
        for _ in range(epochs):
            if batch_size is None:
                chunks = [pool]
            else:
                order = rng.permutation(len(pool))
                chunks = [[pool[i] for i in order[s:s + batch_size]]
                          for s in range(0, len(pool), batch_size)]
            epoch_loss = 0.0
            epoch_rows = 0
            for chunk in chunks:
                tape = ad.Tape()
                loss = self._chunk_loss(chunk, tape)
                tape.backward(loss)
                opt.step()
                rows = sum(len(w) - 1 for w in chunk)
                epoch_loss += float(loss.values) * rows
                epoch_rows += rows
            log.append(epoch_loss / epoch_rows)
        return log

    def _chunk_loss(self, chunk: list[list[CheckIn]], tape: ad.Tape | None) -> ad.Tensor:
        groups: dict[int, list[list[CheckIn]]] = {}
        for w in chunk:
            groups.setdefault(len(w), []).append(w)
        total_rows = sum(len(w) - 1 for w in chunk)
        loss = None
        for length in sorted(groups):
            batch = groups[length]
            part = ad.scale(self.window_loss(batch, tape),
                            (length - 1) * len(batch) / total_rows, tape)
            loss = part if loss is None else ad.add(loss, part, tape)
        return loss

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
