"""Next-visitor network: who checks in at a place next.

The dual of the user-side model: each place's visitor sequence is encoded by a
vanilla recurrent cell whose step input combines the visitor's embedding with
learned time-slot and weekday embeddings.  Prediction uses the current hidden
state (no decay recall on this side), concatenated with the place embedding.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .data import Dataset, VisitEvent
from .net import WindowNet


class PoiNet(WindowNet):
    target_field = "user"
    window_pool = "poi_windows"
    description = "next-visitor network"

    def __init__(self, n_users: int, n_pois: int, n_slots: int = 24, dim: int = 10,
                 slot_dim: int = 4, seed: int = 0):
        self.n_users = n_users
        self.n_pois = n_pois
        self.n_slots = n_slots
        self.dim = dim
        self.slot_dim = slot_dim
        rng = np.random.default_rng(seed)

        def init(*shape):
            return ad.Tensor(rng.normal(0.0, 0.1, shape), requires_grad=True)

        self.user_embeddings = init(n_users, dim)
        self.slot_embeddings = init(n_slots, slot_dim)
        self.weekday_embeddings = init(7, slot_dim)
        self.poi_embeddings = init(n_pois, dim)
        self.w_hidden = init(dim, dim)
        self.w_input = init(dim + 2 * slot_dim, dim)
        self.b_hidden = init(1, dim)
        self.w_out = init(2 * dim, n_users)
        self.b_out = init(1, n_users)

    def named_parameters(self) -> dict[str, ad.Tensor]:
        return {
            "user_embeddings": self.user_embeddings,
            "slot_embeddings": self.slot_embeddings,
            "weekday_embeddings": self.weekday_embeddings,
            "poi_embeddings": self.poi_embeddings,
            "w_hidden": self.w_hidden,
            "w_input": self.w_input,
            "b_hidden": self.b_hidden,
            "w_out": self.w_out,
            "b_out": self.b_out,
        }

    @classmethod
    def _from_checkpoint(cls, arrays) -> "PoiNet":
        n_users, dim = arrays["user_embeddings"].shape
        n_slots, slot_dim = arrays["slot_embeddings"].shape
        return cls(n_users, arrays["poi_embeddings"].shape[0], n_slots=n_slots,
                   dim=dim, slot_dim=slot_dim)

    # -- forward -------------------------------------------------------------

    def _step_input(self, events_col: list[VisitEvent], tape) -> ad.Tensor:
        users = np.array([e.user for e in events_col])
        slots = np.array([e.slot for e in events_col])
        days = np.array([e.weekday for e in events_col])
        return ad.concat([
            ad.embedding_lookup(self.user_embeddings, users, tape),
            ad.embedding_lookup(self.slot_embeddings, slots, tape),
            ad.embedding_lookup(self.weekday_embeddings, days, tape),
        ], axis=1, tape=tape)

    def _forward_batch(self, windows: list[list[VisitEvent]], tape: ad.Tape | None) -> ad.Tensor:
        """Stacked next-visitor logits for same-length windows: (K*B, n_users)."""
        bsz = len(windows)
        k_steps = len(windows[0]) - 1
        poi_vecs = ad.embedding_lookup(self.poi_embeddings,
                                       np.array([w[0].poi for w in windows]), tape)
        h = ad.Tensor(np.zeros((bsz, self.dim)))
        step_logits: list[ad.Tensor] = []
        for k in range(k_steps):
            x = self._step_input([w[k] for w in windows], tape)
            pre = ad.add(ad.add(ad.matmul(h, self.w_hidden, tape),
                                ad.matmul(x, self.w_input, tape), tape),
                         self.b_hidden, tape)
            h = ad.tanh(pre, tape)
            combined = ad.concat([h, poi_vecs], axis=1, tape=tape)
            step_logits.append(ad.add(ad.matmul(combined, self.w_out, tape), self.b_out, tape))
        return ad.concat(step_logits, axis=0, tape=tape) if len(step_logits) > 1 else step_logits[0]

    # -- prediction ----------------------------------------------------------

    def score_rows_at_cuts(self, events: list[VisitEvent], poi: int,
                           cuts: list[int]) -> np.ndarray:
        """Next-visitor probability rows after a prefix of a place's history."""
        rows = np.empty((len(cuts), self.n_users))
        w_out, b_out = self.w_out.values, self.b_out.values[0]
        p_vec = self.poi_embeddings.values[poi]
        prev_cut, h = 0, np.zeros(self.dim)
        for i in np.argsort(cuts, kind="stable"):
            cut = cuts[i]
            if cut != prev_cut:
                h = self._continue_hidden(h, events[prev_cut:cut])
                prev_cut = cut
            if cut == 0:
                rows[i] = 1.0 / self.n_users
            else:
                logits = np.concatenate([h, p_vec]) @ w_out + b_out
                rows[i] = ad.softmax_rows(logits[None, :])[0]
        return rows

    def _continue_hidden(self, h: np.ndarray, events: list[VisitEvent]) -> np.ndarray:
        w_h, w_x, b = self.w_hidden.values, self.w_input.values, self.b_hidden.values[0]
        for e in events:
            x = np.concatenate([self.user_embeddings.values[e.user],
                                self.slot_embeddings.values[e.slot],
                                self.weekday_embeddings.values[e.weekday]])
            h = np.tanh(h @ w_h + x @ w_x + b)
        return h

    def predict_score_matrix(self, dataset: Dataset) -> np.ndarray:
        """Row-stochastic next-visitor scores per place after its train history.

        Cold places (no training visits) get uniform rows; the cross-place
        adjustment later blends in rows of similar places for them.
        """
        s_l = np.empty((self.n_pois, self.n_users))
        for p in range(self.n_pois):
            events = dataset.poi_train[p]
            s_l[p] = self.score_rows_at_cuts(events, p, [len(events)])[0]
        return s_l
