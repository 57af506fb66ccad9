"""Next-visitor network: who checks in at a place next.

The dual of the user-side model: each place's visitor sequence is encoded by a
vanilla recurrent cell whose step input combines the visitor's embedding with
learned time-slot and weekday embeddings.  Prediction uses the current hidden
state (no decay recall on this side), concatenated with the place embedding.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .net import WindowNet


class PoiNet(WindowNet):
    target_field = "user"
    step_inputs = (("user", "user_embeddings"), ("slot", "slot_embeddings"),
                   ("weekday", "weekday_embeddings"))
    context_input = ("poi", "poi_embeddings")
    grouping = "by_poi"
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
