"""What the two window networks share: one trainer, one window loss, one loader.

``UserNet`` (next place for a user) and ``PoiNet`` (next visitor for a place)
keep only their recurrent cell, their parameters and their prediction methods.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .data import DataError, Dataset


class WindowNet:
    """Subclasses set ``target_field`` (the event field each step predicts),
    ``window_pool`` (the Dataset attribute of their default training windows)
    and ``description`` (their name in errors), and define ``named_parameters``,
    ``_forward_batch`` (step-major logits for same-length windows, (K*B,
    n_candidates)) and the classmethod ``_from_checkpoint`` (a freshly
    initialised network sized by a checkpoint's arrays)."""

    target_field: str
    window_pool: str
    description: str

    def parameters(self) -> list[ad.Tensor]:
        return list(self.named_parameters().values())

    # -- persistence ---------------------------------------------------------

    def _checkpoint_entries(self) -> dict[str, ad.Tensor]:
        """What a checkpoint holds: the parameters, plus any fixed settings."""
        return self.named_parameters()

    def save(self, path) -> None:
        ad.save_checkpoint(path, self._checkpoint_entries())

    @classmethod
    def load(cls, path):
        """Rebuild a network from ``save``'s file.

        A file of another network kind, or one whose entries differ in shape
        from the network they describe, raises DataError; a broadcastable
        entry is not stretched to fit.
        """
        arrays = ad.load_checkpoint(path)
        wrong_kind = DataError(f"{path}: not a {cls.description} checkpoint "
                               f"(entries {sorted(arrays)})")
        try:
            net = cls._from_checkpoint(arrays)
        except (LookupError, TypeError, ValueError) as exc:  # entries missing or of another rank
            raise wrong_kind from exc
        entries = net._checkpoint_entries()
        if set(arrays) != set(entries):
            raise wrong_kind
        for name, tensor in entries.items():
            if arrays[name].shape != tensor.shape:
                raise DataError(f"{path}: entry {name!r} has shape {arrays[name].shape}, "
                                f"the network it describes needs {tensor.shape}")
        for name, tensor in net.named_parameters().items():
            tensor.values[...] = arrays[name]
        return net

    # -- forward -------------------------------------------------------------

    def forward_window(self, window: list, tape: ad.Tape | None = None) -> ad.Tensor:
        """Logits for each predicted step of one window: (len-1, n_candidates)."""
        if len(window) < 2:
            raise ValueError("window must contain an input step and a target")
        return self._forward_batch([window], tape)

    def window_loss(self, windows: list[list], tape: ad.Tape | None = None) -> ad.Tensor:
        """Mean cross-entropy of each step's next target over same-length windows."""
        logits = self._forward_batch(windows, tape)
        field = self.target_field
        targets = np.array([getattr(w[k + 1], field)
                            for k in range(len(windows[0]) - 1) for w in windows])
        return ad.softmax_cross_entropy(logits, targets, tape)

    # -- training ------------------------------------------------------------

    def train(self, dataset: Dataset, epochs: int, seed: int = 0, lr: float = 1e-3,
              optimizer: str = "adam", batch_size: int | None = None,
              windows: list[list] | None = None) -> list[float]:
        """Fit on the training windows; returns the per-epoch loss log.

        Default is one full-batch step per epoch (windows grouped by length).
        With batch_size set, windows are reshuffled each epoch from the seed.
        """
        pool = list(getattr(dataset, self.window_pool) if windows is None else windows)
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

    def _chunk_loss(self, chunk: list[list], tape: ad.Tape | None) -> ad.Tensor:
        """Mean loss per predicted step: each length group weighted by its rows."""
        groups: dict[int, list[list]] = {}
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
