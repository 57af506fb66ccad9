"""What the two window networks share: one trainer, one loader, one forward.

``UserNet`` (next place for a user) and ``PoiNet`` (next visitor for a place)
keep only their declarations (which tables feed a step, which context row,
which fields the recall reads), their parameters and, for the user side, the
recall itself.  Both train through one fused op,
``autodiff.recurrent_window_loss``, and predict through the same cell
(``autodiff.recurrent_states``) and head (``autodiff.output_softmax``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import autodiff as ad
from .dataset import DataError, Dataset, Events

#: Windows whose recall ``WindowNet.pack`` computes together, and cuts that
#: ``WindowNet.score_rows_at_cuts`` scores together: the block bounds the size
#: of their temporaries.
CUT_BLOCK = 128


@dataclasses.dataclass(frozen=True)
class WindowBatch:
    """Windows of mixed lengths padded to K steps (the longest window's).

    Step k of window b reads its inputs at ``steps[i][b, k]`` and predicts
    ``targets[b, k]``; ``mask[b, k]`` marks the real steps, a prefix of each row.
    """
    steps: tuple[np.ndarray, ...]    # (B, K) ids, one array per step table
    context: np.ndarray              # (B,) id of each window's context row
    targets: np.ndarray              # (B, K)
    mask: np.ndarray                 # (B, K) bool
    recall: np.ndarray | None        # (B, K, K) fixed recall weights, or None

    @property
    def rows(self) -> int:
        return int(self.mask.sum())

    def take(self, index) -> "WindowBatch":
        """The windows at ``index``, padded only to the longest of them."""
        mask = self.mask[index]
        k = int(mask.sum(axis=1).max())
        return WindowBatch(
            steps=tuple(s[index, :k] for s in self.steps), context=self.context[index],
            targets=self.targets[index, :k], mask=mask[:, :k],
            recall=None if self.recall is None else self.recall[index, :k, :k])


class WindowNet:
    """Subclasses set ``target_field`` (the event field each step predicts),
    ``step_inputs`` ((event field, parameter name) of each table whose rows
    make up a step's input), ``context_input`` (the same for the row joined to
    every step's state, read from a window's first event), ``grouping`` (the
    Dataset grouping, ``by_user`` or ``by_poi``, whose owners are their
    contexts: it holds each context's training history and their default
    training windows) and ``description`` (their name in errors).  They define
    ``named_parameters`` (``w_hidden``, ``w_input``, ``b_hidden``, ``w_out``
    and ``b_out`` among them) and the classmethod ``_from_checkpoint`` (a
    freshly initialised network sized by a checkpoint's arrays).  To aggregate
    past states, a subclass names the event fields it reads in
    ``recall_fields`` and defines ``_recall(last, *columns)``: from (..., K)
    columns of those fields, the (..., R, K) weights over K steps' states seen
    from each step in ``last`` (R,).  Without them, each row uses the current
    state alone.  Events reach a network as lists of NamedTuple records or as
    ``dataset.Events`` columns."""

    target_field: str
    step_inputs: tuple[tuple[str, str], ...]
    context_input: tuple[str, str]
    grouping: str
    description: str
    recall_fields: tuple[str, ...] = ()

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

    def pack(self, windows) -> WindowBatch:
        """Pad windows of any lengths into one batch of index arrays.

        ``windows`` is a list of event lists, or ``(events, rows, lengths)``
        as ``Dataset.windows`` gives them: Events columns, the rows of every
        window's events in turn, and each window's length.
        """
        if isinstance(windows, tuple):
            events, rows, lengths = windows
        else:
            lengths = np.array([len(w) for w in windows])
            events = Events.of([e for w in windows for e in w])
            rows = np.arange(len(events))
        if lengths.size == 0:
            raise ValueError("no training windows")
        if lengths.min() < 2:
            raise ValueError("window must contain an input step and a target")
        filled = np.arange(lengths.max()) < lengths[:, None]

        def column(field, dtype=np.intp):
            out = np.zeros(filled.shape, dtype=dtype)
            out[filled] = getattr(events, field)[rows]
            return out

        recall = None
        if self.recall_fields:
            # Padded steps get zero fields: finite weights that reach only
            # padded rows, which the loss masks out.
            columns = [column(field, np.float64)[:, :-1] for field in self.recall_fields]
            steps = np.arange(filled.shape[1] - 1)
            recall = np.concatenate([self._recall(steps, *(c[s:s + CUT_BLOCK] for c in columns))
                                     for s in range(0, lengths.size, CUT_BLOCK)])
        return WindowBatch(
            steps=tuple(column(field)[:, :-1] for field, _ in self.step_inputs),
            context=column(self.context_input[0])[:, 0],
            targets=column(self.target_field)[:, 1:],
            mask=filled[:, 1:],
            recall=recall)

    def _cell(self) -> tuple[ad.Tensor, ad.Tensor, ad.Tensor]:
        return self.w_hidden, self.w_input, self.b_hidden

    def _op_inputs(self, batch: WindowBatch) -> dict:
        params = self.named_parameters()
        return {
            "inputs": [(params[name], ids)
                       for (_, name), ids in zip(self.step_inputs, batch.steps)],
            "cell": self._cell(),
            "context": (params[self.context_input[1]], batch.context),
            "head": (self.w_out, self.b_out),
            "mask": batch.mask,
            "recall": batch.recall,
        }

    def window_loss(self, windows: list[list] | tuple | WindowBatch,
                    tape: ad.Tape | None = None) -> ad.Tensor:
        """Mean cross-entropy of each step's next target over windows of any
        lengths (as ``pack`` takes them, or a batch from it): one tape node."""
        batch = windows if isinstance(windows, WindowBatch) else self.pack(windows)
        return ad.recurrent_window_loss(targets=batch.targets, tape=tape,
                                        **self._op_inputs(batch))

    # -- prediction ----------------------------------------------------------

    def score_rows_at_cuts(self, events: list | Events, context: int, cuts) -> np.ndarray:
        """Probability rows of the next target after prefixes of ``events``.

        Cut c means "the first c events have happened"; the row predicts the
        following one from the state after event c (aggregated by the recall,
        if any) and the ``context`` row.  Cut 0 (no history) yields a uniform
        row.  The cell runs once over the whole sequence; cuts are scored in
        ascending blocks of ``CUT_BLOCK``, so memory stays
        O(CUT_BLOCK x events).
        """
        cuts = np.asarray(cuts, dtype=np.int64)
        if cuts.size and (cuts.min() < 0 or cuts.max() > len(events)):
            raise ValueError(f"cuts must lie in [0, {len(events)}]")
        params = self.named_parameters()
        n_contexts = params[self.context_input[1]].shape[0]
        if not 0 <= context < n_contexts:
            raise ValueError(f"context {context} outside [0, {n_contexts})")
        n_candidates = self.w_out.shape[1]
        rows = np.full((cuts.size, n_candidates), 1.0 / n_candidates)
        order = np.argsort(cuts, kind="stable")
        order = order[cuts[order] > 0]
        if order.size == 0:
            return rows
        events = Events.of(events)
        inputs = [(params[name], getattr(events, field).astype(np.intp)[None])
                  for field, name in self.step_inputs]
        recall_columns = [getattr(events, f).astype(np.float64) for f in self.recall_fields]
        states = ad.recurrent_states(inputs, self._cell())[1][0]
        ctx = params[self.context_input[1]].values[context]
        for start in range(0, order.size, CUT_BLOCK):
            idx = order[start:start + CUT_BLOCK]
            last = cuts[idx] - 1
            if self.recall_fields:
                width = int(last[-1]) + 1
                recall = self._recall(last, *(c[:width] for c in recall_columns))
                agg = recall @ states[:width]
            else:
                agg = states[last]
            _, probs, _ = ad.output_softmax(agg, np.broadcast_to(ctx, (idx.size, ctx.size)),
                                            (self.w_out, self.b_out))
            rows[idx] = probs.T
        return rows

    def predict_score_matrix(self, dataset: Dataset) -> np.ndarray:
        """Row-stochastic scores of each context after its whole training
        history.  A context without one (a cold place) gets a uniform row; the
        cross-side adjustment later blends in rows of similar contexts."""
        grouping = getattr(dataset, self.grouping)
        scores = np.empty((grouping.train_counts.size, self.w_out.shape[1]))
        for c in range(len(scores)):
            rows = grouping.history(c)
            scores[c] = self.score_rows_at_cuts(dataset.events.take(rows), c, [rows.size])[0]
        return scores

    # -- training ------------------------------------------------------------

    def train(self, dataset: Dataset, epochs: int, seed: int = 0, lr: float = 1e-3,
              optimizer: str = "adam", batch_size: int | None = None) -> list[float]:
        """Fit on the training windows; returns the per-epoch loss log.

        The grouping's windows are packed once.  Default is one full-batch
        step per epoch; with batch_size set, windows are reshuffled each
        epoch from the seed.  Each step's loss is the mean over its chunk's
        predicted rows.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size}")
        packed = self.pack(dataset.windows(self.grouping))
        n_windows = packed.context.size
        opt = ad.make_optimizer(optimizer, self.parameters(), lr)
        rng = np.random.default_rng(seed)
        log: list[float] = []
        for _ in range(epochs):
            if batch_size is None:
                chunks = [packed]
            else:
                order = rng.permutation(n_windows)
                chunks = (packed.take(order[s:s + batch_size])
                          for s in range(0, n_windows, batch_size))
            epoch_loss = 0.0
            epoch_rows = 0
            for chunk in chunks:
                tape = ad.Tape()
                loss = self.window_loss(chunk, tape)
                tape.backward(loss)
                opt.step()
                rows = chunk.rows
                epoch_loss += float(loss.values) * rows
                epoch_rows += rows
            log.append(epoch_loss / epoch_rows)
        return log
