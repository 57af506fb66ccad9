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

#: Windows whose recall ``WindowNet.pack`` computes together, and (history,
#: cut) pairs that ``WindowNet.score_states`` and ``score_cuts`` score
#: together: the block bounds the size of their temporaries.
CUT_BLOCK = 128
#: Padded cells (histories x steps) of one prediction recurrence: histories
#: run through the cell in groups under this budget, so the padding of their
#: states does not grow with the number of histories run, and ``score_cuts``,
#: which scores each group before it runs the next, holds one group's states.
CELL_BUDGET = 4096


def _padded(events: Events, rows: np.ndarray, lengths: np.ndarray):
    """Runs of the given lengths over ``rows`` of ``events``, padded to the
    longest: the (B, K) mask of real steps, and a function giving a field's
    (B, K) values, zero at padded steps."""
    filled = np.arange(lengths.max()) < lengths[:, None]

    def column(field, dtype=np.intp):
        out = np.zeros(filled.shape, dtype=dtype)
        out[filled] = getattr(events, field)[rows]
        return out

    return filled, column


@dataclasses.dataclass(frozen=True)
class HistoryStates:
    """Histories run through the cell once (``WindowNet.run_histories``),
    ready to be scored at any cut up to ``widths[h]`` (``score_states``).

    History h is row ``slot[h]`` of group ``group[h]`` (-1 if it was not
    run).  ``runs[g]`` holds group g's members' states (B, W, D), padded to
    the widest member, the recall's fields (each (B, W)) and their context
    rows (B, Dc).
    """
    widths: np.ndarray
    group: np.ndarray
    slot: np.ndarray
    runs: list


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
    columns of those fields and one step index per row in ``last`` (...),
    broadcast against the columns' leading axes, the (..., K) weights over K
    steps' states seen from that step.  Without them, each row uses the
    current state alone.  Events reach a network as lists of NamedTuple
    records or as ``dataset.Events`` columns."""

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

    def pack(self, windows) -> ad.WindowBatch:
        """Pad windows of any lengths into one ``autodiff.WindowBatch``.

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
        filled, column = _padded(events, rows, lengths)
        recall = None
        if self.recall_fields:
            # Padded steps get zero fields: finite weights that reach only
            # padded rows, which the loss masks out.  Each window's rows are
            # seen from every one of its steps.
            columns = [column(field, np.float64)[:, None, :-1] for field in self.recall_fields]
            steps = np.arange(filled.shape[1] - 1)[None]
            recall = np.concatenate([self._recall(steps, *(c[s:s + CUT_BLOCK] for c in columns))
                                     for s in range(0, lengths.size, CUT_BLOCK)])
        return ad.WindowBatch(
            steps=tuple(column(field)[:, :-1] for field, _ in self.step_inputs),
            context=column(self.context_input[0])[:, 0],
            targets=column(self.target_field)[:, 1:],
            mask=filled[:, 1:],
            recall=recall)

    def _cell(self) -> tuple[ad.Tensor, ad.Tensor, ad.Tensor]:
        return self.w_hidden, self.w_input, self.b_hidden

    def window_loss(self, windows: list[list] | tuple | ad.WindowBatch,
                    tape: ad.Tape | None = None) -> ad.Tensor:
        """Mean cross-entropy of each step's next target over windows of any
        lengths (as ``pack`` takes them, or a batch from it): one tape node."""
        batch = windows if isinstance(windows, ad.WindowBatch) else self.pack(windows)
        params = self.named_parameters()
        return ad.recurrent_window_loss(batch, [params[name] for _, name in self.step_inputs],
                                        params[self.context_input[1]], self._cell(),
                                        (self.w_out, self.b_out), tape)

    # -- prediction ----------------------------------------------------------

    def _plan(self, histories, owners, cuts):
        """Check (history, cut) pairs against ``histories`` and group the
        histories they read: each history's width (its largest cut), its
        group and slot (-1 if not read), and each group's members."""
        _, _, offsets = histories
        owners = np.asarray(owners, dtype=np.intp)
        cuts = np.asarray(cuts, dtype=np.int64)
        lengths = np.diff(offsets)
        if owners.size and (owners.min() < 0 or owners.max() >= lengths.size):
            raise ValueError(f"history ids must lie in [0, {lengths.size})")
        bad = np.flatnonzero((cuts < 0) | (cuts > lengths[owners]))
        if bad.size:
            raise ValueError(f"cuts must lie in [0, {lengths[owners[bad[0]]]}]")
        width = np.zeros(lengths.size, dtype=np.int64)
        np.maximum.at(width, owners, cuts)
        read = np.flatnonzero(width)
        read = read[np.argsort(-width[read], kind="stable")]
        bounds = [0]
        while bounds[-1] < read.size:
            fit = max(1, CELL_BUDGET // int(width[read[bounds[-1]]]))
            bounds.append(min(bounds[-1] + fit, read.size))
        group, slot = np.full(lengths.size, -1), np.full(lengths.size, -1)
        members = [read[a:b] for a, b in zip(bounds, bounds[1:])]
        for g, m in enumerate(members):
            group[m], slot[m] = g, np.arange(m.size)
        return width, group, slot, members

    def _run_group(self, histories, contexts, members, width):
        """One group's pass through the cell: its members' states (B, W, D),
        recall fields (each (B, W)) and context rows (B, Dc)."""
        events, rows, offsets = histories
        params = self.named_parameters()
        w = width[members]
        starts = offsets[members] - (np.cumsum(w) - w)
        _, column = _padded(events, rows[np.repeat(starts, w) + np.arange(w.sum())], w)
        inputs = [(params[name], column(field)) for field, name in self.step_inputs]
        contexts = members if contexts is None else np.asarray(contexts)[members]
        return (ad.recurrent_states(inputs, self._cell())[1],
                [column(field, np.float64) for field in self.recall_fields],
                params[self.context_input[1]].values[contexts])

    @np.errstate(over="ignore", invalid="ignore")
    def _score_groups(self, group, slot, owners, cuts, runs) -> np.ndarray:
        """Rows for (history, cut) pairs whose histories lie in ``group`` at
        ``slot``; ``runs(g)`` gives group g's pass, asked for once per group
        in ascending order.  Each group's pairs are scored in ascending-cut
        blocks of ``CUT_BLOCK``.  A block whose rows are not all finite
        (parameters that overflow) raises NumericsError, so numpy's warnings
        on the way are silenced."""
        n_candidates = self.w_out.shape[1]
        out = np.full((cuts.size, n_candidates), 1.0 / n_candidates)
        live = np.flatnonzero(cuts > 0)
        if live.size == 0:
            return out
        # The live pairs by group, then by cut.
        order = live[np.lexsort((cuts[live], group[owners[live]]))]
        groups = group[owners[order]]
        splits = np.flatnonzero(np.diff(groups)) + 1
        for lo, hi in zip(np.r_[0, splits], np.r_[splits, order.size]):
            states, columns, ctx = runs(int(groups[lo]))
            for s in range(lo, hi, CUT_BLOCK):
                idx = order[s:min(s + CUT_BLOCK, hi)]
                at, last = slot[owners[idx]], cuts[idx] - 1
                if self.recall_fields:
                    k = int(last[-1]) + 1
                    recall = self._recall(last, *(c[at, :k] for c in columns))
                    agg = np.einsum("pk,pkd->pd", recall, states[at, :k])
                else:
                    agg = states[at, last]
                _, probs, _ = ad.output_softmax(agg, ctx[at], (self.w_out, self.b_out))
                if not np.isfinite(probs).all():
                    raise ad.NumericsError(f"non-finite scores from the {self.description}")
                out[idx] = probs.T
        return out

    @np.errstate(over="ignore", invalid="ignore")
    def run_histories(self, histories, owners, cuts) -> HistoryStates:
        """Run each history of (history, cut) pairs through the cell once,
        as far as its largest cut, and keep the states ``score_states`` reads.

        ``histories`` is ``(events, rows, offsets)``: history h is the events
        at ``rows[offsets[h]:offsets[h + 1]]`` in order, read with context row
        h.  Pair i asks for the first ``cuts[i]`` events of history
        ``owners[i]``; a history no pair cuts past 0 is not run.  Widest
        first, histories run through the cell in groups whose
        padded cells stay under ``CELL_BUDGET`` (a wider history runs alone).
        Memory: the states and recall fields of every history, each padded
        to the widest in its group, O((D + recall fields) x events read).
        Overflow shows as non-finite rows in ``score_states``, which raises.
        """
        width, group, slot, members = self._plan(histories, owners, cuts)
        return HistoryStates(width, group, slot,
                             [self._run_group(histories, None, m, width) for m in members])

    def score_states(self, run: HistoryStates, owners, cuts) -> np.ndarray:
        """Probability rows of the next target for (history, cut) pairs, from
        the states of ``run_histories``.

        Pair i's row predicts what follows the first ``cuts[i]`` events of
        history ``owners[i]``, from the state after them (aggregated by the
        recall, if any) and the context row; cut 0 (no history) yields a
        uniform row, and a cut past what ``run`` ran raises ValueError.
        Memory: besides the (pairs x candidates) result,
        O(CUT_BLOCK x (width x D + candidates)), width being the longest
        history read.
        """
        owners = np.asarray(owners, dtype=np.intp)
        cuts = np.asarray(cuts, dtype=np.int64)
        bad = np.flatnonzero((cuts < 0) | (cuts > run.widths[owners]))
        if bad.size:
            raise ValueError(f"cuts must lie in [0, {run.widths[owners[bad[0]]]}]")
        return self._score_groups(run.group, run.slot, owners, cuts, run.runs.__getitem__)

    def score_cuts(self, histories, owners, cuts, contexts=None) -> np.ndarray:
        """Rows for (history, cut) pairs, as ``score_states`` of
        ``run_histories`` gives them, but each group of histories is run and
        scored before the next is run.  Memory: besides the result,
        O(CELL_BUDGET x D + CUT_BLOCK x (width x D + candidates)): it does
        not grow with the histories read."""
        width, group, slot, members = self._plan(histories, owners, cuts)
        return self._score_groups(
            group, slot, np.asarray(owners, dtype=np.intp), np.asarray(cuts, dtype=np.int64),
            lambda g: self._run_group(histories, contexts, members[g], width))

    def score_rows_at_cuts(self, events: list | Events, context: int, cuts) -> np.ndarray:
        """``score_cuts`` for one history, ``events``, read with the
        ``context`` row: cut c means "the first c events have happened"."""
        params = self.named_parameters()
        n_contexts = params[self.context_input[1]].shape[0]
        if not 0 <= context < n_contexts:
            raise ValueError(f"context {context} outside [0, {n_contexts})")
        events = Events.of(events)
        cuts = np.asarray(cuts, dtype=np.int64)
        return self.score_cuts((events, np.arange(len(events)), np.array([0, len(events)])),
                               np.zeros(cuts.size, dtype=np.intp), cuts, [context])

    def predict_score_matrix(self, dataset: Dataset) -> np.ndarray:
        """Row-stochastic scores of each context after its whole training
        history, in one ``score_cuts`` call.  A context without one (a cold
        place) gets a uniform row; the cross-side adjustment later blends in
        rows of similar contexts."""
        g = getattr(dataset, self.grouping)
        return self.score_cuts((dataset.events, g.order, g.offsets),
                               np.arange(g.train_counts.size), g.train_counts)

    # -- training ------------------------------------------------------------

    def train(self, dataset: Dataset, epochs: int, seed: int = 0, lr: float = 1e-3,
              optimizer: str = "adam", batch_size: int | None = None) -> list[float]:
        """Fit on the training windows; returns the per-epoch loss log.

        The grouping's windows are packed once.  Default is one full-batch
        step per epoch; with batch_size set, windows are reshuffled each epoch
        from the seed and each batch is one step.  A step is one tape, one
        backward and one optimizer step; ``autodiff.recurrent_window_loss``
        bounds its memory, whatever the batch's size.  The logged loss is the
        mean over the epoch's predicted rows.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size}")
        packed = self.pack(dataset.windows(self.grouping))
        n_windows = packed.context.size
        opt = ad.make_optimizer(optimizer, self.parameters(), lr)
        rng = np.random.default_rng(seed)
        log: list[float] = []
        for _ in range(epochs):
            order = None if batch_size is None else rng.permutation(n_windows)
            size = batch_size or n_windows
            epoch_loss, epoch_rows = 0.0, 0
            for lo in range(0, n_windows, size):
                batch = packed if order is None else packed.take(order[lo:lo + size])
                tape = ad.Tape()
                loss = self.window_loss(batch, tape)
                tape.backward(loss)
                opt.step()
                rows = batch.rows
                epoch_loss += float(loss.values) * rows
                epoch_rows += rows
                # Dropped before the next batch is taken: one copy at a time.
                del batch, tape
            log.append(epoch_loss / epoch_rows)
        return log
