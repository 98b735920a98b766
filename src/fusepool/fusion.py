"""Learned combiner: an MLP over stacked per-model confidence vectors.

The input is the concatenation of every member's probability vector, hidden
layers use sigmoid activations, and the output layer applies softmax over
the answer slots; training minimizes cross-entropy. For open-ended tasks
the network is sized for K output slots and episodes with a smaller shared
solution set zero-pad the input and mask the unused slots out of the
softmax, so parameter shapes stay fixed across episodes.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from .answers import (
    assemble_mcq_distributions,
    build_final_solution_set,
    model_distribution,
    parsed_answers,
)
from .corpus import EpisodeRecord

log = logging.getLogger(__name__)

PARAMS_FORMAT_VERSION = 1
HIDDEN = (100, 100)  # the hidden layers' widths


@dataclass
class FusionParameters:
    """Weight stack (W_1, b_1), ..., (W_H, b_H); W_l maps dims[l-1] -> dims[l].
    ``layers`` are views into one float64 vector, ``flat`` (W_1, b_1, W_2, ...)."""

    layers: list[tuple[np.ndarray, np.ndarray]]
    dims: tuple[int, ...]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.layers) != len(self.dims) - 1:
            raise ValueError("layer count does not match dims")
        for l, (w, b) in enumerate(self.layers):
            if w.shape != (self.dims[l + 1], self.dims[l]) or b.shape != (self.dims[l + 1],):
                raise ValueError(f"layer {l}: shape {w.shape} does not chain with dims")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {l}: non-finite entries")
        self.flat = _flatten(self.layers)
        sizes = [n for fan_in, fan_out in zip(self.dims, self.dims[1:])
                 for n in (fan_out * fan_in, fan_out)]
        parts = np.split(self.flat, np.cumsum(sizes)[:-1])
        self.layers = [(w.reshape(b.size, -1), b) for w, b in zip(parts[::2], parts[1::2])]


def _flatten(layers: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """One float64 vector of W_1, b_1, W_2, ...: the ``flat`` layout."""
    return np.concatenate([np.ravel(a) for layer in layers for a in layer], dtype=np.float64)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 1e-3
    batch_size: int = 32
    seed: int = 0
    optimizer: str = "adam"  # adam | sgd
    early_stop_patience: int = 20

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.learning_rate < np.inf:  # NaN fails too
            raise ValueError("learning_rate must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")


def init_params(dims: Sequence[int], seed: int = 0) -> FusionParameters:
    """Xavier-uniform weights, zero biases, deterministic per seed."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"invalid dim chain {dims}")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append((w, np.zeros(fan_out)))
    return FusionParameters(layers=layers, dims=dims)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) is exactly exp(-z) for z >= 0 and exp(z) below, and never overflows.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _as_batch(features: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def _active_array(active, batch: int, out_dim: int) -> np.ndarray:
    if active is None:
        return np.full(batch, out_dim, dtype=np.intp)
    arr = np.broadcast_to(np.asarray(active, dtype=np.intp), (batch,)).copy()
    if np.any(arr < 1) or np.any(arr > out_dim):
        raise ValueError("active slot counts must lie in [1, output dim]")
    return arr


def _forward_pass(
    params: FusionParameters, x: np.ndarray, active: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    activations = [x]
    a = x
    for w, b in params.layers[:-1]:
        a = _sigmoid(a @ w.T + b)
        activations.append(a)
    w, b = params.layers[-1]
    z = a @ w.T + b
    slot = np.arange(params.dims[-1])[None, :]
    live = slot < active[:, None]
    z = np.where(live, z, -np.inf)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    return probs, activations


def _cross_entropy(probs: np.ndarray, targets: np.ndarray) -> float:
    return float(-np.log(probs[np.arange(len(targets)), targets]).mean())


def forward(params: FusionParameters, features, active=None) -> np.ndarray:
    """Output probability vector(s); rows sum to 1 over the active slots."""
    x, single = _as_batch(features)
    if x.shape[1] != params.dims[0]:
        raise ValueError(f"feature length {x.shape[1]} != input dim {params.dims[0]}")
    act = _active_array(active, x.shape[0], params.dims[-1])
    probs, _ = _forward_pass(params, x, act)
    return probs[0] if single else probs


def _checked_rows(params: FusionParameters, features, targets, active) -> tuple[np.ndarray, ...]:
    """The (features, targets, active) arrays ``_loss_and_grad`` takes
    unchecked: one batch size, each target an active slot."""
    x, _ = _as_batch(features)
    y = np.atleast_1d(np.asarray(targets, dtype=np.intp))
    if x.shape[0] != y.shape[0]:
        raise ValueError("features and targets disagree on batch size")
    act = _active_array(active, x.shape[0], params.dims[-1])
    if np.any(y < 0) or np.any(y >= act):
        raise ValueError("target index outside the active slots")
    return x, y, act


def loss_and_grad(
    params: FusionParameters, features, targets, active=None
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean cross-entropy over the batch and its gradient for every parameter."""
    return _loss_and_grad(params, *_checked_rows(params, features, targets, active))


def _loss_and_grad(params: FusionParameters, x, y, act) -> tuple[float, list]:
    probs, activations = _forward_pass(params, x, act)
    batch = x.shape[0]
    loss = _cross_entropy(probs, y)

    delta = probs.copy()
    delta[np.arange(batch), y] -= 1.0
    delta /= batch
    grads: list[tuple[np.ndarray, np.ndarray]] = []
    for l in range(len(params.layers) - 1, -1, -1):
        a_prev = activations[l]
        grads.append((delta.T @ a_prev, delta.sum(axis=0)))
        if l > 0:
            w, _ = params.layers[l]
            da = delta @ w
            delta = da * a_prev * (1.0 - a_prev)
    grads.reverse()
    return loss, grads


class _Adam:
    def __init__(self, params: FusionParameters, lr: float) -> None:
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)

    def step(self, params: FusionParameters, grad: np.ndarray) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        self.m *= self.beta1
        self.m += (1 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1 - self.beta2) * grad * grad
        params.flat -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + self.eps)


class _Sgd:
    def __init__(self, params: FusionParameters, lr: float) -> None:
        self.lr = lr

    def step(self, params: FusionParameters, grad: np.ndarray) -> None:
        params.flat -= self.lr * grad


@dataclass
class FusionData:
    """One split's fusion rows: one per usable episode, in record order.

    A row stacks the members' probability vectors in member order, each
    zero-padded to ``slots`` (m for MCQ, K for OEQ, the net's output width);
    ``active`` is its live slot count, ``targets`` the gold answer's slot (-1
    when the gold fell outside the shared solution set) and ``slot_answers``
    the answers its slots stand for: the choice indices for MCQ, the solution
    set for OEQ.
    """

    features: np.ndarray
    targets: np.ndarray
    active: np.ndarray
    episode_ids: list[str]
    slots: int
    slot_answers: list[Sequence] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.episode_ids)

    def subset(self, idx: np.ndarray) -> "FusionData":
        return FusionData(
            features=self.features[idx],
            targets=self.targets[idx],
            active=self.active[idx],
            episode_ids=[self.episode_ids[i] for i in idx],
            slots=self.slots,
            slot_answers=[self.slot_answers[i] for i in idx],
        )


def _mean_loss(params: FusionParameters, data: FusionData) -> float:
    return _cross_entropy(forward(params, data.features, data.active), data.targets)


# A diverging step overflows or takes log(0); the held-out check below turns
# that into an error, so numpy need not warn first. Set once per call, not per step.
@np.errstate(all="ignore")
def train(
    train_data: FusionData, val_data: FusionData | None, config: TrainConfig = TrainConfig()
) -> FusionParameters:
    """Minibatch training of a (row width, ``HIDDEN``, ``slots``) net; returns
    the parameters with the best validation loss.

    With no validation examples the training loss is tracked instead. A
    held-out loss that is not finite means training diverged, and raises.
    """
    if len(train_data) == 0:
        raise ValueError("training set is empty")
    params = init_params((train_data.features.shape[1], *HIDDEN, train_data.slots),
                         seed=config.seed)
    opt = _Adam(params, config.learning_rate) if config.optimizer == "adam" else _Sgd(
        params, config.learning_rate
    )
    rows = _checked_rows(params, train_data.features, train_data.targets, train_data.active)
    held_out = val_data if val_data is not None and len(val_data) > 0 else train_data
    best = params.flat.copy()
    best_loss = _mean_loss(params, held_out)
    since_best = 0
    rng = np.random.default_rng(config.seed)
    n = len(train_data)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            _, grads = _loss_and_grad(params, *(a[idx] for a in rows))
            opt.step(params, _flatten(grads))
        val_loss = _mean_loss(params, held_out)
        if not np.isfinite(val_loss):
            raise ValueError(
                f"training diverged at epoch {epoch + 1}: held-out loss is {val_loss}; "
                "lower the learning rate"
            )
        if val_loss < best_loss:
            best_loss = val_loss
            best = params.flat.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.early_stop_patience:
                log.info("early stop at epoch %d (best held-out loss %.6f)", epoch + 1, best_loss)
                break
    params.flat[:] = best
    return params


def build_fusion_table(
    records: Sequence[EpisodeRecord], members: list[str], k: int
) -> tuple[FusionData, list[str]]:
    """The fusion rows of the usable episodes, plus the ids of the others.

    An MCQ row stacks ``assemble_mcq_distributions``; an OEQ row stacks each
    member's ``model_distribution`` over the episode's shared solution set.
    Both count the members' ``parsed_answers`` over K, the reading that
    ``model_prediction`` votes from; a provided MCQ vector passes through.
    An episode is unusable when a member has neither probabilities nor passes
    (MCQ) or when no member parsed an answer (OEQ). A member with more passes
    than K is an error: its frequencies over K would sum past 1.
    """
    rows, targets, active, ids, slot_answers, unusable = [], [], [], [], [], []
    slots = 0  # no records, no slots
    for rec in records:
        for m in members:
            n_passes = len(rec.passes.get(m, ()))
            if n_passes > k:
                raise ValueError(f"record {rec.id}: model {m} has {n_passes} passes, "
                                 f"more than --k-passes {k}")
        if rec.task.is_mcq:
            dists = assemble_mcq_distributions(rec, members, k)
            blocks = None if dists is None else [d.probs for d in dists]
            slots = rec.task.num_choices
            target, answers = rec.ground_truth, range(slots)
        elif rec.task.kind == "oeq":
            slots = k
            per_model = {m: parsed_answers(rec, m) for m in members}
            final = build_final_solution_set(per_model, k)
            pad = [0.0] * (k - len(final))
            blocks = [model_distribution(per_model[m], final, k, model_id=m).probs + pad
                      for m in members] if len(final) else None
            slot = final.index_of(rec.ground_truth)
            target, answers = -1 if slot is None else slot, final.answers
        else:
            raise ValueError("the weighted combiner applies to mcq and oeq tasks only")
        if blocks is None:
            unusable.append(rec.id)
            continue
        rows.append(np.concatenate(blocks))
        targets.append(target)
        active.append(len(answers))
        ids.append(rec.id)
        slot_answers.append(answers)
    table = FusionData(
        features=np.array(rows, dtype=np.float64).reshape(len(rows), len(members) * slots),
        targets=np.array(targets, dtype=np.intp),
        active=np.array(active, dtype=np.intp),
        episode_ids=ids,
        slots=slots,
        slot_answers=slot_answers,
    )
    return table, unusable


def build_training_data(
    table: FusionData, unusable: list[str]
) -> tuple[FusionData, list[str]]:
    """A fusion table (``build_fusion_table``'s result) without the rows that
    have no target slot, plus the ids of the skipped episodes: the unusable
    ones, then those whose gold answer fell outside the shared solution set."""
    has_target = table.targets >= 0
    skipped = unusable + [table.episode_ids[i] for i in np.flatnonzero(~has_target)]
    if skipped:
        log.info("skipped %d of %d episodes while assembling fusion data",
                 len(skipped), len(table) + len(unusable))
    return table.subset(np.flatnonzero(has_target)), skipped


def decode(params: FusionParameters, data: FusionData) -> list:
    """Each row's ensemble answer: the net's most probable active slot, as a
    choice index (MCQ) or the answer that slot stands for (OEQ)."""
    if len(data) == 0:
        return []
    # Inactive slots get probability 0, so the argmax is an active slot.
    slots = np.argmax(forward(params, data.features, data.active), axis=1)
    return [answers[s] for answers, s in zip(data.slot_answers, slots)]


def predict(
    params: FusionParameters, record: EpisodeRecord, members: list[str], k: int
):
    """Ensemble answer for one episode, ``decode``'s one-row case; None is the
    abstain marker for unusable episodes."""
    data, _ = build_fusion_table([record], members, k)
    return decode(params, data)[0] if len(data) else None


def save_params(params: FusionParameters, path: str) -> None:
    payload = {
        "format_version": PARAMS_FORMAT_VERSION,
        "dims": list(params.dims),
        "layers": [
            {"weights": w.tolist(), "bias": b.tolist()} for w, b in params.layers
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_params(path: str) -> FusionParameters:
    """The parameters ``save_params`` wrote; anything else is a ValueError
    that names ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("not a JSON object")
        version = payload.get("format_version")
        if version != PARAMS_FORMAT_VERSION:
            raise ValueError(f"unsupported parameter file version {version!r}")
        layers = [
            (np.asarray(layer["weights"], dtype=np.float64),
             np.asarray(layer["bias"], dtype=np.float64))
            for layer in payload["layers"]
        ]
        return FusionParameters(layers=layers, dims=tuple(payload["dims"]))
    except (KeyError, TypeError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        raise ValueError(f"{path} is not a parameter file that save_params wrote "
                         f"({type(exc).__name__}: {exc})") from None
