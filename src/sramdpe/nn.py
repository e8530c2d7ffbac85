"""Quantized fully-connected inference through the simulated crossbar.

Layers carry signed real weights split into unsigned 4-bit positive/negative
matrices with one scale per layer. Three fidelity modes exist:

* ``IDEAL``: exact quantized arithmetic (the reference).
* ``CROSSBAR``: inputs encoded by ``CONFIG_A_ENCODING``, each 16-row tile
  evaluated as Config-A column currents against an ideal-opamp clamp,
  ADC-quantized per tile and digitally accumulated; positive and negative
  tiles subtract digitally.
* ``CROSSBAR_VARIATION``: additionally injects Gaussian surrogate noise per
  tile conversion, with one counter-based stream per (sample, layer, tile,
  sign): the ids (sample, layer, 2 x tile + sign bit) fill the high words of
  the seed-keyed Philox counter (``variation.stream_normals``). The ``nn``
  verb fits the surrogate by a Config-A Monte Carlo over the input window,
  the drive of the tiles it perturbs.

The clamp pins every RBL, so a tile's group current factorizes exactly into
(unit cell current at each row's voltage) x (integer weight level); the
evaluator exploits that to reduce a tile to two matrix products (ON and OFF
cells) without approximation. ``CrossbarContext`` owns the analog
calibration: the full-scale current that maps tile currents back to weight
levels, measured at one of the ``ANCHORS``. It also keeps a table of every
SL voltage it has solved with that voltage's (ON, OFF) unit cell currents,
so each distinct input voltage is solved once per context: the calibration
anchor and every layer, chunk and mode evaluated with one context read the
same table. Hidden layers clamp their pre-activations to [0, 1].
``train_reference`` is a plain SGD backprop trainer (the same
saturating-linear hidden activation, no biases) for the bundled desk-scale
digit set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .crossbar import CONFIG_A_ENCODING, DEFAULT_V_CLAMP, WEIGHT_LEVELS
from .device import DEFAULT_VDD, DeviceParams, stack_current_arrays
from .errors import InvalidInputError
from .variation import StdVsCurrentFit, stream_normals

MAX_LEVEL = WEIGHT_LEVELS - 1

#: Samples per forward pass in ``infer``. Noise streams are keyed per sample,
#: so the chunk size never changes a result.
INFER_CHUNK = 256

#: Calibration anchors: the input level at which a weight-15 row's current
#: is taken as that input's share of full scale.
ANCHORS = {"center": 0.5, "top": 1.0}

#: Widest converter: every code of a float64 quantizer step stays exact.
MAX_ADC_BITS = 53


def quantize_weights(w):
    """Split a real matrix into (pos, neg, scale) unsigned levels.

    scale = max|w| / 15; pos/neg hold round(|w|/scale) on the
    matching sign, at most one nonzero per element. An all-zero matrix
    returns a zero scale sentinel.
    """
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise InvalidInputError("weights must be finite")
    scale = float(np.max(np.abs(w))) / MAX_LEVEL
    if scale == 0.0:
        z = np.zeros_like(w, dtype=np.int64)
        return z, z.copy(), 0.0
    levels = np.round(np.abs(w) / scale).astype(np.int64)
    pos = np.where(w > 0, levels, 0)
    neg = np.where(w < 0, levels, 0)
    return pos, neg, scale


@dataclass
class QuantizedLayer:
    pos: np.ndarray              # levels (in_dim x out_dim)
    neg: np.ndarray
    scale: float

    @classmethod
    def from_real(cls, w) -> "QuantizedLayer":
        pos, neg, scale = quantize_weights(w)
        return cls(pos=pos, neg=neg, scale=scale)

    @property
    def in_dim(self) -> int:
        return self.pos.shape[0]

    @property
    def out_dim(self) -> int:
        return self.pos.shape[1]


@dataclass
class QuantizedNetwork:
    layers: list[QuantizedLayer]

    @classmethod
    def from_real_weights(cls, weight_list):
        layers = [QuantizedLayer.from_real(w) for w in weight_list]
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise InvalidInputError("layer dimensions do not chain")
        return cls(layers=layers)

    @property
    def topology(self) -> tuple[int, ...]:
        return (self.layers[0].in_dim,) + tuple(l.out_dim for l in self.layers)


class EvalMode(enum.Enum):
    IDEAL = "ideal"
    CROSSBAR = "crossbar"
    CROSSBAR_VARIATION = "crossbar_variation"


@dataclass
class CrossbarContext:
    """Analog evaluation setup shared by all layers of one inference run.

    The context owns the calibration. ``i_max``, the full-scale current of
    one weight-15 row, is measured at construction: the row's current at the
    ``anchor`` input, divided by that input. The "center" anchor (x = 0.5)
    fits the effective conductance at the window midpoint, halving the
    worst-case integral nonlinearity of the concave cell transfer; "top"
    (x = 1) is exact at the highest input and weight level instead.

    The context also holds the unit-cell table behind ``unit_currents``:
    the SL voltages solved so far, sorted, and their (ON, OFF) width-1 cell
    currents. It lives and dies with the context, so one run's modes share
    it and nothing carries over to the next run. A merge replaces the
    (voltages, currents) pair in one assignment, so a thread evaluating
    another mode reads the old table or the new one, never a mix; a merge
    lost to a concurrent one only costs a later re-solve.
    """

    profile: DeviceParams = DeviceParams()
    anchor: str = "center"
    v_dd: float = DEFAULT_VDD
    v_clamp: float = DEFAULT_V_CLAMP
    adc_bits: int = 8
    tile_rows: int = 16
    variation_fit: StdVsCurrentFit | None = None
    variation_seed: int = 0
    i_max: float = field(init=False)
    _table: tuple[np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.anchor not in ANCHORS:
            raise InvalidInputError(
                f"unknown normalization anchor {self.anchor!r}")
        if not 1 <= self.adc_bits <= MAX_ADC_BITS:
            raise InvalidInputError(f"adc_bits must lie in [1, {MAX_ADC_BITS}]"
                                    f", got {self.adc_bits!r}")
        self._table = (np.empty(0), np.empty((2, 0)))
        x0 = ANCHORS[self.anchor]
        i_row, _ = self.unit_currents(CONFIG_A_ENCODING.encode(x0))
        self.i_max = MAX_LEVEL * float(i_row) / x0

    def unit_currents(self, v) -> tuple[np.ndarray, np.ndarray]:
        """(ON, OFF) currents of a width-1 cell at SL voltage ``v`` against
        the clamp, each shaped like ``v``.

        Only voltages missing from the table are solved, both bits in one
        kernel call, and merged in. A stack's solve does not depend on the
        other stacks of its call, so a tabled current is exactly the one a
        direct solve of ``v`` gives.
        """
        v = np.asarray(v, dtype=float)
        levels, where = np.unique(v, return_inverse=True)
        known, currents = self._table
        at = np.searchsorted(known, levels)
        new = at == known.size          # past the end, else not equal
        new[~new] = known[at[~new]] != levels[~new]
        if new.any():
            i, _ = stack_current_arrays(
                self.profile, 1, 0.0, 0.0, np.array([[self.v_dd], [0.0]]),
                self.v_dd, levels[new], self.v_clamp)
            known = np.insert(known, at[new], levels[new])
            currents = np.insert(currents, at[new], i, axis=1)
            self._table = (known, currents)
            at = np.searchsorted(known, levels)
        u = currents[:, at[where]].reshape((2,) + v.shape)
        return u[0], u[1]

    def adc_quantize(self, currents: np.ndarray,
                     rows_in_tile: int) -> np.ndarray:
        """Uniform quantizer over [0, tile I_max], one code per conversion."""
        full = rows_in_tile * self.i_max
        codes = (1 << self.adc_bits) - 1
        step = full / codes
        return np.clip(np.round(currents / step), 0, codes) * step


def _tile_slices(n_rows: int, tile_rows: int):
    return [slice(s, min(s + tile_rows, n_rows))
            for s in range(0, n_rows, tile_rows)]


def evaluate_layer(x, layer: QuantizedLayer, mode: EvalMode,
                   ctx: CrossbarContext | None = None, *,
                   layer_index: int = 0,
                   sample_offset: int = 0) -> np.ndarray:
    """Pre-activations of one layer for a batch of inputs in [0, 1].

    Returns real units (levels times the layer scale), shape (batch,
    out_dim). Only rows are tiled, ``ctx.tile_rows`` per tile: the clamp
    makes word groups independent, so layers wider than a physical array are
    implicitly split across column tiles with no effect on the result.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != layer.in_dim:
        raise InvalidInputError(
            f"input width {x.shape[1]} != layer fan-in {layer.in_dim}"
        )
    if mode is EvalMode.IDEAL:
        return (x @ (layer.pos - layer.neg).astype(float)) * layer.scale

    ctx = ctx if ctx is not None else CrossbarContext()
    v = CONFIG_A_ENCODING.encode(x)
    u_on, u_off = ctx.unit_currents(v)

    noisy = mode is EvalMode.CROSSBAR_VARIATION
    if noisy and ctx.variation_fit is None:
        raise InvalidInputError("variation mode needs a std-vs-current fit")

    acc = np.zeros((x.shape[0], layer.out_dim))
    tiles = _tile_slices(layer.in_dim, ctx.tile_rows)
    for t_idx, rows in enumerate(tiles):
        for sign, mat in ((+1.0, layer.pos), (-1.0, layer.neg)):
            lv = mat[rows].astype(float)
            i_tile = u_on[:, rows] @ lv + u_off[:, rows] @ (MAX_LEVEL - lv)
            if noisy:
                i_tile = _add_tile_noise(
                    i_tile, ctx, layer_index, t_idx, sign, sample_offset
                )
            acc += sign * ctx.adc_quantize(i_tile, rows.stop - rows.start)
    y_norm = acc / ctx.i_max
    return y_norm * MAX_LEVEL * layer.scale


def _add_tile_noise(i_tile: np.ndarray, ctx: CrossbarContext,
                    layer_index: int, tile_index: int, sign: float,
                    sample_offset: int) -> np.ndarray:
    batch = i_tile.shape[0]
    keys = np.column_stack([
        sample_offset + np.arange(batch),
        np.broadcast_to([layer_index, 2 * tile_index + (sign < 0)],
                        (batch, 2)),
    ])
    z = stream_normals(ctx.variation_seed, keys, i_tile.shape[1])
    return np.maximum(i_tile + z * ctx.variation_fit(i_tile), 0.0)


def forward(x, network: QuantizedNetwork, mode: EvalMode,
            ctx: CrossbarContext | None = None,
            sample_offset: int = 0) -> np.ndarray:
    """Network output pre-activations (before the final argmax)."""
    h = np.atleast_2d(np.asarray(x, dtype=float))
    last = len(network.layers) - 1
    for li, layer in enumerate(network.layers):
        z = evaluate_layer(h, layer, mode, ctx, layer_index=li,
                           sample_offset=sample_offset)
        h = np.clip(z, 0.0, 1.0) if li < last else z
    return h


def infer(features, labels, network: QuantizedNetwork, mode: EvalMode,
          ctx: CrossbarContext | None = None) -> float:
    """Classification accuracy of argmax over the network outputs."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    labels = np.asarray(labels)
    if features.shape[0] != labels.shape[0]:
        raise InvalidInputError("features and labels must pair up")
    if features.shape[1] != network.topology[0]:
        raise InvalidInputError("feature width does not match the network")
    hits = 0
    for start in range(0, features.shape[0], INFER_CHUNK):
        batch = features[start:start + INFER_CHUNK]
        out = forward(batch, network, mode, ctx, sample_offset=start)
        hits += int(np.sum(np.argmax(out, axis=1)
                           == labels[start:start + INFER_CHUNK]))
    return hits / features.shape[0]


# ---------------------------------------------------------------------------
# Reference trainer (plain SGD backprop, satlin hidden activation, no biases).


def _one_hot(y, n_classes):
    out = np.zeros((len(y), n_classes))
    out[np.arange(len(y)), y] = 1.0
    return out


def loss_and_grads(weights, x, y_onehot):
    """Mean squared error over the batch and its weight gradients."""
    w1, w2 = weights
    z1 = x @ w1
    h = np.minimum(np.maximum(z1, 0.0), 1.0)
    z2 = h @ w2
    err = z2 - y_onehot
    n = x.shape[0]
    loss = 0.5 * float(np.add.reduce(np.add.reduce(err * err, axis=1)) / n)
    d2 = err / n
    gw2 = h.T @ d2
    dh = d2 @ w2.T
    d1 = dh * ((z1 > 0.0) & (z1 < 1.0))
    gw1 = x.T @ d1
    return loss, [gw1, gw2]


def train_reference(train_x, train_y, topology=(64, 32, 10), *,
                    epochs: int = 150, lr: float = 0.5, batch_size: int = 32,
                    seed: int = 0):
    """Train real weight matrices; deterministic per seed.

    Returns (weights, epoch_losses). Non-convergence is not an error: the
    final loss history tells the story.
    """
    m, hidden, p = topology
    train_x = np.asarray(train_x, dtype=float)
    y_onehot = _one_hot(np.asarray(train_y), p)
    if train_x.shape[1] != m:
        raise InvalidInputError("training features do not match topology")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 4242)))
    w1 = rng.normal(0.0, 1.0 / np.sqrt(m), (m, hidden))
    w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), (hidden, p))
    weights = [w1, w2]
    losses = []
    n = train_x.shape[0]
    # Each epoch's shuffled copy of the set; batches are slices of it.
    x_epoch, y_epoch = np.empty(train_x.shape), np.empty(y_onehot.shape)
    for _ in range(epochs):
        order = rng.permutation(n)
        np.take(train_x, order, axis=0, out=x_epoch)
        np.take(y_onehot, order, axis=0, out=y_epoch)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            x = x_epoch[start:start + batch_size]
            loss, grads = loss_and_grads(weights, x,
                                         y_epoch[start:start + batch_size])
            epoch_loss += loss * x.shape[0]
            for w, g in zip(weights, grads):
                w -= lr * g
        losses.append(epoch_loss / n)
    return weights, losses
