"""Reference implementations the tests compare the package against.

None of this runs in the package itself:

* the scalar read-stack API (``mosfet_current``, ``signed_current``,
  ``ReadStack``, ``stack_current``), one device or one stack at a time, and
  ``stack_mismatch``, the two device currents' disagreement at a solved
  internal node;
* the dense Newton oracle (``dense_oracle_solve``), which drives the
  package's own Newton loop with dense elimination in place of the sparse
  solve;
* the exact dot product, the inverse of ``pack_weights``, a dataset CSV
  writer and the energy-share helper;
* the per-image digit generator (``generate_digits_per_image``) and the
  per-batch SGD trainer (``train_reference_per_batch``), the loops that
  ``generate_digits`` and ``train_reference`` compute in bulk.

Test modules import it as ``from oracles import ...``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from sramdpe.crossbar import _SHIFTS, WEIGHT_BITS, PackedCells, WeightMatrix
from sramdpe.dataset import N_CLASSES, DigitDataset, _prototype, _shift
from sramdpe.device import (
    DEFAULT_VDD,
    DeviceParams,
    _ids,
    stack_current_arrays,
)
from sramdpe.energy import EnergyReport
from sramdpe.errors import InvalidInputError, SolverError, TopologyError
from sramdpe.network import Network, OperatingPointSolution, _newton_solve
from sramdpe.nn import _one_hot

# The stack solve stops on the internal-node bracket; the current mismatch
# tolerance is verified afterwards, not used as the stop rule, so that
# power-of-two width scaling replays the identical root-finder iterates.
STACK_CURRENT_TOL = 1e-12
DENSE_NODE_CAP = 1000


def mosfet_current(p: DeviceParams, vgs, vds):
    """Drain current of a single device; vgs/vds may be arrays.

    The caller orients the source at the lower-potential terminal, so vds >= 0.
    """
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    if not (np.all(np.isfinite(vgs)) and np.all(np.isfinite(vds))):
        raise InvalidInputError("non-finite terminal voltage")
    if np.any(vds < 0):
        raise InvalidInputError("vds must be >= 0 (orient source at the low terminal)")
    out = _ids(p, p.vt0, p.w_over_l, vgs, vds)
    return out if out.ndim else float(out)


def signed_current(p: DeviceParams, vt, w_over_l, vg, va, vb):
    """Current a -> b through one ``p`` device of threshold ``vt``, width
    ratio ``w_over_l`` and gate ``vg``; the sign follows va - vb."""
    low = np.minimum(va, vb)
    i = _ids(p, vt, w_over_l, vg - low, np.abs(va - vb))
    return np.where(va >= vb, i, -i)


def stack_mismatch(p: DeviceParams, m, dvt1, dvt2, g1, g2, v_sl, v_rbl, x):
    """|I_M1 - I_M2| at internal node ``x``, for the arguments of
    ``stack_current_arrays`` and its solved node."""
    wl = p.w_over_l * np.asarray(m, dtype=float)
    return np.abs(signed_current(p, p.vt0 + dvt1, wl, g1, v_sl, x)
                  - signed_current(p, p.vt0 + dvt2, wl, g2, x, v_rbl))


@dataclass(frozen=True)
class ReadStack:
    """Series M1 (storage-gated) + M2 (RWL-gated) read port of one bit-cell.

    Both devices are ``profile`` devices; ``width_multiplier`` scales their
    W/L identically (the allowed values are the binary-weighted column
    sizes), and ``dvt1``/``dvt2`` offset their thresholds.
    """

    profile: DeviceParams = DeviceParams()
    width_multiplier: int = 1
    dvt1: float = 0.0
    dvt2: float = 0.0

    def __post_init__(self):
        if self.width_multiplier not in (1, 2, 4, 8):
            raise InvalidInputError("width_multiplier must be one of {1, 2, 4, 8}")

    def ports(self, g1, g2, v_sl, v_rbl):
        """``stack_current_arrays`` arguments of this stack."""
        return (self.profile, self.width_multiplier, self.dvt1, self.dvt2,
                g1, g2, v_sl, v_rbl)


def _validate_stack_inputs(voltages):
    upper = 1.5 * DEFAULT_VDD
    for v in voltages:
        if not np.isfinite(v):
            raise InvalidInputError("non-finite stack terminal voltage")
        if v < 0 or v > upper:
            raise InvalidInputError(
                f"stack voltage {v} outside [0, {upper}] (= 1.5 * V_DD)"
            )


def stack_current(s: ReadStack, v_sl: float, v_rbl: float, v_rwl: float,
                  data_bit: int) -> float:
    """Signed current flowing SL -> RBL through one read stack.

    The internal node between M1 and M2 is solved by
    ``stack_current_arrays``; the two device currents must then agree within
    ``STACK_CURRENT_TOL``. ``data_bit`` = 0 gates M1 at 0 V (subthreshold
    only), 1 at the storage high level ``DEFAULT_VDD``.
    """
    _validate_stack_inputs((v_sl, v_rbl, v_rwl))
    ports = s.ports(DEFAULT_VDD if data_bit else 0.0, v_rwl, v_sl, v_rbl)
    i, x = stack_current_arrays(*ports)
    di = stack_mismatch(*ports, x)
    if di > STACK_CURRENT_TOL:
        raise SolverError(f"stack root finder left |dI| = {float(di):.3e} A > "
                          f"{STACK_CURRENT_TOL} A")
    return float(i)


def _linsolve_dense(j_mat: sp.csr_matrix, rhs: np.ndarray):
    try:
        return np.linalg.solve(j_mat.toarray(), rhs), 0, False
    except np.linalg.LinAlgError as exc:
        raise TopologyError(f"singular nodal system: {exc}") from exc


def dense_oracle_solve(net: Network) -> OperatingPointSolution:
    """Verification oracle: identical Newton loop, dense elimination.

    Refuses networks above ``DENSE_NODE_CAP`` nodes.
    """
    if net.n_nodes > DENSE_NODE_CAP:
        raise InvalidInputError(
            f"dense oracle capped at {DENSE_NODE_CAP} nodes, got {net.n_nodes}"
        )
    return _newton_solve([net], _linsolve_dense)[0]


def unpack_weights(cells: PackedCells) -> WeightMatrix:
    """Inverse of ``pack_weights``."""
    bits = cells.data_bits.reshape(cells.rows, -1, WEIGHT_BITS)
    return WeightMatrix((bits.astype(np.int64) << _SHIFTS).sum(axis=2))


def ideal_dot_product(inputs, m: WeightMatrix) -> np.ndarray:
    """Exact per-word sum of inputs_i * value_ij."""
    inputs = np.asarray(inputs, dtype=float)
    if not np.all(np.isfinite(inputs)):
        raise InvalidInputError("non-finite dot-product input")
    if inputs.shape[-1] != m.rows:
        raise InvalidInputError("input length must equal weight rows")
    return inputs @ m.values.astype(float)


def save_dataset_csv(path, features, labels) -> None:
    """Write the dataset CSV that ``matio.load_dataset_csv`` reads."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    labels = np.asarray(labels, dtype=np.int64)
    if features.shape[0] != labels.shape[0]:
        raise InvalidInputError("features and labels must pair up")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(features.shape[1])] + ["label"])
        for x, y in zip(features, labels):
            writer.writerow([repr(float(v)) for v in x] + [int(y)])


def share(report: EnergyReport, *keys) -> float:
    """Fraction of ``report``'s total energy spent in the named terms."""
    if report.total_energy == 0:
        return 0.0
    return sum(report.breakdown[k] for k in keys) / report.total_energy


def generate_digits_per_image(n_train_per_class: int = 120,
                              n_test_per_class: int = 40, seed: int = 7,
                              noise_sigma: float = 0.10) -> DigitDataset:
    """``generate_digits`` built one image at a time."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 8, 8)))
    n_per = n_train_per_class + n_test_per_class
    xs, ys = [], []
    for digit in range(N_CLASSES):
        proto = _prototype(digit)
        for _ in range(n_per):
            dy, dx = rng.integers(-1, 2, size=2)
            img = _shift(proto, int(dy), int(dx))
            img = img * rng.uniform(0.85, 1.0)
            img = img + rng.normal(0.0, noise_sigma, size=img.shape)
            xs.append(np.clip(img, 0.0, 1.0).ravel())
            ys.append(digit)
    x = np.array(xs)
    y = np.array(ys, dtype=np.int64)
    order = rng.permutation(len(y))
    x, y = x[order], y[order]
    n_test = n_test_per_class * N_CLASSES
    return DigitDataset(
        train_x=x[n_test:], train_y=y[n_test:],
        test_x=x[:n_test], test_y=y[:n_test],
    )


def _loss_and_grads_clipped(weights, x, y_onehot):
    w1, w2 = weights
    z1 = x @ w1
    h = np.clip(z1, 0.0, 1.0)
    z2 = h @ w2
    err = z2 - y_onehot
    loss = 0.5 * float(np.mean(np.sum(err * err, axis=1)))
    d2 = err / x.shape[0]
    gw2 = h.T @ d2
    dh = d2 @ w2.T
    d1 = dh * ((z1 > 0.0) & (z1 < 1.0))
    gw1 = x.T @ d1
    return loss, [gw1, gw2]


def train_reference_per_batch(train_x, train_y, topology=(64, 32, 10), *,
                              epochs: int = 150, lr: float = 0.5,
                              batch_size: int = 32, seed: int = 0):
    """``train_reference`` gathering each batch by index from the training
    set, with ``np.clip`` and ``np.mean`` in the step."""
    m, hidden, p = topology
    train_x = np.asarray(train_x, dtype=float)
    y_onehot = _one_hot(np.asarray(train_y), p)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 4242)))
    w1 = rng.normal(0.0, 1.0 / np.sqrt(m), (m, hidden))
    w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), (hidden, p))
    weights = [w1, w2]
    losses = []
    n = train_x.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            loss, grads = _loss_and_grads_clipped(weights, train_x[idx],
                                                  y_onehot[idx])
            epoch_loss += loss * len(idx)
            for w, g in zip(weights, grads):
                w -= lr * g
        losses.append(epoch_loss / n)
    return weights, losses
