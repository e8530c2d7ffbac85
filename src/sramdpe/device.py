"""Behavioral NMOS model and the two-transistor read-stack solver.

The device is a stitched square-law + subthreshold NMOS:

    I = I_leak + I_sq
    I_leak = i0 * (W/L) * exp(min(vgs - vt0, 0) / (n * phi_t)) * (1 - exp(-vds / phi_t))
    I_sq   = k' * (W/L) * ((vgs - vt0) * vds_t - vds_t^2 / 2) * (1 + lambda * vds)
             with vds_t = min(vds, max(vgs - vt0, 0))

which reproduces the textbook triode expression for vds < vgs - vt0 and the
saturation expression (k'/2)(W/L)(vgs - vt0)^2 (1 + lambda vds) otherwise.
Adding the clamped leakage term everywhere makes the total exactly continuous
across both region boundaries and monotone nondecreasing in both vgs and vds.
The current is proportional to W/L in every region, so read stacks sized
8:4:2:1 carry currents in exactly that ratio.

The device is symmetric: callers orient the source at the lower-potential
terminal. A read stack is two such devices in series (M1 gated by the stored
bit, M2 by the read word-line); its terminal current is found by bisecting the
internal node voltage, and its small-signal conductances follow analytically
from the device derivatives at that node. All evaluators accept scalars or
broadcastable numpy arrays so that array-level sweeps stay vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, SolverError

DEFAULT_VDD = 0.65

# Bisection: 64 halvings push the bracket below float spacing; the current
# mismatch tolerance is then verified, not used as the stop rule, so that
# power-of-two width scaling replays the identical bisection path.
STACK_BISECT_ITERS = 64
STACK_CURRENT_TOL = 1e-12


@dataclass(frozen=True)
class DeviceParams:
    """Parameters of one behavioral NMOS transistor.

    ``subthreshold_i0`` is the leakage scale per unit W/L at zero overdrive;
    ``lam`` is the channel-length modulation coefficient (lambda, renamed to
    dodge the Python keyword).
    """

    vt0: float = 0.4
    k_prime: float = 300e-6
    w_over_l: float = 2.0
    lam: float = 0.1
    subthreshold_i0: float = 1e-12
    subthreshold_n: float = 1.5
    phi_t: float = 0.02585

    def __post_init__(self):
        if not all(
            np.isfinite(v)
            for v in (
                self.vt0,
                self.k_prime,
                self.w_over_l,
                self.lam,
                self.subthreshold_i0,
                self.subthreshold_n,
                self.phi_t,
            )
        ):
            raise InvalidInputError("device parameters must be finite")
        if self.vt0 <= 0 or self.k_prime <= 0 or self.w_over_l <= 0:
            raise InvalidInputError("vt0, k_prime and w_over_l must be positive")
        if self.lam < 0 or self.subthreshold_i0 < 0 or self.phi_t <= 0:
            raise InvalidInputError("lam, subthreshold_i0 must be >= 0 and phi_t > 0")

    def scaled(self, multiplier: float) -> "DeviceParams":
        """Same device with W/L scaled by ``multiplier`` (width sizing)."""
        return replace(self, w_over_l=self.w_over_l * multiplier)


#: Named device profiles selectable from experiment configs.
PROFILES: dict[str, DeviceParams] = {
    "default-45": DeviceParams(),
}


def _ids(vt0, k_prime, w_over_l, lam, i0, n, phi_t, vgs, vds):
    """Drain current for vds >= 0, elementwise over broadcastable arrays."""
    ov = vgs - vt0
    leak = (
        i0
        * w_over_l
        * np.exp(np.minimum(ov, 0.0) / (n * phi_t))
        * (-np.expm1(-vds / phi_t))
    )
    ov_pos = np.maximum(ov, 0.0)
    vds_t = np.minimum(vds, ov_pos)
    square = k_prime * w_over_l * (ov_pos * vds_t - 0.5 * vds_t * vds_t) * (1.0 + lam * vds)
    return leak + square


def _ids_derivatives(vt0, k_prime, w_over_l, lam, i0, n, phi_t, vgs, vds):
    """(dI/dvgs, dI/dvds) of ``_ids``, elementwise."""
    ov = vgs - vt0
    scale = i0 * w_over_l * np.exp(np.minimum(ov, 0.0) / (n * phi_t))
    leak = scale * (-np.expm1(-vds / phi_t))
    ov_pos = np.maximum(ov, 0.0)
    vds_t = np.minimum(vds, ov_pos)
    kw, clm = k_prime * w_over_l, 1.0 + lam * vds
    gm = np.where(ov < 0.0, leak / (n * phi_t), 0.0) + kw * vds_t * clm
    gds = (scale * np.exp(-vds / phi_t) / phi_t
           + kw * ((ov_pos - vds_t) * clm
                   + lam * (ov_pos * vds_t - 0.5 * vds_t * vds_t)))
    return gm, gds


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
    out = _ids(
        p.vt0, p.k_prime, p.w_over_l, p.lam,
        p.subthreshold_i0, p.subthreshold_n, p.phi_t,
        vgs, vds,
    )
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ReadStack:
    """Series M1 (storage-gated) + M2 (RWL-gated) read port of one bit-cell.

    ``width_multiplier`` scales W/L of both devices identically; the allowed
    values are the binary-weighted column sizes.
    """

    m1: DeviceParams = DeviceParams()
    m2: DeviceParams = DeviceParams()
    width_multiplier: int = 1

    def __post_init__(self):
        if self.width_multiplier not in (1, 2, 4, 8):
            raise InvalidInputError("width_multiplier must be one of {1, 2, 4, 8}")

    @property
    def m1_sized(self) -> DeviceParams:
        return self.m1.scaled(self.width_multiplier)

    @property
    def m2_sized(self) -> DeviceParams:
        return self.m2.scaled(self.width_multiplier)


def _params_tuple(p: DeviceParams):
    return (p.vt0, p.k_prime, p.w_over_l, p.lam,
            p.subthreshold_i0, p.subthreshold_n, p.phi_t)


def _signed_device_current(params, vg, va, vb):
    """Current a -> b through one device with gate vg; sign follows va - vb."""
    low = np.minimum(va, vb)
    i = _ids(*params, vg - low, np.abs(va - vb))
    return np.where(va >= vb, i, -i)


def _signed_device_derivatives(params, vg, va, vb):
    """(d/dva, d/dvb) of ``_signed_device_current``."""
    low = np.minimum(va, vb)
    gm, gds = _ids_derivatives(*params, vg - low, np.abs(va - vb))
    forward = va >= vb
    return (np.where(forward, gds, gm + gds),
            np.where(forward, -gm - gds, -gds))


def stack_current_arrays(m1_params, m2_params, g1, g2, v_sl, v_rbl):
    """Vectorized stack solve; returns (current SL->RBL, internal node, |dI|).

    ``m1_params``/``m2_params`` are 7-tuples of (possibly array) device
    parameters as produced by ``_params_tuple``; ``g1``/``g2`` are the gate
    voltages of M1/M2. All arguments broadcast.
    """
    v_sl = np.asarray(v_sl, dtype=float)
    v_rbl = np.asarray(v_rbl, dtype=float)
    lo = np.minimum(v_sl, v_rbl) + np.zeros(np.broadcast(v_sl, v_rbl, g1, g2).shape)
    hi = np.maximum(v_sl, v_rbl) + np.zeros_like(lo)
    # f(x) = I_m1(sl->x) - I_m2(x->rbl) is strictly decreasing in x, with a
    # sign change inside [lo, hi] for any terminal ordering.
    for _ in range(STACK_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        f = (_signed_device_current(m1_params, g1, v_sl, mid)
             - _signed_device_current(m2_params, g2, mid, v_rbl))
        take_right = f > 0
        lo = np.where(take_right, mid, lo)
        hi = np.where(take_right, hi, mid)
    x = 0.5 * (lo + hi)
    i1 = _signed_device_current(m1_params, g1, v_sl, x)
    i2 = _signed_device_current(m2_params, g2, x, v_rbl)
    return 0.5 * (i1 + i2), x, np.abs(i1 - i2)


def stack_conductances(m1_params, m2_params, g1, g2, v_sl, v_rbl, x):
    """(dI/dv_sl, dI/dv_rbl) of the stack current at the solved internal node.

    Implicit differentiation of I_m1(v_sl, x) = I_m2(x, v_rbl) (the SPICE
    companion model of the series pair). Where neither device conducts the
    internal node is undetermined; both conductances are then 0. Arguments
    are as for ``stack_current_arrays``, plus its internal node ``x``.
    """
    a1, b1 = _signed_device_derivatives(m1_params, g1, v_sl, x)
    a2, b2 = _signed_device_derivatives(m2_params, g2, x, v_rbl)
    den = a2 - b1           # -dF/dx for F = I_m1 - I_m2, never negative
    off = den == 0.0
    den = np.where(off, 1.0, den)
    return (np.where(off, 0.0, a1 * a2 / den),
            np.where(off, 0.0, -b1 * b2 / den))


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

    The internal node between M1 and M2 is bisected until both device
    currents agree within ``STACK_CURRENT_TOL``. ``data_bit`` = 0 gates M1 at
    0 V (subthreshold only), 1 at the storage high level ``DEFAULT_VDD``.
    """
    _validate_stack_inputs((v_sl, v_rbl, v_rwl))
    g1 = DEFAULT_VDD if data_bit else 0.0
    i, _, di = stack_current_arrays(
        _params_tuple(s.m1_sized), _params_tuple(s.m2_sized), g1, v_rwl, v_sl, v_rbl
    )
    if di > STACK_CURRENT_TOL:
        raise SolverError(f"stack bisection left |dI| = {float(di):.3e} A > "
                          f"{STACK_CURRENT_TOL} A")
    return float(i)

