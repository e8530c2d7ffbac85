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
terminal. A read stack is two such devices of one profile in series (M1
gated by the stored bit, M2 by the read word-line), sized by their column's
width multiplier, each with its own threshold offset. Its internal node lies
between the two terminals; the stack solve orients each stack once (the
device at the higher terminal is the "top" one) and finds the node where
both device currents agree by Chandrupatla's bracketed inverse-quadratic
interpolation (Chandrupatla 1997, Adv. Eng. Softw. 28(3):145-149), in
cache-sized blocks of stacks. The tests keep a fixed 64-step bisection as
its oracle, and the scalar one-device and one-stack API in
``tests/oracles.py``. The small-signal conductances follow analytically from
the device derivatives at that node. All evaluators accept scalars or
broadcastable numpy arrays so that array-level sweeps stay vectorized.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import InvalidInputError, SolverError

DEFAULT_VDD = 0.65

# Passes before a stack counts as unconverged: twice the 64 halvings that
# shrink any bracket to its final width.
STACK_MAX_ITERS = 128
# Stacks solved together, so that a block's temporaries stay in cache.
_STACK_BLOCK = 4096
_EPS = np.finfo(float).eps


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
        if not all(np.isfinite(v) for v in astuple(self)):
            raise InvalidInputError("device parameters must be finite")
        if self.vt0 <= 0 or self.k_prime <= 0 or self.w_over_l <= 0:
            raise InvalidInputError("vt0, k_prime and w_over_l must be positive")
        if self.lam < 0 or self.subthreshold_i0 < 0 or self.phi_t <= 0:
            raise InvalidInputError("lam, subthreshold_i0 must be >= 0 and phi_t > 0")


#: Named device profiles selectable from experiment configs.
PROFILES: dict[str, DeviceParams] = {
    "default-45": DeviceParams(),
}


def _ids(p: DeviceParams, vt, w_over_l, vgs, vds):
    """Drain current (vds >= 0) of a ``p`` device, elementwise over arrays."""
    ov = vgs - vt
    leak = (p.subthreshold_i0 * w_over_l
            * np.exp(np.minimum(ov, 0.0) / (p.subthreshold_n * p.phi_t))
            * (-np.expm1(-vds / p.phi_t)))
    ov_pos = np.maximum(ov, 0.0)
    vds_t = np.minimum(vds, ov_pos)
    square = (p.k_prime * w_over_l * (ov_pos * vds_t - 0.5 * vds_t * vds_t)
              * (1.0 + p.lam * vds))
    return leak + square


def _ids_derivatives(p: DeviceParams, vt, w_over_l, vgs, vds):
    """(dI/dvgs, dI/dvds) of ``_ids``, elementwise."""
    ov = vgs - vt
    n_phi = p.subthreshold_n * p.phi_t
    scale = p.subthreshold_i0 * w_over_l * np.exp(np.minimum(ov, 0.0) / n_phi)
    leak = scale * (-np.expm1(-vds / p.phi_t))
    ov_pos = np.maximum(ov, 0.0)
    vds_t = np.minimum(vds, ov_pos)
    kw, clm = p.k_prime * w_over_l, 1.0 + p.lam * vds
    gm = np.where(ov < 0.0, leak / n_phi, 0.0) + kw * vds_t * clm
    gds = (scale * np.exp(-vds / p.phi_t) / p.phi_t
           + kw * ((ov_pos - vds_t) * clm
                   + p.lam * (ov_pos * vds_t - 0.5 * vds_t * vds_t)))
    return gm, gds


def _signed_device_derivatives(p: DeviceParams, vt, w_over_l, vg, va, vb):
    """(d/dva, d/dvb) of the current a -> b through one device with gate vg."""
    low = np.minimum(va, vb)
    gm, gds = _ids_derivatives(p, vt, w_over_l, vg - low, np.abs(va - vb))
    forward = va >= vb
    return (np.where(forward, gds, gm + gds),
            np.where(forward, -gm - gds, -gds))


def _blocks(shape, lead=()):
    """Basic indices cutting ``shape`` into blocks of at most ``_STACK_BLOCK``
    elements, slicing the leading axes."""
    if not shape:
        yield lead
        return
    rest = math.prod(shape[1:])
    if rest > _STACK_BLOCK:
        for k in range(shape[0]):
            yield from _blocks(shape[1:], lead + (k,))
        return
    step = _STACK_BLOCK // rest
    for k in range(0, shape[0], step):
        yield lead + (slice(k, k + step),)


def _orient(forward, a, b):
    """``a`` where ``forward`` else ``b``, left scalar where that is exact."""
    if np.ndim(a) == 0 and np.ndim(b) == 0 and a == b:
        return a
    if np.all(forward):
        return a
    if not np.any(forward):
        return b
    return np.where(forward, a, b)


def _internal_node(p: DeviceParams, w_over_l, top, bottom, hi, lo):
    """Node x in [lo, hi] where the top device's current hi -> x equals the
    bottom device's x -> lo, by Chandrupatla's method.

    ``top``/``bottom`` are (gate, threshold) pairs, each a scalar or a flat
    array over the stacks. The mismatch f(x) = I_top - I_bot falls in x, is
    >= 0 at lo and <= 0 at hi. A stack stops once its bracket is no wider
    than 2 eps |x| + (hi - lo) 2**-64, or f hits 0 exactly, and leaves the
    active set. The stop rule reads x only and the step only ratios of f, so
    a power-of-two width scale replays the same iterates.
    """
    (g_top, vt_top), (g_bot, vt_bot) = top, bottom
    vgs_bot = g_bot - lo
    span = hi - lo
    x1, f1 = hi, -_ids(p, vt_bot, w_over_l, vgs_bot, span)
    x2, f2 = lo, _ids(p, vt_top, w_over_l, g_top - lo, span)
    x3 = f3 = None
    atol = span * 2.0**-64
    pos = np.arange(hi.size)       # each active stack's place in the block
    x = np.empty(hi.size)
    for _ in range(STACK_MAX_ITERS):
        small = np.abs(f1) < np.abs(f2)
        xm = np.where(small, x1, x2)
        dx = np.abs(x2 - x1)
        tol = 2.0 * _EPS * np.abs(xm) + atol
        done = (dx <= tol) | (f1 == 0.0) | (f2 == 0.0)
        if done.any():
            x[pos[done]] = xm[done]
            if done.all():
                return x
            keep = np.flatnonzero(~done)
            pos, x1, f1, x2, f2, dx, tol, hi, lo, atol, vgs_bot = (
                a[keep] for a in (pos, x1, f1, x2, f2, dx, tol, hi, lo,
                                  atol, vgs_bot))
            g_top, vt_top, vt_bot, w_over_l = (
                a[keep] if np.ndim(a) else a
                for a in (g_top, vt_top, vt_bot, w_over_l))
            if x3 is not None:
                x3, f3 = x3[keep], f3[keep]
        t = 0.5
        if x3 is not None:
            # Inverse quadratic interpolation where it is safe, else bisect.
            with np.errstate(divide="ignore", invalid="ignore"):
                xi = (x1 - x2) / (x3 - x2)
                phi = (f1 - f2) / (f3 - f2)
                iqi = (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)
                t = np.where(
                    iqi,
                    f1 / (f1 - f2) * f3 / (f3 - f2)
                    - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3),
                    0.5)
        tl = 0.5 * tol / dx
        t = np.minimum(np.maximum(t, tl), 1.0 - tl)
        xt = x1 + t * (x2 - x1)
        ft = (_ids(p, vt_top, w_over_l, g_top - xt, hi - xt)
              - _ids(p, vt_bot, w_over_l, vgs_bot, xt - lo))
        same = (ft < 0.0) == (f1 < 0.0)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xt, ft
    raise SolverError(f"stack root finder did not converge in "
                      f"{STACK_MAX_ITERS} iterations")


def _solve_block(p: DeviceParams, n, m, dvt1, dvt2, g1, g2, v_sl, v_rbl):
    """``stack_current_arrays`` on one block of ``n`` stacks, each argument
    after ``p`` a scalar or a flat array of ``n``."""
    forward = v_sl >= v_rbl
    hi = np.maximum(v_sl, v_rbl) + np.zeros(n)
    lo = np.minimum(v_sl, v_rbl) + np.zeros(n)
    wl = p.w_over_l * m
    g_top, g_bot = _orient(forward, g1, g2), _orient(forward, g2, g1)
    vt_top = p.vt0 + _orient(forward, dvt1, dvt2)
    vt_bot = p.vt0 + _orient(forward, dvt2, dvt1)
    x = _internal_node(p, wl, (g_top, vt_top), (g_bot, vt_bot), hi, lo)
    i_top = _ids(p, vt_top, wl, g_top - x, hi - x)
    i_bot = _ids(p, vt_bot, wl, g_bot - lo, x - lo)
    sign = np.where(forward, 1.0, -1.0)
    return sign * (0.5 * (i_top + i_bot)), x


def stack_current_arrays(p: DeviceParams, m, dvt1, dvt2, g1, g2, v_sl, v_rbl):
    """Vectorized stack solve; returns (current SL->RBL, internal node).

    M1 and M2 are ``p`` devices of W/L ``p.w_over_l * m`` and thresholds
    ``p.vt0 + dvt1`` and ``p.vt0 + dvt2``, gated at ``g1``/``g2``. All
    arguments after ``p`` broadcast. The stacks are solved in blocks of at
    most ``_STACK_BLOCK`` sliced along the leading axes, so no argument is
    copied out to the full broadcast shape.
    """
    args = [np.asarray(a, dtype=float)
            for a in (m, dvt1, dvt2, g1, g2, v_sl, v_rbl)]
    views = np.broadcast_arrays(*args)
    shape = views[0].shape
    out = [np.empty(shape) for _ in range(2)]
    if 0 in shape:
        return tuple(out)
    for index in _blocks(shape):
        block_shape = views[0][index].shape
        block = (a.item() if a.size == 1 else v[index].ravel()
                 for a, v in zip(args, views))
        for o, r in zip(out, _solve_block(p, math.prod(block_shape), *block)):
            o[index] = r.reshape(block_shape)
    return tuple(out)


def stack_conductances(p: DeviceParams, m, dvt1, dvt2, g1, g2, v_sl, v_rbl,
                       x):
    """(dI/dv_sl, dI/dv_rbl) of the stack current at the solved internal node.

    Implicit differentiation of I_m1(v_sl, x) = I_m2(x, v_rbl) (the SPICE
    companion model of the series pair). Where neither device conducts the
    internal node is undetermined; both conductances are then 0. Arguments
    are as for ``stack_current_arrays``, plus its internal node ``x``.
    """
    wl = p.w_over_l * m
    a1, b1 = _signed_device_derivatives(p, p.vt0 + dvt1, wl, g1, v_sl, x)
    a2, b2 = _signed_device_derivatives(p, p.vt0 + dvt2, wl, g2, x, v_rbl)
    den = a2 - b1           # -dF/dx for F = I_m1 - I_m2, never negative
    off = den == 0.0
    den = np.where(off, 1.0, den)
    return (np.where(off, 0.0, a1 * a2 / den),
            np.where(off, 0.0, -b1 * b2 / den))
