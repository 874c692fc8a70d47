"""Adaptive G10/K21 Gauss-Kronrod quadrature of a block of integrals.

Each row of a block is one integral over its own panels, and the panels
of all rows go through the integrand together, in 2-d calls of at most
_PASS panels: K21 is the value, |K21 - G10| the error estimate.  In a row
that misses its tolerance, each panel whose error exceeds its width's
share of it is bisected, all rows at once in another pass, until the row
meets it or has _MAX_PANELS panels.

quad is scipy's QUADPACK integrator, which only the reference paths
(pv_integral, impedance_numeric) call; it imports scipy on its first call,
because scipy.integrate takes most of the package's import time.
"""

from __future__ import annotations

import numpy as np

# QUADPACK's qk21 (Piessens et al., Springer 1983): Kronrod nodes x >= 0
# on [-1, 1], their K21 weights, and the G10 weights of x[1], x[3] .. x[9]
_KRONROD_X = (0.995657163025808081, 0.973906528517171720, 0.930157491355708226,
              0.865063366688984511, 0.780817726586416897, 0.679409568299024406,
              0.562757134668604683, 0.433395394129247191, 0.294392862701460198,
              0.148874338981631211, 0.0)
_KRONROD_W = (0.011694638867371874, 0.032558162307964727, 0.054755896574351996,
              0.075039674810919953, 0.093125454583697606, 0.109387158802297642,
              0.123491976262065851, 0.134709217311473326, 0.142775938577060081,
              0.147739104901338491, 0.149445554002916906)
_GAUSS_W = (0.066671344308688138, 0.149451349150580593, 0.219086362515982044,
            0.269266719309996355, 0.295524224714752870)

# the 21 nodes, and the K21 and G10 weights on them (0 off G10's nodes)
_NODES = np.concatenate([-np.array(_KRONROD_X[:-1]), _KRONROD_X[::-1]])
_WEIGHTS = tuple(np.concatenate([w[:-1], w[::-1]]) for w in
                 (np.array(_KRONROD_W), np.insert(_GAUSS_W, range(6), 0.0)))
_MAX_PANELS = 128               # refinement stops once a row has this many
_PASS = 318                     # most panels in one integrand call (6,678 nodes)


def integrate(f, edges, rel_tol, abs_tol=5e-324):
    """(integrals, error estimates, converged flags) of a block.

    f(rows, x) is the integrand at the 2-d nodes x, one row per panel of
    integral rows.  edges holds ascending panel edges, one row per
    integral; a repeated edge makes an empty panel, which is dropped.  A
    row converges at error <= max(rel_tol |I|, abs_tol) and is refined
    while it misses."""
    n, m = edges.shape
    span = edges[:, -1] - edges[:, 0]
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    keep = hi > lo
    new = (np.repeat(np.arange(n), m - 1)[keep], lo[keep], hi[keep])
    kept = (np.empty(0, int),) + (np.empty(0),) * 4
    while True:
        # K21 values and |K21 - G10| errors of the new panels, each its own
        # dot product: a matrix product's bits depend on the other panels
        k21, g10 = np.empty((2, len(new[0])))
        for s in (slice(i, i + _PASS) for i in range(0, len(new[0]), _PASS)):
            half = 0.5 * (new[2][s] - new[1][s])
            x = half[:, None] * _NODES
            fx = f(new[0][s], np.add(x, (new[1][s] + half)[:, None], out=x))
            k21[s], g10[s] = (np.vecdot(fx, w) * half for w in _WEIGHTS)
        rows, lo, hi, val, err = (
            np.concatenate(pair) for pair in
            zip(kept, new + (k21, np.abs(k21 - g10))))
        total = np.bincount(rows, val, n)
        error = np.bincount(rows, err, n)
        tol = np.maximum(rel_tol * np.abs(total), abs_tol)
        missing = error > tol
        refine = missing & (np.bincount(rows, minlength=n) < _MAX_PANELS)
        if not refine.any():
            return total, error, ~missing
        # a panel misses when its error exceeds its width's share of tol
        split = refine[rows] & (err * span[rows] > tol[rows] * (hi - lo))
        mid = 0.5 * (lo[split] + hi[split])
        new = (np.repeat(rows[split], 2),
               np.column_stack([lo[split], mid]).ravel(),
               np.column_stack([mid, hi[split]]).ravel())
        kept = tuple(x[~split] for x in (rows, lo, hi, val, err))


def quad(*args, **kwargs):
    """scipy.integrate.quad(*args, **kwargs), importing scipy on first use."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)
