"""Adaptive G7/K15 Gauss-Kronrod quadrature of a block of integrals.

Each row of a block is one integral over its own panels, and all panels
of all rows go through the integrand in one 2-d pass: K15 is the value,
|K15 - G7| the error estimate.  In a row that misses its tolerance, each
panel whose error exceeds its width's share of it is bisected, all rows
at once in another pass, until the row meets it or has _MAX_PANELS panels.

quad is scipy's QUADPACK integrator, which only the reference paths
(pv_integral, impedance_numeric) call; it imports scipy on its first call,
because scipy.integrate takes most of the package's import time.
"""

from __future__ import annotations

import numpy as np

# Kronrod nodes x >= 0 on [-1, 1], their K15 weights and the G7 weights,
# which are 0 on the nodes G7 lacks
_KRONROD_X = (0.991455371120812639, 0.949107912342758525, 0.864864423359769073,
              0.741531185599394440, 0.586087235467691130, 0.405845151377397167,
              0.207784955007898468, 0.0)
_KRONROD_W = (0.022935322010529225, 0.063092092629978553, 0.104790010322250184,
              0.140653259715525919, 0.169004726639267903, 0.190350578064785410,
              0.204432940075298892, 0.209482141084727828)
_GAUSS_W = (0.0, 0.129484966168869693, 0.0, 0.279705391489276668,
            0.0, 0.381830050505118945, 0.0, 0.417959183673469388)

# the 15 nodes and a (15, 2) matrix of K15 and G7 weights
_NODES = np.concatenate([-np.array(_KRONROD_X[:-1]), _KRONROD_X[::-1]])
_WEIGHTS = np.column_stack([np.concatenate([w[:-1], w[::-1]]) for w in
                            (np.array(_KRONROD_W), np.array(_GAUSS_W))])
_MAX_PANELS = 128               # refinement stops once a row has this many


def integrate(f, edges, rel_tol, abs_tol=5e-324, floor=0.0):
    """(integrals, error estimates, converged flags) of a block.

    f(rows, x) is the integrand at the 2-d nodes x, one row per panel of
    integral rows.  edges holds ascending panel edges, one row per
    integral; a repeated edge makes an empty panel, which is dropped.  A
    row converges at error <= max(rel_tol |I|, abs_tol) and is refined
    while it misses and |I| + err >= floor."""
    n, m = edges.shape
    span = edges[:, -1] - edges[:, 0]
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    keep = hi > lo
    new = (np.repeat(np.arange(n), m - 1)[keep], lo[keep], hi[keep])
    kept = (np.empty(0, int),) + (np.empty(0),) * 4
    while True:
        # K15 values and |K15 - G7| errors of the new panels
        half = 0.5 * (new[2] - new[1])
        x = (new[1] + half)[:, None] + half[:, None] * _NODES
        kg = f(new[0], x) @ _WEIGHTS * half[:, None]
        rows, lo, hi, val, err = (
            np.concatenate(pair) for pair in
            zip(kept, new + (kg[:, 0], np.abs(kg[:, 0] - kg[:, 1]))))
        total = np.bincount(rows, val, n)
        error = np.bincount(rows, err, n)
        tol = np.maximum(rel_tol * np.abs(total), abs_tol)
        missing = error > tol
        refine = (missing & (np.abs(total) + error >= floor)
                  & (np.bincount(rows, minlength=n) < _MAX_PANELS))
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
