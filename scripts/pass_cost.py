"""Time one full pressure-integrand pass per model in two checkouts.

    python3 scripts/pass_cost.py PARENT CHANGE

A pass is one call of the integrand that `lifshitz._integrate` hands to
`nlcasimir.quadrature.integrate` (caught by patching
`lifshitz.integrate`), on the 318 u-panels of terms l = 1..106 at a = 1
um, T = 1 K: 6,678 nodes, the largest call `integrate` makes.  The
models are the five of scripts/result_digest.py (Drude, plasma, nonlocal
gold, and Drude and nonlocal with the interband core of
tests/conftest.py's optical table) and the static (l = 0) rows of Drude
and nonlocal on the same panels.  Both checkouts are copied, as
result_digest.py copies them, and each of ROUNDS rounds runs both
copies, one after the other and alternating which goes first, each in a
fresh interpreter with the copy's src/ on PYTHONPATH, where the models
take turns in each of REPEATS repeats.  The script prints, per model,
each checkout's ns per node, the minimum over every repeat of every
round, and their ratio.  `pass_cost.py --here` prints the times of the
checkout in the working directory, as JSON.  numpy, and nlcasimir from
each checkout, only.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from result_digest import MODELS as TERM_MODELS
from result_digest import SIDES, copy_checkouts, models_here, run_here

MODELS = (*TERM_MODELS, "static-drude", "static-nonlocal")
TERMS = 106                     # rows of one pass: 3 u-panels each
REPEATS = 200                   # passes per model and interpreter
ROUNDS = 5                      # interpreters per checkout


def pass_here():
    """{model: ns per node} of one pass, the minimum over REPEATS, from the
    nlcasimir on sys.path."""
    import numpy as np
    from nlcasimir import lifshitz
    from nlcasimir.constants import CONSTANTS, matsubara_xi
    from nlcasimir.quadrature import _NODES

    models = models_here()
    a_um, temperature = 1.0, 1.0
    c1 = CONSTANTS.hbar_c / (2.0 * a_um)
    xi = np.array([matsubara_xi(l, temperature) for l in range(1, TERMS + 1)])
    y_lo = 2.0 * a_um * xi / CONSTANTS.hbar_c

    passes = {}
    for name in MODELS:
        static = name.startswith("static-")
        caught = []
        original = lifshitz.integrate
        lifshitz.integrate = lambda f, edges, rel_tol: caught.append((f, edges))
        try:
            lifshitz._integrate(models[name.removeprefix("static-")], 1e-9,
                                c1, None if static else xi,
                                np.zeros(TERMS) if static else y_lo)
        finally:
            lifshitz.integrate = original
        f, edges = caught[0]
        lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
        half = 0.5 * (hi - lo)
        passes[name] = (f, np.repeat(np.arange(TERMS), edges.shape[1] - 1),
                        (lo + half)[:, None] + half[:, None] * _NODES)
    # the models take turns, so a busy spell of the machine hits them alike
    best = dict.fromkeys(passes, float("inf"))
    for _ in range(REPEATS):
        for name, (f, rows, x) in passes.items():
            start = time.perf_counter()
            f(rows, x)
            best[name] = min(best[name], time.perf_counter() - start)
    return {name: 1e9 * best[name] / passes[name][2].size for name in best}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    best = {side: dict.fromkeys(MODELS, float("inf")) for side in SIDES}
    with tempfile.TemporaryDirectory() as scratch:
        copies = copy_checkouts((args.parent, args.change), scratch)
        for i in range(ROUNDS):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                for name, ns in run_here(__file__, copies[side]).items():
                    best[side][name] = min(best[side][name], ns)
    print(f"{'model':16} {'parent':>8} {'change':>8}  "
          "ns per node, change/parent")
    for name in MODELS:
        parent, change = best["parent"][name], best["change"][name]
        print(f"{name:16} {parent:8.1f} {change:8.1f}  {change / parent:.3f}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--here"]:
        print(json.dumps(pass_here()))
        sys.exit(0)
    sys.exit(main())
