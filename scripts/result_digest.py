"""Digest the pressure results of one fixed grid in two checkouts and print what differs.

    python3 scripts/result_digest.py PARENT CHANGE

The grid is 90 result sets: five models (Drude, plasma, nonlocal, and
Drude and nonlocal with the interband core built from the optical table of
tests/conftest.py), T = 1000, 300, 77, 20, 5 and 1 K, and three (quad_tol,
term_tol) pairs, each set one casimir_pressures call on 25 separations
from 0.02 to 20 um.  A set's sha256 digest covers every pressure,
terms_used, quad_error_estimate and per_term, as hex floats, or the
error the call raised.  The grid runs in a copy of each checkout, in a
fresh interpreter with the copy's src/ on PYTHONPATH.  Both checkouts'
digests of the whole grid are printed, then each set whose digest
differs; the script exits 1 if any does.  Each checkout is copied,
without .git and caches, to a temporary directory, so nothing is written
into either one.  `result_digest.py --here` prints the set digests of
the checkout in the working directory as JSON.  numpy, and nlcasimir from
each checkout, only.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
MODELS = ("drude", "plasma", "nonlocal", "cored-drude", "cored-nonlocal")
TEMPERATURES = (1000.0, 300.0, 77.0, 20.0, 5.0, 1.0)
TOLERANCES = ((1e-9, 1e-10), (1e-12, 1e-15), (1e-6, 1e-6))
SETS = tuple(f"{model} T={temp:g} quad_tol={quad:g} term_tol={term:g}"
             for model in MODELS for temp in TEMPERATURES
             for quad, term in TOLERANCES)


def result_text(result):
    """A PressureResult's every field, floats as hex."""
    return " ".join([result.pressure.hex(), str(result.terms_used),
                     result.quad_error_estimate.hex(),
                     *(x.hex() for x in result.per_term)])


def digest_here():
    """{set: sha256 hex} of the grid, from the nlcasimir on sys.path."""
    import numpy as np
    from nlcasimir import (ConvergenceError, DomainError, Drude, Plasma,
                           PressureQuery, WithCore, build_core_table,
                           casimir_pressures, gold_default, interband_im_eps,
                           parse_optical_table)
    sys.path.insert(0, "tests")
    from conftest import OPTICAL_TEXT

    gold = gold_default()
    drude = Drude(gold.params.drude)
    core = build_core_table(
        interband_im_eps(parse_optical_table(OPTICAL_TEXT), gold.params.drude),
        np.geomspace(1e-3, 1e2, 121))
    models = dict(zip(MODELS, (drude, Plasma(gold.params.drude.omega_p), gold,
                               WithCore(drude, core), WithCore(gold, core))))
    separations = np.geomspace(0.02, 20.0, 25).tolist()
    digests = {}
    for name in SETS:
        model, temp, quad, term = name.split()
        temp, quad, term = (float(x.split("=")[1]) for x in (temp, quad, term))
        try:
            text = "\n".join(result_text(r) for r in casimir_pressures(
                [PressureQuery(a, temp, models[model], quad, term)
                 for a in separations]))
        except (ConvergenceError, DomainError) as exc:
            text = (f"{type(exc).__name__}: {exc} "
                    f"{getattr(exc, 'last_estimate', None)!r}")
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def set_digests(checkout):
    """{set: digest} of the grid in one checkout, run in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--here"],
        cwd=checkout, env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: the grid exited {done.returncode}\n"
                 f"{done.stderr.strip()}")
    return json.loads(done.stdout)


def grid_digest(digests):
    """One sha256 of every set's digest, in grid order."""
    return hashlib.sha256(" ".join(digests[name] for name in SETS)
                          .encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as scratch:
        digests = []
        for side, path in zip(SIDES, (args.parent, args.change)):
            copy = Path(scratch) / side
            shutil.copytree(path, copy, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
            digests.append(set_digests(copy))
    for side, sets in zip(SIDES, digests):
        print(f"{side} {grid_digest(sets)}")
    differ = [name for name in SETS if digests[0][name] != digests[1][name]]
    for name in differ:
        print(name)
    print(f"{len(differ)} of {len(SETS)} result sets differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--here"]:
        print(json.dumps(digest_here()))
        sys.exit(0)
    sys.exit(main())
