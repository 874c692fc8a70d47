"""Digest the pressure results of one fixed grid in two checkouts and print what differs.

    python3 scripts/result_digest.py PARENT CHANGE

The grid is 91 result sets: five models (Drude, plasma, nonlocal, and
Drude and nonlocal with the interband core built from the optical table of
tests/conftest.py), T = 1000, 300, 77, 20, 5 and 1 K, and three (quad_tol,
term_tol) pairs, each set one casimir_pressures call on 25 separations
from 0.02 to 20 um, and one set whose call raises: nonlocal at a = 1e-93
um, T = 1e30 K, a query inside PressureQuery's domain whose wavevector
quadrature stalls.  A set's sha256 digest covers every pressure,
terms_used, quad_error_estimate and per_term, as hex floats, or the
type, message and last_estimate of the error the call raised.  The grid
runs in a copy of each checkout, in a fresh interpreter with the copy's
src/ on PYTHONPATH.  Both checkouts' digests of the whole grid are
printed, then each set whose digest differs; the script exits 1 if any
does.  Each checkout is copied, without .git and caches, to a temporary
directory, so nothing is written into either one.  `result_digest.py
--here` prints the set digests of the checkout in the working directory
as JSON.  scripts/pass_cost.py builds its models, copies and runs from
models_here, copy_checkouts and run_here.  numpy, and nlcasimir from
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
# a set names its model and key=value fields; without an a= it takes the
# grid's 25 separations
RAISING = "nonlocal a=1e-93 T=1e+30 quad_tol=1e-09 term_tol=1e-10"
SETS = tuple(f"{model} T={temp:g} quad_tol={quad:g} term_tol={term:g}"
             for model in MODELS for temp in TEMPERATURES
             for quad, term in TOLERANCES) + (RAISING,)


def result_text(result):
    """A PressureResult's every field, floats as hex."""
    return " ".join([result.pressure.hex(), str(result.terms_used),
                     result.quad_error_estimate.hex(),
                     *(x.hex() for x in result.per_term)])


def models_here():
    """{name: model} of MODELS, from the nlcasimir on sys.path; the cored
    models take the core of tests/conftest.py's optical table."""
    import numpy as np
    from nlcasimir import (Drude, Plasma, WithCore, build_core_table,
                           gold_default, interband_im_eps, parse_optical_table)
    sys.path.insert(0, "tests")
    from conftest import OPTICAL_TEXT

    gold = gold_default()
    drude = Drude(gold.params.drude)
    # the grid is for checkouts whose build_core_table still samples the
    # core on it; one that builds Lorentz lines does not read it
    core = build_core_table(
        interband_im_eps(parse_optical_table(OPTICAL_TEXT), gold.params.drude),
        np.geomspace(1e-3, 1e2, 121))
    return dict(zip(MODELS, (drude, Plasma(gold.params.drude.omega_p), gold,
                             WithCore(drude, core), WithCore(gold, core))))


def digest_here():
    """{set: sha256 hex} of the grid, from the nlcasimir on sys.path."""
    import numpy as np
    models = models_here()
    separations = np.geomspace(0.02, 20.0, 25).tolist()
    return {name: hashlib.sha256(set_text(name, models, separations)
                                 .encode()).hexdigest() for name in SETS}


def set_text(name, models, separations):
    """The text a set's digest covers: its results, or the error raised."""
    from nlcasimir import (ConvergenceError, DomainError, PressureQuery,
                           casimir_pressures)
    model, *fields = name.split()
    fields = {key: float(value) for key, value in
              (field.split("=") for field in fields)}
    try:
        return "\n".join(result_text(r) for r in casimir_pressures(
            [PressureQuery(a, fields["T"], models[model], fields["quad_tol"],
                           fields["term_tol"])
             for a in ([fields["a"]] if "a" in fields else separations)]))
    except (ConvergenceError, DomainError) as exc:
        return (f"{type(exc).__name__}: {exc} "
                f"{getattr(exc, 'last_estimate', None)!r}")


def copy_checkouts(paths, scratch):
    """{side: a copy of its checkout in the directory scratch}, made
    without .git and caches, so nothing is written into a checkout."""
    copies = {}
    for side, path in zip(SIDES, paths):
        copies[side] = Path(scratch) / side
        shutil.copytree(path, copies[side], ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
    return copies


def run_here(script, checkout):
    """The JSON that `script --here` prints in checkout, run in a fresh
    interpreter with the checkout's src/ on PYTHONPATH."""
    done = subprocess.run(
        [sys.executable, str(Path(script).resolve()), "--here"],
        cwd=checkout, env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: {Path(script).name} --here exited "
                 f"{done.returncode}\n{done.stderr.strip()}")
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
        digests = [run_here(__file__, copy) for copy in
                   copy_checkouts((args.parent, args.change), scratch).values()]
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
