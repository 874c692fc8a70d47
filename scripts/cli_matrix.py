"""Run one fixed matrix of CLI commands in two checkouts and print what differs.

    python3 scripts/cli_matrix.py PARENT CHANGE

Every command of MATRIX runs as `python -m nlcasimir` in a copy of each
checkout, with the copy's src/ on PYTHONPATH.  The matrix covers every
subcommand, kk-verify at nine wavevectors and on relation subsets in both
orders, pressure sweeps at 1 K (the cold_local benchmark, and cored
models) and 300 K, CSV, JSON and --out, and commands that exit 1 and 2.
Each command whose exit code, stdout, stderr or --out file differs
between the two is printed with the first line that differs; the script
exits 1 if any does.  Each checkout is copied, without .git and caches,
to a temporary directory (scripts/result_digest.py's copy_checkouts), so
nothing is written into either one.  Standard library only.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from result_digest import SIDES, copy_checkouts

FIELDS = ("exit code", "stdout", "stderr", "--out file")
OUT, OPTICAL, EXPT = "matrix_out.txt", "matrix_optical.txt", "matrix_expt.csv"
# data files written into both copies before the matrix runs
DATA = {
    OPTICAL: "0.5 1.20 9.00\n1.0 0.80 6.50\n2.0 0.90 3.90\n"
             "4.0 1.55 1.90\n6.0 1.30 1.40\n",
    EXPT: "a_um, Fprime, sigma\n0.80, 6.0e-6, 2.0e-7\n1.20, 2.0e-6, 1.0e-7\n",
}
KPERPS = ("0", "0.05", "0.1", "0.2", "0.5", "1", "2", "5", "7.9")
SUBSETS = ("t-imag-axis", "l-imag-from-real",
           "t-real-from-imag,t-imag-from-real,t-imag-axis",
           "t-imag-axis,t-imag-from-real,t-real-from-imag",
           "l-real-from-imag,l-imag-axis", "l-imag-axis,l-real-from-imag",
           "t-imag-axis,l-real-from-imag", "l-real-from-imag,t-imag-axis",
           "l-imag-axis,l-imag-from-real,l-real-from-imag,t-imag-axis,"
           "t-imag-from-real,t-real-from-imag",
           "t-imag-axis,t-imag-axis")
MATRIX = (
    *(["kk-verify", "--kperp", k] for k in KPERPS),
    *(["kk-verify", "--kperp", "0.2", "--relations", s] for s in SUBSETS),
    ["kk-verify", "--kperp", "1", "--format", "csv"],
    ["kk-verify", "--kperp", "0.5", "--out", OUT],
    ["kk-verify", "--kperp", "0.2", "--format", "csv", "--out", OUT],
    ["kk-verify", "--kperp", "0.2", "--vl", "0"],
    ["kk-verify", "--kperp", "0.2", "--gamma", "0"],
    ["kk-verify", "--kperp", "0.2", "--gamma", "0", "--relations",
     "l-real-from-imag,l-imag-from-real,l-imag-axis"],
    ["kk-verify", "--gamma", "0", "--relations", "l-imag-axis,t-imag-axis"],
    ["kk-verify", "--relations", "eq-31"],
    ["kk-verify", "--relations", "t-imag-axis,eq-31,l-bad"],
    ["kk-verify", "--relations", ","],
    ["kk-verify", "--relations", "t-imag-axis", "--format", "csv",
     "--optical-data", OPTICAL],
    ["kk-verify", "--kperp", "nan"],
    ["kk-verify", "--kperp", "-1"],
    ["epsilon", "--points", "5"],
    ["epsilon", "--axis", "real", "--kperp", "0.3", "--points", "5",
     "--format", "json"],
    ["epsilon", "--optical-data", OPTICAL, "--points", "4"],
    ["epsilon", "--axis", "real", "--gamma", "0", "--omega-min", "2e-154",
     "--omega-max", "2e-154", "--points", "1"],
    ["epsilon", "--omega-max", "nan"],
    ["pressure", "--a-min", "0.5", "--a-max", "2", "--points", "3"],
    ["pressure", "--models", "drude,nonlocal", "--temp", "1", "--a-min", "1",
     "--a-max", "1", "--points", "1", "--format", "json"],
    ["pressure", "--a-min", "1", "--a-max", "inf", "--points", "2"],
    # the cold_local benchmark, and a 300 K sweep on both paths whose
    # direct sums end next to their predicted last row
    ["pressure", "--models", "drude,plasma", "--temp", "1", "--a-min", "0.5",
     "--a-max", "3", "--points", "30"],
    ["pressure", "--models", "drude,nonlocal,plasma", "--a-min", "0.02",
     "--a-max", "20", "--points", "60"],
    # cored models at 1 K, on the Euler-Maclaurin path
    ["pressure", "--models", "drude,nonlocal", "--temp", "1",
     "--optical-data", OPTICAL, "--a-min", "0.5", "--a-max", "3",
     "--points", "3"],
    # Drude at gamma = 0 is plasma, the static term included
    ["pressure", "--models", "drude,plasma", "--gamma", "0", "--a-min", "1",
     "--a-max", "3", "--points", "3"],
    ["gradient", "--radius", "150", "--points", "3"],
    ["gradient", "--radius", "150", "--model", "drude", "--expt", EXPT,
     "--out", OUT],
    ["reflectance", "--theta", "30deg", "--points", "4"],
    ["reflectance", "--theta", "0.3", "--points", "3", "--format", "json"],
    ["reflectance", "--theta", "0.3", "--optical-data", OPTICAL],
)


def run_command(checkout, argv):
    """(exit code, stdout, stderr, --out file text or None) of one command."""
    out = checkout / OUT
    out.unlink(missing_ok=True)
    done = subprocess.run(
        [sys.executable, "-m", "nlcasimir", *argv], cwd=checkout,
        env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        capture_output=True, text=True)
    return (done.returncode, done.stdout, done.stderr,
            out.read_text() if out.exists() else None)


def first_difference(a, b):
    """The first line in which two results differ, as 'parent | change'."""
    if not (isinstance(a, str) and isinstance(b, str)):
        return f"{a!r} | {b!r}"
    lines = zip(a.splitlines() + [""], b.splitlines() + [""])
    return next((f"{x!r} | {y!r}" for x, y in lines if x != y),
                "line endings differ")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    differ = 0
    with tempfile.TemporaryDirectory() as scratch:
        copies = copy_checkouts((args.parent, args.change), scratch)
        for copy in copies.values():
            for name, text in DATA.items():
                (copy / name).write_text(text)
        for command in MATRIX:
            parent, change = (run_command(copies[side], command)
                              for side in SIDES)
            diffs = [f"  {field}: {first_difference(a, b)}"
                     for field, a, b in zip(FIELDS, parent, change) if a != b]
            if diffs:
                differ += 1
                print(" ".join(["nlcasimir", *command]), *diffs, sep="\n")
    print(f"{differ} of {len(MATRIX)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
