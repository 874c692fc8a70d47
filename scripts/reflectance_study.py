"""Real-frequency reflectances and their deviation from the local model.

Writes one CSV per incidence angle through the `reflectance` command and
prints the deviation extrema read back from it, the quantities bounded in
the release criteria.
"""

import argparse
import csv
import sys

from nlcasimir.cli import run

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--angles", default="45deg,60deg",
                        help="comma list, radians or 'NNdeg'")
    parser.add_argument("--omega-min", type=float, default=0.1, help="eV")
    parser.add_argument("--omega-max", type=float, default=1.0, help="eV")
    parser.add_argument("--points", type=int, default=50)
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args()

    worst = 0
    for angle in args.angles.split(","):
        angle = angle.strip()
        path = f"{args.out_dir}/reflectance_{angle.replace('.', 'p')}.csv"
        code = run(["reflectance", "--theta", angle,
                    "--omega-min", str(args.omega_min),
                    "--omega-max", str(args.omega_max),
                    "--points", str(args.points), "--out", path])
        worst = max(worst, code)
        if code:
            continue

        with open(path) as f:
            rows = list(csv.DictReader(line for line in f
                                       if not line.startswith("#")))
        tm, te = ([float(row[c]) for row in rows] for c in ("dR_TM", "dR_TE"))
        print(f"{path}: dR_TM in [{min(tm):.3g}, {max(tm):.3g}], dR_TE in "
              f"[{min(te):.3g}, {max(te):.3g}]", file=sys.stderr)
    sys.exit(worst)
