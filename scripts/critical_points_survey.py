#!/usr/bin/env python3
"""Survey critical magnetic fields and Dz onset values over a grid of
qutrit separations R.

For each R the script reports the ground-level crossings in B (where the
zero-temperature negativity changes plateau) and the smallest Dz at which
the low-temperature negativity rises above the onset threshold.

Usage:
    python3 scripts/critical_points_survey.py [--r-values 0.3 0.6 0.9 ...]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qutritxxz.model import ModelParams
from qutritxxz.sweeps import NoOnset, detect_critical_dz, detect_critical_field


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--r-values", nargs="+", type=float,
                    default=[0.3, 0.5, 0.6, 0.9, 1.0, 1.25])
    ap.add_argument("--dz", type=float, default=1.0,
                    help="Dz used for the field-crossing scan")
    ap.add_argument("--b", type=float, default=0.5,
                    help="field used for the Dz-onset scan")
    ap.add_argument("--temperature", type=float, default=0.08,
                    help="temperature for the Dz-onset scan")
    ap.add_argument("--b-max", type=float, default=2.0)
    args = ap.parse_args(argv)

    print(f"{'R':>6}  {'B crossings (Dz=' + repr(args.dz) + ')':<34}  "
          f"Dz onset (B={args.b!r}, T={args.temperature!r})")
    for r in args.r_values:
        fields = detect_critical_field(ModelParams(R=r, Dz=args.dz),
                                       b_max=args.b_max)
        crossings = ", ".join(f"{cp.value:.6f}" for cp in fields) or "none"
        try:
            onset = detect_critical_dz(ModelParams(R=r, B=args.b),
                                       T=args.temperature)
            onset_text = f"{onset.value:.6f}"
        except NoOnset as exc:
            onset_text = str(exc)
        print(f"{r:>6.2f}  {crossings:<34}  {onset_text}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
