#!/usr/bin/env python3
"""Run the self-validation battery and print a per-check report.

Usage:
    python3 scripts/run_validation.py [--fast] [--json]

Exits 0 when every check passes, 4 otherwise, as `qutritxxz validate` does.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qutritxxz.cli import EXIT_VALIDATION
from qutritxxz.validate import validate


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fast", action="store_true",
                    help="reduced draw counts for a quick smoke run")
    ap.add_argument("--json", action="store_true",
                    help="emit the raw report as JSON instead of text")
    args = ap.parse_args(argv)

    report = validate(fast=args.fast)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for check in report["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"{status}  {check['name']}: {check['detail']}")
        verdict = "ALL CHECKS PASSED" if report["passed"] else "CHECKS FAILED"
        print(f"{verdict} in {report['elapsed_seconds']:.2f}s")
    return 0 if report["passed"] else EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
