"""Command-line interface.

Subcommands: spectrum, negativity, sweep, figure, critical, validate.
Exit codes: 0 success, 2 invalid arguments, 3 numerical failure,
4 validation failure.

main(argv) may be called any number of times in one process.  The
argparse parser is built on the first call and reused by every later
one; importing this module builds nothing.  build_parser() returns that
shared parser, so callers must not mutate it.
"""

import argparse
import functools
import json
from dataclasses import asdict
import re
import sys

from . import __version__
from .matkernel import NoConvergence, eigvalsh
from .model import (
    HF_RANGE,
    DomainError,
    ModelParams,
    analytic_spectrum,
    hamiltonian_tensor,
)
from .output import _fmt, csv_text, emit_csv, emit_svg, json_text, write_text
from .sweeps import (
    FIGURE_NAMES,
    FIGURE_PRESETS,
    ONSET_THRESHOLD,
    _B_MAX,
    _DZ_MAX,
    NoOnset,
    SweepError,
    SweepSpec,
    _point,
    detect_critical_dz,
    detect_critical_field,
    figure_preset,
    run_sweep,
)
from .thermal import level_values
from .validate import validate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4

_PARAM_KEYS = ("R", "B", "Dz", "gamma", "T", "J")


class _Parser(argparse.ArgumentParser):
    """Takes "--Dz -6.9e-05" and "--B -inf" as a flag and its value.
    argparse's own negative-number pattern has no exponent, inf or nan
    form, so it would read the value as a second option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)


def _add_common(parser, temperature=True):
    parser.add_argument("--R", type=float, default=None, help="HF coupling distance")
    parser.add_argument("--J", type=float, default=None,
                        help="direct exchange coupling (mutually exclusive with --R)")
    parser.add_argument("--B", type=float, default=None, help="uniform magnetic field")
    parser.add_argument("--Dz", type=float, default=None, help="z-axis DM strength")
    parser.add_argument("--gamma", type=float, default=None, help="anisotropy (default 1)")
    if temperature:
        parser.add_argument("--T", type=float, default=None, help="temperature (k_B = 1)")
    parser.add_argument("--config", default=None, help="JSON config file; flags override it")
    parser.add_argument("--out", default=None, help="output file (default stdout)")


@functools.cache
def build_parser():
    """The one parser of this process: built on the first call, shared
    after it (parse_args leaves it unchanged)."""
    parser = _Parser(
        prog="qutritxxz",
        description="Thermal entanglement (negativity) of a two-qutrit XXZ pair "
                    "with z-axis DM interaction and Herring-Flicker coupling",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="closed-form spectrum plus numeric cross-check")
    ng = sub.add_parser("negativity", help="thermal negativity at a single point")
    _add_common(sp, temperature=False)
    _add_common(ng)
    for point in (sp, ng):
        point.add_argument("--format", choices=("csv", "json"), default="csv")

    sw = sub.add_parser("sweep", help="vary one parameter over a grid")
    _add_common(sw)
    sw.add_argument("--vary", required=True, choices=("T", "B", "Dz", "R"))
    sw.add_argument("--from", dest="start", type=float, required=True)
    sw.add_argument("--to", dest="stop", type=float, required=True)
    sw.add_argument("--steps", type=int, required=True)

    fg = sub.add_parser("figure", help="published figure sweep presets")
    fg.add_argument("name", choices=FIGURE_NAMES)
    fg.add_argument("--out", default=None, help="output file (default stdout)")
    for grid in (sw, fg):
        grid.add_argument("--svg", default=None, help="also write an SVG chart here")

    cr = sub.add_parser("critical", help="critical-point detection")
    _add_common(cr)
    cr.add_argument("--axis", required=True, choices=("B", "Dz"),
                    help="B: T=0 ground-level crossings (takes no --T); "
                         "Dz: negativity onset at --T")
    cr.add_argument("--max", dest="axis_max", type=float, default=None,
                    help=f"scan limit (default {_B_MAX:g} for B, {_DZ_MAX:g} for Dz)")
    cr.add_argument("--threshold", type=float, default=None,
                    help="onset negativity threshold, only with --axis Dz "
                         f"(default {ONSET_THRESHOLD})")

    va = sub.add_parser("validate", help="run the full cross-validation suite")
    va.add_argument("--format", choices=("text", "json"), default="text")
    va.add_argument("--fast", action="store_true", help="reduced draw counts")
    va.add_argument("--out", default=None)
    return parser


def _load_config(path):
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise DomainError(f"config must be a JSON object, got {type(cfg).__name__}")
    unknown = set(cfg) - set(_PARAM_KEYS)
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    for key, value in cfg.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DomainError(f"config value {key} must be a number, got {value!r}")
        try:
            cfg[key] = float(value)
        except OverflowError:
            raise DomainError(f"config value {key} is too large for a float") from None
    return cfg


def _resolve(args, unused=()):
    """Merge config file and flags into (ModelParams, T); flags win.  The
    keys in unused, which the command sets itself (a scanned parameter,
    J beside a scanned R) or does not use (T), are rejected from either."""
    cfg = _load_config(args.config) if args.config else {}

    def pick(key, default):
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        return cfg.get(key, default)

    for key in unused:
        if pick(key, None) is not None:
            if key == "T":
                raise DomainError("a temperature was given, but this command does not use one")
            raise DomainError(f"a value of {key} was given, but this command scans "
                              f"{'R' if key == 'J' else key} itself")

    r_val, j_val = pick("R", None), pick("J", None)
    if r_val is not None and j_val is not None:
        raise DomainError("--R and --J are mutually exclusive")
    if j_val is not None:
        p = ModelParams(R=1.0, gamma=pick("gamma", 1.0), Dz=pick("Dz", 0.0),
                        B=pick("B", 0.0), j_override=j_val)
    else:
        p = ModelParams(R=r_val if r_val is not None else 0.5,
                        gamma=pick("gamma", 1.0), Dz=pick("Dz", 0.0), B=pick("B", 0.0))
        if not p.in_hf_window():
            lo, hi = HF_RANGE
            print(f"warning: R = {p.R} outside the HF validity window ({lo}, {hi}); "
                  "J(R) is essentially zero there", file=sys.stderr)
    return p, pick("T", 1.0)


def _write(text, out):
    text = text if text.endswith("\n") else text + "\n"
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _cmd_spectrum(args):
    p, _ = _resolve(args, unused=("T",))
    if p.r == 0.0:
        eps, chi1, chi2 = level_values(p), None, None
    else:
        spec = analytic_spectrum(p)
        eps, chi1, chi2 = spec.eps.tolist(), spec.chi1, spec.chi2
    numeric = eigvalsh(hamiltonian_tensor(p)).tolist()
    gap = max(abs(a - b) for a, b in zip(sorted(eps), numeric))
    if args.format == "json":
        payload = {
            "params": {"R": p.R, "gamma": p.gamma, "Dz": p.Dz, "B": p.B,
                       "J": p.J, "r": p.r, "theta": p.theta},
            "eigenvalues": {f"eps{i + 1}": e for i, e in enumerate(eps)},
            "chi1": chi1,
            "chi2": chi2,
            "numeric_sorted": numeric,
            "max_gap_vs_numeric": gap,
        }
        _write(json_text(payload), args.out)
    else:
        lines = ["label,eigenvalue"]
        lines += [f"eps{i + 1},{_fmt(e)}" for i, e in enumerate(eps)]
        lines.append(f"max_gap_vs_numeric,{_fmt(gap)}")
        _write("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_negativity(args):
    p, t = _resolve(args)
    # ln Z stays finite where Z overflows; the CSV keeps its fixed header
    row = {"grid_param": "T", "grid_value": t, **_point(p, t)}
    if args.format == "json":
        _write(json_text(row), args.out)
    else:
        _write(csv_text([row]), args.out)
    return EXIT_OK


def _emit(results, args, y="negativity"):
    if args.out:
        emit_csv(results, args.out)
    else:
        sys.stdout.write(csv_text(row for res in results for row in res.rows))
    if args.svg:
        emit_svg(results, args.svg, y_column=y)


def _cmd_sweep(args):
    # a J would replace the J(R) that an R sweep varies
    p, t = _resolve(args, unused=("R", "J") if args.vary == "R" else (args.vary,))
    spec = SweepSpec(vary=args.vary, start=args.start, stop=args.stop,
                     steps=args.steps, fixed=p, T=t)
    _emit([run_sweep(spec)], args)
    return EXIT_OK


def _cmd_figure(args):
    _emit(figure_preset(args.name), args, y=FIGURE_PRESETS[args.name].y)
    return EXIT_OK


def _cmd_critical(args):
    p, t = _resolve(args, unused=("T", "B") if args.axis == "B" else ("Dz",))
    # pass on only the values given; the sweeps signatures hold the defaults
    given = {"b_max" if args.axis == "B" else "dz_max": args.axis_max, "threshold": args.threshold}
    given = {name: value for name, value in given.items() if value is not None}
    if args.axis == "B":
        if "threshold" in given:
            raise DomainError("--threshold is taken only with --axis Dz")
        points = [asdict(cp) for cp in detect_critical_field(p, **given)]
        _write(json_text(points), args.out)
        return EXIT_OK
    try:
        cp = detect_critical_dz(p, t, **given)
    except NoOnset as exc:
        _write(json_text({"error": "NoOnset", "detail": str(exc)}), args.out)
        return EXIT_OK
    _write(json_text(asdict(cp)), args.out)
    return EXIT_OK


def _cmd_validate(args):
    report = validate(fast=args.fast)
    if args.format == "json":
        _write(json_text(report), args.out)
    else:
        lines = []
        for c in report["checks"]:
            status = "PASS" if c["passed"] else "FAIL"
            line = (f"{status}  {c['name']}  residual={c['worst_residual']:.3e}  "
                    f"tol={c['tolerance']:.0e}")
            if c["detail"]:
                line += f"  ({c['detail']})"
            lines.append(line)
        lines.append(f"{'ALL CHECKS PASSED' if report['passed'] else 'VALIDATION FAILED'} "
                     f"in {report['elapsed_seconds']:.1f}s")
        _write("\n".join(lines), args.out)
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "negativity": _cmd_negativity,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "critical": _cmd_critical,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    # ValueError covers DomainError, DegenerateCoupling, InvalidState and a bad JSON config
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoConvergence, SweepError, FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
