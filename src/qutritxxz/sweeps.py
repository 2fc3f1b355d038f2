"""Parameter sweeps, figure presets, and T=0 critical-point detection.

A sweep varies one of T, B, Dz, R over a uniform grid with everything
else fixed, recording (J, r, theta, Z, ground energy, negativity) per
point.  A B, Dz or R row constructs its ModelParams from one keyword
dict per sweep, the fixed parameters with the row's grid value set (an R
row drops a direct-J override); a T row reuses the fixed parameters.  The
thermal numbers come from one thermal state (thermal_point, the one point
evaluator, which builds no 9x9 matrix).  The Dz onset scan builds its steps
from one keyword dict per scan too; the field scan uses ModelParams.replace.
T = 0 grid points use the exact ground-level mixture, which makes the
field-sweep entanglement plateaus sharp instead of smeared by a tiny
temperature.
The T = 0 critical fields, where those plateaus jump, are exact; the
finite-T Dz onset is stepped, then narrowed by Illinois regula falsi
with a finish that straddles the root (_root_bracket).
The published figures are one table, FIGURE_PRESETS: per figure the grid,
the fixed parameters, the curve family and the plotted column.
"""

import math
import operator
from collections import namedtuple

from . import __version__
from .model import LEVEL_M, SIGN_CONVENTION_NOTE, DomainError, ModelParams, _Frozen
from .thermal import (
    GROUND_DEGENERACY_TOL,
    inverse_temperature,
    level_values,
    thermal_point,
)

CSV_COLUMNS = (
    "grid_param", "grid_value", "T", "B", "Dz", "R", "gamma",
    "J", "r", "theta", "Z", "ground_energy", "negativity",
)

#: widest Dz bracket of an onset: _root_bracket narrows the scan's step to it
BISECTION_TOL = 1e-8
#: Dz step of the onset scan, before the root finder narrows the step
DZ_SCAN_STEP = 1e-2
#: smallest negativity counted as a visible onset; finite-T negativity is
#: never exactly zero near Dz = 0, only exponentially small
ONSET_THRESHOLD = 1e-3
_B_MAX, _DZ_MAX = 5.0, 10.0    # default limits of the B and Dz critical-point scans


class SweepError(RuntimeError):
    """A grid point failed; carries the offending grid value."""

    def __init__(self, grid_value, cause):
        super().__init__(f"sweep failed at grid value {grid_value}: {cause}")
        self.grid_value = grid_value


class NoOnset(RuntimeError):
    """No DM-interaction onset: negativity already positive at Dz = 0, or
    still zero at the scan limit."""


class SweepSpec(_Frozen):
    """A grid of steps values of vary (one of T, B, Dz, R) from start to
    stop, with the parameters fixed and the temperature T (ignored when
    vary == "T") held; checked on construction."""

    def __init__(self, vary: str, start: float, stop: float, steps: int,
                 fixed: ModelParams = ModelParams(), T: float = 1.0):
        if vary not in ("T", "B", "Dz", "R"):
            raise DomainError(f"vary must be one of T, B, Dz, R; got {vary!r}")
        if not isinstance(fixed, ModelParams):
            raise DomainError(f"fixed must be a ModelParams, got {fixed!r}")
        try:    # math takes ints, floats and numpy scalars, not a str or None
            finite = math.isfinite(start) and math.isfinite(stop)
        except TypeError:
            raise DomainError(f"sweep range must be real, got [{start!r}, {stop!r}]") from None
        if not finite:
            raise DomainError(f"sweep range must be finite, got [{start}, {stop}]")
        if not start < stop:
            raise DomainError(f"need start < stop, got [{start}, {stop}]")
        try:
            steps = operator.index(steps)
        except TypeError:
            raise DomainError(f"steps must be an integer, got {steps!r}") from None
        if steps < 2:
            raise DomainError(f"need at least 2 steps, got {steps}")
        self.__dict__.update({"vary": vary, "start": start, "stop": stop, "steps": steps,
                              "fixed": fixed, "T": T})
        grid = self.grid()
        # x * 1e10 in grid() overflows above about 1.8e298
        if not all(map(math.isfinite, grid)):
            raise DomainError(f"grid values overflow when rounded to 10 decimals: "
                              f"{self.steps} steps on [{self.start}, {self.stop}]")
        if not all(a < b for a, b in zip(grid, grid[1:])):
            raise DomainError(f"grid values collide after rounding to 10 decimals: "
                              f"{self.steps} steps on [{self.start}, {self.stop}]")
        # T = 0 would silently switch a point to the ground-state mixture
        if self.vary == "T" and not grid[0] > 0:
            raise DomainError(f"temperature grid must start at T > 0 after rounding to "
                              f"10 decimals, got start {self.start}")
        if self.vary != "T":
            inverse_temperature(self.T, allow_zero=True)

    def grid(self) -> list:
        # round away last-bit noise so values print cleanly; round(y, 0) is numpy's rint
        step = (self.stop - self.start) / (self.steps - 1)
        values = [i * step + self.start for i in range(self.steps - 1)] + [self.stop]
        return [round(x * 1e10, 0) / 1e10 for x in values]


SweepResult = namedtuple("SweepResult", "rows meta")


class CriticalPoint(namedtuple("CriticalPoint", "parameter value kind bracket")):
    """A critical value of parameter (B or Dz), of kind LevelCrossing or
    NegativityOnset, inside bracket = (lo, hi)."""

    __slots__ = ()


def _point(p: ModelParams, T: float) -> dict:
    """One row: the parameters, J, r and theta as p holds them, and Z, the
    ground energy, N and, last, ln Z of one thermal state.  ln Z is not a
    CSV column; the JSON of the negativity command prints it."""
    z, ground_energy, n, ln_z = thermal_point(p, T)
    return {
        "T": T, "B": p.B, "Dz": p.Dz, "R": p.R, "gamma": p.gamma,
        "J": p.J, "r": p.r, "theta": p.theta, "Z": z,
        "ground_energy": ground_energy, "negativity": n, "ln_Z": ln_z,
    }


def run_sweep(spec: SweepSpec, label: str | None = None) -> SweepResult:
    vary, fixed = spec.vary, spec.fixed
    # the keywords of every row's ModelParams; an R row drops a direct-J override
    params = fixed._asdict()
    if vary == "R":
        params["j_override"] = None
    rows = []
    for value in spec.grid():
        if vary == "T":
            p, t = fixed, value
        else:
            params[vary] = value
            p, t = ModelParams(**params), spec.T
        try:
            rec = _point(p, t)
        except Exception as exc:
            raise SweepError(value, exc) from exc
        rec["grid_param"] = vary
        rec["grid_value"] = value
        rows.append(rec)
    meta = {
        "tool": "qutritxxz",
        "version": __version__,
        "vary": vary,
        "start": spec.start,
        "stop": spec.stop,
        "steps": spec.steps,
        "fixed": {**fixed._asdict(), "T": spec.T},
        "gamma_default_note": "gamma defaults to 1 (isotropic XXZ point)",
        "sign_convention": SIGN_CONVENTION_NOTE,
    }
    if label is not None:
        meta["label"] = label
    return SweepResult(rows=rows, meta=meta)


def _check_limit(name: str, value: float):
    """A scan limit or threshold must be finite (NaN ends a scan at once or never) and >= 0."""
    if not (math.isfinite(value) and value >= 0.0):
        raise DomainError(f"{name} must be finite and non-negative, got {value}")


def detect_critical_field(p: ModelParams, b_max: float = _B_MAX) -> list:
    """T = 0 level crossings in B on [0, b_max], exact.

    A crossing is any change of the ground-level identity; each one shows
    up as a jump in the zero-temperature entanglement plateaus.  The levels
    are lines c_i + s_i B, with c_i the levels at B = 0 and s_i their M
    (LEVEL_M, in the order of level_values at every r >= 0), so the
    crossings are the breakpoints of their lower envelope, from one level
    set.  Lines within GROUND_DEGENERACY_TOL are tied, as in
    ground_state_mixture: levels meeting at one field are one
    crossing, and a B = 0 degeneracy the field lifts is one at 0.0.
    """
    _check_limit("b_max", b_max)
    c, s = level_values(p.replace(B=0.0)), LEVEL_M
    b, e = 0.0, c
    c_min = min(c)
    tied = [i for i in range(9) if c[i] - c_min < GROUND_DEGENERACY_TOL]
    crossings = []
    while True:
        if len({s[i] for i in tied}) > 1:    # lines of different slopes meet at b
            crossings.append(b)
        # of the tied lines, the one with the smallest slope stays lowest
        k = min(tied, key=lambda i: (s[i], e[i]))
        lower = [i for i in range(9) if s[i] < s[k]]
        if not lower:
            break
        meet = [(c[i] - c[k]) / (s[k] - s[i]) for i in lower]
        b = min(meet)
        e = [ci + si * b for ci, si in zip(c, s)]
        # the first line to meet k is tied even where rounding exceeds the tolerance
        tied = [i for i, m in zip(lower, meet)
                if e[i] - e[k] < GROUND_DEGENERACY_TOL or m == b] + [k]
    return [CriticalPoint(parameter="B", value=x, kind="LevelCrossing", bracket=(x, x))
            for x in crossings if x <= b_max]


def _root_bracket(f, lo, hi, f_lo, f_hi, tol):
    """A bracket (l, h) inside [lo, hi] with f(l) <= 0 < f(h) and
    h - l <= tol, given f_lo = f(lo) <= 0 < f(hi) = f_hi.  f is never taken
    outside [lo, hi].

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 168 (1971)): each
    step takes the false-position point of the bracket, and an end kept
    for a second step in a row has its value halved.  Where a move does
    not halve |f| at the end it moves, f is flat there (as N = 0 is below a
    sudden birth) and false position would creep along it, so the steps
    bisect until that end moves with |f| halved.

    Left alone, the iteration ends on an iterate converged onto the root,
    where f may be 1e-17 or 0 and change sign under another rounding of f.
    So it finishes as Brent's zeroin does, with a last step no smaller
    than the tolerance: after a move that halved |f|, once the secant
    through the last two iterates lands within tol/8 of the newer one, f
    is taken at that secant root -+ tol/4, each clamped into [lo, hi]
    (whose values are reused there), and the pair is returned if it
    straddles the root.
    """
    a, fa, b, fb = lo, f_lo, hi, f_hi
    ga, gb = fa, fb              # the end values false position uses
    moved = 0                    # the end the last step moved: -1 a, +1 b
    flat = 0                     # the end whose last move did not halve |f|
    last = None                  # the last iterate and its f
    while b - a > tol:
        x = 0.5 * (a + b) if flat else a - ga * (b - a) / (gb - ga)
        if not a < x < b:        # ga = 0 (a plateau at f = 0), or rounding
            x = 0.5 * (a + b)
        fx = f(x)
        if fx <= 0:
            slow = fx <= 0.5 * fa
            if moved < 0:
                gb *= 0.5
            a, fa, ga, moved = x, fx, fx, -1
        else:
            slow = fx >= 0.5 * fb
            if moved > 0:
                ga *= 0.5
            b, fb, gb, moved = x, fx, fx, 1
        if slow:
            flat = moved
        else:
            if flat == moved:
                flat = 0
            if last is not None and fx != last[1]:
                guess = x - fx * (x - last[0]) / (fx - last[1])
                if abs(guess - x) <= tol / 8:
                    l, h = max(lo, guess - tol / 4), min(hi, guess + tol / 4)
                    if (f_lo if l == lo else f(l)) <= 0 < (f_hi if h == hi else f(h)):
                        return l, h
        last = x, fx
    return a, b


def detect_critical_dz(p: ModelParams, T: float, dz_max: float = _DZ_MAX,
                       threshold: float = ONSET_THRESHOLD) -> CriticalPoint:
    """Smallest Dz >= 0 where negativity exceeds the onset threshold.

    N is not monotone in Dz, so a scan by DZ_SCAN_STEP, which ends at
    dz_max itself, finds the first step across the threshold;
    _root_bracket then narrows that step to at most BISECTION_TOL,
    reusing the values at its ends.  The onset is the bracket's middle."""
    inverse_temperature(T)
    _check_limit("dz_max", dz_max)
    _check_limit("threshold", threshold)
    params = p._asdict()

    def n_at(dz):
        params["Dz"] = dz
        return thermal_point(ModelParams(**params), T)[2]

    lo, n_lo = 0.0, n_at(0.0)
    if n_lo > threshold:
        raise NoOnset(f"negativity already exceeds {threshold} at Dz = 0")
    while True:
        hi = min(lo + DZ_SCAN_STEP, dz_max)
        n_hi = n_at(hi)
        if n_hi > threshold:
            break
        if hi == dz_max:
            raise NoOnset(f"negativity stays below {threshold} up to Dz = {dz_max}")
        lo, n_lo = hi, n_hi
    lo, hi = _root_bracket(lambda dz: n_at(dz) - threshold, lo, hi,
                           n_lo - threshold, n_hi - threshold, BISECTION_TOL)
    return CriticalPoint(parameter="Dz", value=0.5 * (lo + hi),
                         kind="NegativityOnset", bracket=(lo, hi))


class Preset(namedtuple("Preset", "vary start stop steps fixed curves T y",
                        defaults=(1.0, "negativity"))):
    """One published figure: a sweep grid, the parameters held fixed, and
    its curves as (label, overrides) pairs; an override of "T" sets that
    curve's sweep temperature.  y is the column the figure plots."""

    __slots__ = ()


def _family(key: str, values) -> tuple:
    return tuple((f"{key}={v}", {key: v}) for v in values)


# Curve-family values the captions leave open are fixed choices; they are
# echoed into each SweepResult's meta.  fig1's grid step 0.05 puts the HF
# maximum R = 1.25 on-grid.
_mk = ModelParams
FIGURE_PRESETS = {
    "fig1": Preset("R", 0.05, 8.0, 160, _mk(R=1.0), (("J(R)", {}),), y="J"),
    "fig2a": Preset("T", 0.04, 3.0, 150, _mk(Dz=1.0, B=1.0), _family("R", (0.3, 0.6, 0.9))),
    "fig2b": Preset("T", 0.04, 3.0, 150, _mk(R=0.5, Dz=1.0),
                    _family("B", (0.0, 0.3, 0.6, 0.9, 1.2))),
    "fig3a": Preset("Dz", -4.0, 4.0, 161, _mk(R=1.0, B=1.0), _family("T", (0.08, 0.3, 0.6, 1.0))),
    "fig3b": Preset("Dz", -4.0, 4.0, 161, _mk(B=0.5), _family("R", (0.3, 0.6, 0.9)), T=0.08),
    "fig3c": Preset("Dz", -4.0, 4.0, 161, _mk(R=0.5), _family("B", (0.5, 0.8, 1.1)), T=0.08),
    "fig4a": Preset("R", 0.05, 8.0, 160, _mk(R=1.0, Dz=1.0, B=1.0),
                    _family("T", (0.04, 0.08, 0.12, 0.5))),
    "fig4b": Preset("B", 0.0, 2.0, 161, _mk(R=1.0, Dz=1.0), _family("T", (0.04, 0.08, 0.12, 0.5))),
    "fig4c": Preset("B", 0.0, 2.0, 161, _mk(R=1.0, Dz=1.0), (("T=0", {}),), T=0.0),
}
FIGURE_NAMES = tuple(FIGURE_PRESETS)


def figure_preset(name: str) -> list:
    """Sweep families reproducing the published figures; returns a list of
    labeled SweepResult curves."""
    if name not in FIGURE_PRESETS:
        raise ValueError(f"unknown figure preset {name!r}")
    f = FIGURE_PRESETS[name]
    results = []
    for label, overrides in f.curves:
        params = {k: v for k, v in overrides.items() if k != "T"}
        spec = SweepSpec(vary=f.vary, start=f.start, stop=f.stop, steps=f.steps,
                         fixed=f.fixed.replace(**params), T=overrides.get("T", f.T))
        results.append(run_sweep(spec, label=label))
    return results
