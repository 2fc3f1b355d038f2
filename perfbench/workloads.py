"""The four benchmark workloads and the oracle checks on their outputs.

A workload builds its fixed work from the seed as a list of public calls,
``calls``: one pass runs each of them once, and the harness in run.py
times every call.  After the pass, outside the timed region, ``check``
verifies what the calls returned or wrote, and ``info`` reports counts
for the traced run.  Library functions are looked up on their modules at
call time, so the span recorder's wrappers see every call.

Each workload fixes the percentile that ``call_tail_ms`` reports.  Its
minimum pass count leaves at least ten call samples beyond that percentile
in every run, and the percentile does not change with how many passes fit
into a run.

Oracles re-derive values by the second route the library keeps for
cross-checks (the Jacobi kernel, never a LAPACK eigenroutine) and compare
them as numbers within 1e-10.
"""

import csv
import io
import json
import math
import random
import re

NEGATIVE_EIG_TOL = 1e-12   # entanglement.NEGATIVE_EIG_TOL
TOL = 1e-10

FIGURE_ROWS = {"fig1": 160, "fig2a": 450, "fig2b": 750, "fig3a": 644, "fig3b": 483,
               "fig3c": 483, "fig4a": 640, "fig4b": 644, "fig4c": 161}

_NEG_ZERO = re.compile(r"(?<![\w.])-0\.0(?![\w.])")
_NP_REPR = re.compile(r"^np\.float64\((.*)\)$")


class CallFailed:
    """Stands in for the result of a public call that raised."""

    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return f"CallFailed({self.exc!r})"


class Outcome:
    """Counts of attempted and failed items, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def item(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


def oracle_negativity(lib, rho):
    """Negativity by partial_transpose and the Jacobi kernel."""
    w = lib.matkernel.hermitian_eig(lib.entanglement.partial_transpose(rho)).eigenvalues
    return float(-w[w < -NEGATIVE_EIG_TOL].sum())


def _close(a, b, tol=TOL, relative=False):
    if math.isinf(a) or math.isinf(b):
        return a == b
    scale = max(abs(a), abs(b), 1.0) if relative else 1.0
    return abs(a - b) <= tol * scale


def _number(token):
    """Parse one output token as a float; a numpy repr such as
    ``np.float64(1.5)`` is read as the number it names."""
    m = _NP_REPR.match(token)
    return float(m.group(1) if m else token)


class Figures:
    """All nine presets through figure_preset, emit_csv and emit_svg."""

    name = "figures"
    min_passes = 5
    tail_percentile = 75.0
    warm_up_note = "fig1 and fig4c once (closed-form and T=0 routes), untimed"
    oracle_rows = 16
    oracle_t0_rows = 4

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.rng = random.Random(seed)
        self.order = list(lib.sweeps.FIGURE_NAMES)
        self.rng.shuffle(self.order)
        self.workdir = workdir
        self.points = sum(FIGURE_ROWS.values())
        self.calls = [lambda n=n: self._preset(n) for n in self.order]

    def _preset(self, name):
        lib = self.lib
        res = lib.sweeps.figure_preset(name)
        lib.output.emit_csv(res, self.workdir / f"{name}.csv")
        lib.output.emit_svg(res, self.workdir / f"{name}.svg",
                            y_column="J" if name == "fig1" else "negativity")
        return res

    def warm_up(self):
        for name in ("fig1", "fig4c"):
            self._preset(name)

    def info(self, results):
        done = [(n, res) for n, res in zip(self.order, results)
                if not isinstance(res, CallFailed)]
        return {
            "sweep_rows": sum(len(r.rows) for _, res in done for r in res),
            "csv_bytes": sum((self.workdir / f"{n}.csv").stat().st_size
                             + (self.workdir / f"{n}.csv.meta.json").stat().st_size
                             for n, _ in done),
            "svg_bytes": sum((self.workdir / f"{n}.svg").stat().st_size for n, _ in done),
        }

    def check(self, outcome, results):
        rows = []
        for name, res in zip(self.order, results):
            if isinstance(res, CallFailed):
                outcome.item(False, f"{name}: {res!r}")
                continue
            problem = self._check_files(name, res)
            outcome.item(problem is None, f"{name}: {problem}")
            rows += [(name, row) for r in res for row in r.rows]
        t0_rows = [x for x in rows if x[1]["T"] == 0.0]
        hot_rows = [x for x in rows if x[1]["T"] != 0.0]
        picks = (self.rng.sample(hot_rows, min(self.oracle_rows, len(hot_rows)))
                 + self.rng.sample(t0_rows, min(self.oracle_t0_rows, len(t0_rows))))
        for name, row in picks:
            problem = self._check_row(row)
            outcome.item(problem is None, f"{name} row {row['grid_value']}: {problem}")

    def _check_files(self, name, res):
        cols = self.lib.sweeps.CSV_COLUMNS
        rows = [row for r in res for row in r.rows]
        if len(rows) != FIGURE_ROWS[name]:
            return f"{len(rows)} rows, expected {FIGURE_ROWS[name]}"
        table = list(csv.reader(io.StringIO((self.workdir / f"{name}.csv").read_text())))
        if tuple(table[0]) != cols or len(table) != len(rows) + 1:
            return "CSV header or row count differs from the sweep"
        for row, line in zip(rows, table[1:]):
            for col, token in zip(cols, line):
                if isinstance(row[col], float) and _number(token) != row[col]:
                    return f"CSV {col}={token} differs from {row[col]!r}"
        meta = json.loads((self.workdir / f"{name}.csv.meta.json").read_text())
        svg = (self.workdir / f"{name}.svg").read_text()
        if len(meta) != len(res) or svg.count("<polyline") != len(res):
            return "meta or SVG curve count differs from the sweep"
        if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
            return "SVG is not a complete document"
        return None

    def _check_row(self, row):
        lib = self.lib
        p = lib.model.ModelParams(R=row["R"], gamma=row["gamma"], Dz=row["Dz"], B=row["B"])
        if row["T"] == 0.0:
            state = lib.thermal.ground_state_mixture(p)
        else:
            state = lib.thermal.gibbs_numeric(p, row["T"])
            if not _close(state.Z, row["Z"], relative=True):
                return f"Z {row['Z']!r} vs numeric route {state.Z!r}"
        n = oracle_negativity(lib, state.rho)
        if not _close(n, row["negativity"]):
            return f"negativity {row['negativity']!r} vs oracle {n!r}"
        return None


class Validate:
    """The full validate battery with its full-mode draw counts, run through
    the public check_* functions with seeds drawn from the workload seed.
    A check of more than 100 draws runs as calls of 100 draws, each with its
    own seed, so that no call is long next to the host-speed samples around
    it (see calibrate.py)."""

    name = "validate"
    min_passes = 6
    tail_percentile = 90.0
    warm_up_note = "each check once with the fast-mode draw counts, untimed"
    chunk = 100
    # full- and fast-mode draw counts of validate.validate
    draws = {"check_spectrum": 1000, "check_hamiltonian_routes": 100,
             "check_gibbs_routes": 200, "check_symmetries": 20}
    fast_draws = {"check_spectrum": 100, "check_hamiltonian_routes": 20,
                  "check_gibbs_routes": 40, "check_symmetries": 5}
    order = ("check_spectrum", "check_hamiltonian_routes", "check_gibbs_routes",
             "check_symmetries", "check_oracle", "check_hf_maximum", "check_headline",
             "check_critical_field")
    seeded = ("check_spectrum", "check_hamiltonian_routes", "check_gibbs_routes",
              "check_symmetries", "check_oracle")

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        rng = random.Random(seed)
        self.plan = []    # (check, keyword arguments) of each call
        for name in self.order:
            n = self.draws.get(name)
            for size in (range(n, 0, -self.chunk) if n else [None]):
                kw = {"seed": rng.randrange(2**32)} if name in self.seeded else {}
                if size is not None:
                    kw["n_draws"] = min(size, self.chunk)
                self.plan.append((name, kw))
        # random parameter draws per pass; check_oracle draws five
        self.points = sum(self.draws.values()) + 5
        self.calls = [lambda n=n, kw=kw: getattr(self.lib.validate, n)(**kw)
                      for n, kw in self.plan]

    def warm_up(self):
        for name in self.order:
            kw = {"n_draws": self.fast_draws[name]} if name in self.fast_draws else {}
            getattr(self.lib.validate, name)(**kw)

    def info(self, results):
        return {}

    def check(self, outcome, results):
        for (name, kw), res in zip(self.plan, results):
            if isinstance(res, CallFailed):
                outcome.item(False, f"{name}({kw}): {res!r}")
                continue
            for c in res:
                outcome.item(c.passed, f"{c.name}({kw}): residual {c.worst_residual!r} "
                                       f"tol {c.tolerance!r} {c.detail}")


class Critical:
    """A critical-point survey over seed-drawn separations R in [0.2, 3]:
    one field scan and one Dz-onset scan per R."""

    name = "critical"
    min_passes = 5
    tail_percentile = 95.0
    warm_up_note = "both scans at R = 1, untimed"
    n_values = 24
    r_range = (0.2, 3.0)
    # the survey settings of scripts/critical_points_survey.py
    dz = 1.0
    b_max = 2.0
    onset_B = 0.5
    onset_T = 0.08
    dz_max = 10.0     # detect_critical_dz default

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        rng = random.Random(seed)
        lo, hi = self.r_range
        width = (hi - lo) / self.n_values
        # one draw per stratum keeps the scan mix alike across seeds
        r_values = [lo + (i + rng.random()) * width for i in range(self.n_values)]
        rng.shuffle(r_values)
        self.points = self.n_values
        self.scans = [(kind, r) for r in r_values for kind in ("field", "onset")]
        self.calls = [lambda k=k, r=r: (self._field if k == "field" else self._onset)(r)
                      for k, r in self.scans]

    def _field(self, r):
        p = self.lib.model.ModelParams(R=r, Dz=self.dz)
        return self.lib.sweeps.detect_critical_field(p, b_max=self.b_max)

    def _onset(self, r):
        p = self.lib.model.ModelParams(R=r, B=self.onset_B)
        try:
            return self.lib.sweeps.detect_critical_dz(p, T=self.onset_T)
        except self.lib.sweeps.NoOnset as exc:   # a normal outcome of the scan
            return exc

    def warm_up(self):
        self._field(1.0)
        self._onset(1.0)

    def info(self, results):
        return {}

    def check(self, outcome, results):
        for (kind, r), res in zip(self.scans, results):
            if isinstance(res, CallFailed):
                problem = repr(res)
            elif kind == "field":
                problem = self._check_field(r, res)
            else:
                problem = self._check_onset(r, res)
            outcome.item(problem is None, f"{kind} scan at R={r!r}: {problem}")

    def _check_field(self, r, points):
        # the closed-form crossing equations of validate.check_critical_field
        p = self.lib.model.ModelParams(R=r, Dz=self.dz)
        gj, rr = p.gamma * p.J, p.r
        expected = sorted([(gj + math.sqrt(gj * gj + 8 * rr * rr)) / 2 - rr, gj + rr])
        found = sorted(cp.value for cp in points)
        if len(found) != len(expected):
            return f"found crossings {found}, expected {expected}"
        worst = max(abs(a - b) for a, b in zip(found, expected))
        return None if worst < 1e-6 else f"crossings off by {worst!r}"

    def _check_onset(self, r, res):
        lib = self.lib
        threshold = lib.sweeps.ONSET_THRESHOLD

        def n_at(dz):
            p = lib.model.ModelParams(R=r, B=self.onset_B, Dz=dz)
            return oracle_negativity(lib, lib.thermal.gibbs_numeric(p, self.onset_T).rho)

        if isinstance(res, lib.sweeps.NoOnset):
            if n_at(0.0) > threshold or n_at(self.dz_max) <= threshold:
                return None
            return "NoOnset, but the oracle negativity crosses the threshold"
        lo, hi = res.bracket
        n_lo, n_hi = n_at(lo), n_at(hi)
        if n_lo <= threshold < n_hi:
            return None
        return f"bracket [{lo!r}, {hi!r}] gives N = {n_lo!r}, {n_hi!r}"


class CliPoints:
    """A seed-drawn stream of in-process ``cli.main`` commands writing to --out."""

    name = "cli_points"
    min_passes = 3
    # p75, not higher: above it, host stalls of a few milliseconds decide
    # the tail of these 4 ms commands rather than the commands themselves
    tail_percentile = 75.0
    warm_up_note = "the first ten commands of the stream once, untimed"
    # mix per pass, fixed so that it does not vary with the seed:
    # negativity 140 (70 CSV, 70 JSON; 14 at T = 0; 28 with --J instead of
    # --R), spectrum 60 (30 CSV, 30 JSON); --gamma on about a quarter
    n_commands = 200
    n_negativity = 140
    n_t0 = 14
    n_j = 28

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        rng = random.Random(seed)
        cmds = []
        for i in range(self.n_commands):
            kind = "negativity" if i < self.n_negativity else "spectrum"
            params = {"Dz": rng.uniform(-2.0, 2.0), "B": rng.uniform(0.0, 2.0)}
            if kind == "negativity" and self.n_t0 <= i < self.n_t0 + self.n_j:
                params["J"] = rng.uniform(0.05, 1.0)
            else:
                params["R"] = rng.uniform(0.2, 3.0)
            if rng.random() < 0.25:
                params["gamma"] = rng.uniform(0.5, 1.5)
            if kind == "negativity":
                params["T"] = 0.0 if i < self.n_t0 else math.exp(
                    rng.uniform(math.log(0.04), math.log(3.0)))
            cmds.append((kind, "json" if i % 2 else "csv", params))
        rng.shuffle(cmds)
        self.commands = []
        for i, (kind, fmt, params) in enumerate(cmds):
            out = workdir / f"cmd{i}.{fmt}"
            # --key=value: argparse reads "--Dz -6.9e-05" as two options
            argv = [kind] + [f"--{k}={v!r}" for k, v in params.items()]
            argv += [f"--format={fmt}", f"--out={out}"]
            self.commands.append((kind, fmt, params, out, argv))
        self.points = self.n_commands
        self.calls = [lambda argv=c[4]: self._main(argv) for c in self.commands]
        self.tokens = {}

    def _main(self, argv):
        try:
            return self.lib.cli.main(argv)
        except SystemExit as exc:   # argparse rejects its input this way
            return exc.code

    def warm_up(self):
        for call in self.calls[:10]:
            call()

    def info(self, results):
        return {"negative_zero_tokens": self.tokens.get("negative_zero", 0),
                "numpy_repr_tokens": self.tokens.get("numpy_repr", 0),
                "subcommands": [c[0] for c in self.commands]}

    def check(self, outcome, results):
        self.tokens = {"negative_zero": 0, "numpy_repr": 0}
        for (kind, fmt, params, out, argv), code in zip(self.commands, results):
            if code != 0:
                outcome.item(False, f"{argv}: exit {code!r}")
                continue
            text = out.read_text()
            self.tokens["negative_zero"] += len(_NEG_ZERO.findall(text))
            self.tokens["numpy_repr"] += text.count("np.float64(")
            try:
                check = self._check_negativity if kind == "negativity" else self._check_spectrum
                problem = check(fmt, params, text)
            except (ValueError, KeyError, IndexError) as exc:
                problem = f"output does not parse: {exc!r}"
            outcome.item(problem is None, f"{argv}: {problem}")

    def _params(self, params):
        m = self.lib.model
        kw = {k: params[k] for k in ("Dz", "B", "gamma") if k in params}
        if "J" in params:
            return m.ModelParams(R=1.0, j_override=params["J"], **kw)
        return m.ModelParams(R=params["R"], **kw)

    def _check_negativity(self, fmt, params, text):
        lib = self.lib
        cols = lib.sweeps.CSV_COLUMNS
        if fmt == "json":
            row = json.loads(text)
        else:
            header, values = text.splitlines()
            if tuple(header.split(",")) != cols:
                return "CSV header differs from the sweep schema"
            row = dict(zip(cols, values.split(",")))
        got = {k: _number(str(row[k])) for k in ("T", "J", "r", "theta", "Z",
                                                  "ground_energy", "negativity")}
        p, t = self._params(params), params["T"]
        c = lib.model.effective_coupling(p)
        if t == 0.0:
            state = lib.thermal.ground_state_mixture(p)
            z = state.Z
        else:
            state = lib.thermal.gibbs_numeric(p, t)
            z = lib.thermal.partition_function(p, t)
        want = {"T": t, "J": p.J, "r": c.r, "theta": c.theta, "Z": z,
                "ground_energy": float(lib.model.analytic_spectrum(p).eps.min()),
                "negativity": oracle_negativity(lib, state.rho)}
        for k, v in want.items():
            if not _close(got[k], v, relative=(k == "Z")):
                return f"{k} = {got[k]!r}, library value {v!r}"
        return None

    def _check_spectrum(self, fmt, params, text):
        eps = self.lib.model.analytic_spectrum(self._params(params)).eps
        if fmt == "json":
            payload = json.loads(text)
            got = [float(payload["eigenvalues"][f"eps{i + 1}"]) for i in range(9)]
            if any(not _close(a, b) for a, b in zip(payload["numeric_sorted"], sorted(eps))):
                return "numeric_sorted differs from the closed-form spectrum"
            gap = payload["max_gap_vs_numeric"]
        else:
            lines = [line.split(",") for line in text.splitlines()]
            if lines[0] != ["label", "eigenvalue"] or len(lines) != 11:
                return "spectrum CSV layout differs"
            got = [_number(v) for _, v in lines[1:10]]
            gap = _number(lines[10][1])
        if any(not _close(a, float(b)) for a, b in zip(got, eps)):
            return "eigenvalues differ from analytic_spectrum"
        return None if gap <= TOL else f"max_gap_vs_numeric {gap!r}"


WORKLOADS = {w.name: w for w in (Figures, Validate, Critical, CliPoints)}
