"""CSV and SVG emission for sweep results, and the one file writer.

Numbers are written with Python's shortest round-trip repr so that a
rerun of the same sweep is byte-identical; csv_text formats each distinct
float once per call and reuses its text, which changes no byte.  The SVG
is a bare polyline chart: one polyline per curve on linear axes, nothing
configurable.
Every file the package writes goes through ``write_text``.
"""

import json
import os
import stat
from pathlib import Path

from .sweeps import CSV_COLUMNS, SweepResult

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")
#: chart size and plot-area margin, in pixels
_WIDTH, _HEIGHT, _MARGIN = 640, 480, 60


def write_text(path, text: str) -> None:
    """Write text to path, overwriting an existing file in place.

    The file is opened without O_TRUNC and cut to the written length
    afterwards.  On ext4, an O_TRUNC open of a file whose blocks are
    already on disk took about 50 ms, against 0.2 ms for this in-place
    overwrite, so every rerun into the same output paid that stall.  The
    inode is kept, as with O_TRUNC: symlinks, hard links and the file mode
    survive.  Only a regular file is truncated, so a FIFO or /dev/stdout
    works as a target too.  An OSError is raised again as one naming
    path, so each failure message says which file could not be written.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as fh:
            fh.write(text.encode())
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc


def _plain(x):
    """A float with -0.0 written as 0.0; lists, tuples (as lists) and dicts
    element by element; anything else as it is."""
    if isinstance(x, float):
        return 0.0 if x == 0.0 else x
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _fmt(x) -> str:
    return repr(_plain(x)) if isinstance(x, float) else str(x)


def json_text(payload) -> str:
    """Indented JSON whose numbers read as the CSV ones do."""
    return json.dumps(_plain(payload), indent=2)


def csv_text(rows) -> str:
    """The fixed schema header, then one line per sweep row.

    Grid rows repeat most of their cells (T, Dz, R, gamma, J, r and theta
    stay fixed along most axes), so each distinct float is formatted once
    per call: the dict text_of, which lives for this call only, maps it to
    the text _fmt gives it.  It holds only cells whose type is exactly
    float, since 1, 1.0 and True are equal keys that print differently, and
    an np.float64 prints unlike the float of the same value.  -0.0 and 0.0
    share an entry, as both print 0.0.  The text is the same as formatting
    every cell, so reruns stay byte-identical."""
    text_of = {}
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = []
        for col in CSV_COLUMNS:
            x = row[col]
            if type(x) is float:
                text = text_of.get(x)
                if text is None:
                    text = text_of[x] = _fmt(x)
            else:
                text = _fmt(x)
            cells.append(text)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _results(result) -> list:
    return [result] if isinstance(result, SweepResult) else list(result)


def emit_csv(result, path) -> None:
    """Write one or more sweep results to a single CSV (exact schema header
    first); the meta blocks go to a companion <path>.meta.json."""
    results = _results(result)
    path = Path(path)
    write_text(path, csv_text(row for res in results for row in res.rows))
    write_text(path.with_name(path.name + ".meta.json"),
               json.dumps(_plain([r.meta for r in results]), indent=2, sort_keys=True) + "\n")


def emit_svg(result, path, y_column: str = "negativity") -> None:
    """Polyline chart of y_column against the grid value, one curve per
    sweep result."""
    results = _results(result)
    xs = [row["grid_value"] for res in results for row in res.rows]
    ys = [row[y_column] for res in results for row in res.rows]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - 2 * _MARGIN)

    def py(y):
        return _HEIGHT - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - 2 * _MARGIN)

    x_label = results[0].rows[0]["grid_param"] if results and results[0].rows else "x"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - _MARGIN // 4}" '
        f'text-anchor="middle" font-size="14">{x_label}</text>',
        f'<text x="{_MARGIN // 4}" y="{_HEIGHT // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 {_MARGIN // 4} {_HEIGHT // 2})">{y_column}</text>',
        f'<text x="{_MARGIN}" y="{_HEIGHT - _MARGIN + 16}" '
        f'font-size="11">{_fmt(float(x_lo))}</text>',
        f'<text x="{_WIDTH - _MARGIN}" y="{_HEIGHT - _MARGIN + 16}" text-anchor="end" '
        f'font-size="11">{_fmt(float(x_hi))}</text>',
        f'<text x="{_MARGIN - 4}" y="{_HEIGHT - _MARGIN}" text-anchor="end" '
        f'font-size="11">{_fmt(float(y_lo))}</text>',
        f'<text x="{_MARGIN - 4}" y="{_MARGIN}" text-anchor="end" '
        f'font-size="11">{_fmt(float(y_hi))}</text>',
    ]
    for k, res in enumerate(results):
        pts = " ".join(f"{px(row['grid_value']):.2f},{py(row[y_column]):.2f}"
                       for row in res.rows)
        color = _PALETTE[k % len(_PALETTE)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        label = res.meta.get("label")
        if label:
            parts.append(f'<text x="{_WIDTH - _MARGIN + 4}" y="{_MARGIN + 16 * k}" '
                         f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")
