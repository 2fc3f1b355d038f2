import math
import os
import re
import threading

import numpy as np

from qutritxxz.output import _fmt, csv_text, emit_svg, write_text
from qutritxxz.sweeps import (
    CSV_COLUMNS,
    FIGURE_NAMES,
    SweepResult,
    SweepSpec,
    figure_preset,
    run_sweep,
)


def test_shorter_rewrite_leaves_no_stale_tail(tmp_path):
    path, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
    write_text(path, "a,b,c\n" * 100)
    inode = path.stat().st_ino
    write_text(path, "x,y\n")
    write_text(fresh, "x,y\n")
    assert path.read_bytes() == fresh.read_bytes() == b"x,y\n"
    assert path.stat().st_ino == inode


def test_write_through_symlink_keeps_link(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old content that is longer\n")
    os.symlink(target, link)
    write_text(link, "new\n")
    assert link.is_symlink()
    assert os.readlink(link) == str(target)
    assert target.read_text() == "new\n"


def test_write_to_fifo(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    # a truncate on a FIFO raises OSError, so success shows it was skipped
    write_text(fifo, "through the pipe\n")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [b"through the pipe\n"]


def test_preset_cells_are_builtin_floats_or_strings():
    # _fmt writes a float with repr: an np.float64 cell, which isinstance
    # counts as a float, would print as np.float64(...)
    for name in FIGURE_NAMES:
        for res in figure_preset(name):
            for row in res.rows:
                assert all(type(row[col]) in (float, str) for col in CSV_COLUMNS), name


def test_csv_cells_never_alias():
    # cells that compare equal but print differently must not share a text;
    # each value lands in every column, before and after the others
    nan = float("nan")
    pinned = [True, 1, 1.0, -0.0, 0.0, nan, math.inf, 1e-300, np.float64(-0.0), 2.5,
              1.0, 1, True]
    cells = pinned[:-1] + [np.float64(2.5)]
    assert len(cells) == len(CSV_COLUMNS)
    rows = [dict(zip(CSV_COLUMNS, pinned))]
    rows += [dict(zip(CSV_COLUMNS, cells[k:] + cells[:k])) for k in range(len(cells))]
    rows += [dict(zip(CSV_COLUMNS, [float("nan"), -0.0, 0.0] + cells[3:])) for _ in range(2)]
    expected = [",".join(CSV_COLUMNS)]
    expected += [",".join(_fmt(row[col]) for col in CSV_COLUMNS) for row in rows]
    text = csv_text(rows)
    assert text == "\n".join(expected) + "\n"
    assert text.splitlines()[1] == "True,1,1.0,0.0,0.0,nan,inf,1e-300,0.0,2.5,1.0,1,True"


def test_svg_of_a_single_row_has_finite_coordinates(tmp_path):
    # one row: both the x and the y range are flat
    res = run_sweep(SweepSpec("B", 0.0, 1.0, 2))
    path = tmp_path / "one.svg"
    emit_svg(SweepResult(rows=res.rows[:1], meta=res.meta), path)
    (points,) = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    x, y = map(float, points.split(","))
    assert math.isfinite(x) and math.isfinite(y)
