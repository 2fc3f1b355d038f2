import os
import threading

from qutritxxz.output import write_text
from qutritxxz.sweeps import CSV_COLUMNS, FIGURE_NAMES, figure_preset


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
