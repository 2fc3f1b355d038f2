"""Child process of the benchmark: time one ``import qutritxxz``.

Prints the raw import time, the reference samples taken just before and
after it (see calibrate.py), and the imported package's file.  The
reference kernel is pure Python, so nothing is imported ahead of the
measured import.
"""

import time

import calibrate

before = calibrate.sample()
t0 = time.perf_counter()
import qutritxxz  # noqa: E402
seconds = time.perf_counter() - t0
after = calibrate.sample()
print(repr(seconds), repr(before), repr(after))
print(qutritxxz.__file__)
