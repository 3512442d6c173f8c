"""The CSV writer the CLI used before `linsolve.write_csv`, kept as a test oracle.

Every value goes through format(v, ".17g") on its own and every row through
csv.writer, so a differential test against it checks that the one
%-format string per block of rows writes the same bytes.
"""

from __future__ import annotations

import csv
import io

import numpy as np


def csv_text(header, *columns) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in zip(*(np.ravel(c) for c in columns)):
        w.writerow([format(float(v), ".17g") for v in row])
    return buf.getvalue()
