"""Fixed calibration work for ``run.py``; it imports nothing from rankbench.

Run as a child between the timed ``analyze`` and ``setup`` children, it
measures how fast the machine is at that moment on a mix like analyze's:
interpreter start-up and the numpy import, CSV parsing into a dict,
Philox draws with ``bincount``, and a single-thread matrix product.
"""

import csv
import io

import numpy as np

rows = [f"s{i % 29},i{i % 500},0,solved,{i * 0.37:.2f}," for i in range(40_000)]
table = {}
for r in csv.reader(io.StringIO("\n".join(rows))):
    table[(r[0], r[1], int(r[2]))] = (r[3], float(r[4]))

bits = np.random.Philox(key=np.array([1, 2], dtype=np.uint64))
counts = np.zeros(2000)
for _ in range(200):
    counts += np.bincount(bits.random_raw(2000) % 2000, minlength=2000)

m = np.random.default_rng(0).random((400, 400))
print(len(table), int(counts.sum()), float((m @ m).sum()) > 0)
