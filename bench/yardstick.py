"""A fixed pure-Python program that measures how fast the machine is right now.

``run.py`` starts it as its own process between jobs.  It does not import
``combitop``: it starts an interpreter, imports the standard modules the
CLI imports, takes a few elimination steps on a dense 500 x 500 integer
matrix held as lists (the memory traffic of Smith normal form) and fills a
dictionary of fractions (the object churn of the word and face-set jobs).
Its wall time changes only with the machine, never with the code under
test.
"""

import json
from fractions import Fraction

N = 500
rows = [[(i * j + 7) % 11 - 5 for j in range(N)] for i in range(N)]
for k in range(3):
    pivot = rows[k][k] or 1
    for i in range(k + 1, N):
        f = rows[i][k]
        if f:
            rows[i] = [(a * pivot - f * b) % 97 for a, b in zip(rows[i], rows[k])]

values = {}
s = 0
for i in range(20000):
    s = (s * 31 + i) % 1000003
    values[s & 4095] = Fraction(i, 7)
json.dumps(sorted(str(v) for v in values.values()))
