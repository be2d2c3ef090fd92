"""The twist maps and the commutative diagram they complete.

Measure a random weighting, twist the resulting matrix, and watch the face
Plucker coordinates turn into the reciprocals of the minimal matching
monomials -- the content of the main commutativity statement.

Run with:  PYTHONPATH=src python3 demos/02_twist_and_diagram.py
"""
import random

from positroids import fixtures
from positroids.linalg import RationalMatrix, twist
from positroids.matchings import extremal_matching
from positroids.measurement import (
    face_pluecker,
    matrix_from_pluecker,
    measure,
    monomial,
    random_weighting,
    verify_diagram,
)

# the two mutually inverse twists, on a small explicit matrix
m = RationalMatrix.build([[1, 0, 1, 0, 1], [-1, 1, 0, 0, 0], [1, -1, 0, 1, 1]])
t1 = twist(m, "right")
t2 = twist(t1, "right")
print("right twist of the 3x5 example:")
for row in t1.rows:
    print("  ", [str(x) for x in row])
print("left twist undoes it:", twist(t1, "left") == m)

g = fixtures.load("schubert36")
rng = random.Random(0)
z = random_weighting(g, rng)
p = measure(g, z)
a = matrix_from_pluecker(p)
values = face_pluecker(g, twist(a, "right"), "source")

print("\nface Pluckers of the right-twisted point vs minimal matchings:")
for f in g.faces():
    matched = extremal_matching(g, f.id, "min")
    print(f"  {f.id:>3}: {values[f.id]} == 1/z^M ? {values[f.id] == 1 / monomial(z, matched)}")

print("\nfull diagram verification on d4 (both squares, inversion, Laurent):")
report = verify_diagram(fixtures.load("d4"), seed=1, trials=2)
print(" ", "all pass" if all(r["status"] == "pass" for r in report) else report)
