"""The d4 fixture: a twist orbit of infinite order.

Starting from the point whose source-label Pluckers are all 1 and applying
the left twist repeatedly gives integer coordinates satisfying linear
recursions; the values grow without bound, so the twist has infinite order on
this positroid variety.

Run with:  PYTHONPATH=src python3 demos/03_infinite_order_orbit.py
"""
from positroids import fixtures
from positroids.linalg import twist
from positroids.measurement import face_pluecker, matrix_from_pluecker, measure

g = fixtures.load("d4")
labels = g.face_labels("source")
center = next(f for f, l in labels.items() if l == (2, 4, 6, 8))
square = next(f for f, l in labels.items() if l == (4, 5, 6, 8))

point = twist(matrix_from_pluecker(measure(g, {e: 1 for e in g.edges})), "right")
print("step   center (2468)   square (4568)")
for step in range(8):
    values = face_pluecker(g, point, "source")
    print(f"{step:>4}   {str(values[center]):>13}   {str(values[square]):>13}")
    point = twist(point, "left")

print("\nu_{i+1} = 23 u_i - u_{i-1} - 4 and v_{i+1} = 5 v_i - v_{i-1}")
