"""Exact integer vector helpers and the Bareiss determinant.

The determinant is fraction-free (Bareiss elimination); it is the
independent certificate for |det M| = prod (p**f - 1), which the library
otherwise never needs since every solve is done one sigma-orbit at a time.
No floating point anywhere in the package.
"""

from __future__ import annotations

from math import gcd


def dot(a, b) -> int:
    """Exact dot product; zero entries of a are skipped, so sparse rows are cheap."""
    return sum(x * y for x, y in zip(a, b) if x)


def content(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def primitive(v) -> tuple[int, ...]:
    """Divide out the gcd, keeping direction; the zero vector is returned as is."""
    g = content(v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def bareiss_determinant(rows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Exact division is guaranteed by the Bareiss identity.
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
