"""Regenerate src/tmlab/_dawson_table.py: the fitted part of tmlab.dawson.

    python3 tools/dawson_coefficients.py > src/tmlab/_dawson_table.py

tmlab.dawson evaluates Dawson's function D(y) = e^(-y^2) int_0^y e^(x^2) dx
and the two anchored moments

    S_1(y) = e^(-y^2) int_0^y (x - y) e^(x^2) dx = (1 - e^(-y^2))/2 - y D(y)
    S_2(y) = e^(-y^2) int_0^y (x - y)^2 e^(x^2) dx
           = (y^2 - 1/2) D(y) - y/2 + y e^(-y^2)

for |y| < Y_BIG from a table, and from their asymptotic series beyond.  The
reduced functions D/y, S_1/y^2 and S_2/y^3 are even and entire.  On each
interval [k H, (k+1) H] this script interpolates them at Chebyshev points
in the local variable s in [-1, 1], in 60-digit arithmetic with the
installed mpmath, converts each interpolant to powers of s and prints the
coefficients rounded to doubles, highest power first.  It then samples
every interval and prints the worst relative error of the double table in
a closing comment.  Nothing is downloaded.
"""

from __future__ import annotations

import mpmath as mp

Y_BIG = 10.0    # the asymptotic series take over from |y| = Y_BIG
H = 0.25        # interval width
DEGREE = 12     # degree of each interval's polynomial in s
mp.mp.dps = 60


def dawson(y):
    return mp.sqrt(mp.pi) / 2 * mp.exp(-y * y) * mp.erfi(y)


def reduced(y):
    """(D/y, S_1/y^2, S_2/y^3) at y > 0, or their limits at y = 0."""
    if y == 0:
        return (mp.mpf(1), mp.mpf(-1) / 2, mp.mpf(1) / 3)
    d = dawson(y)
    s1 = (1 - mp.exp(-y * y)) / 2 - y * d
    s2 = (y * y - mp.mpf(1) / 2) * d - y / 2 + y * mp.exp(-y * y)
    return (d / y, s1 / y ** 2, s2 / y ** 3)


def interval_powers(k):
    """Power-basis coefficients in s, lowest first, of the three interpolants."""
    lo = k * mp.mpf(H)
    mid, half = lo + mp.mpf(H) / 2, mp.mpf(H) / 2
    n = DEGREE + 1
    nodes = [mp.cos(mp.pi * (j + mp.mpf(1) / 2) / n) for j in range(n)]
    values = [reduced(mid + half * s) for s in nodes]
    out = []
    for f in range(3):
        cheb = [2 * mp.fsum(values[j][f] * mp.cos(mp.pi * i * (j + mp.mpf(1) / 2) / n)
                            for j in range(n)) / n for i in range(n)]
        cheb[0] /= 2
        # T_i in powers of s, by T_(i+1) = 2 s T_i - T_(i-1)
        t_prev, t_cur = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]
        powers = [mp.mpf(0)] * n
        powers[0] += cheb[0]
        for i in range(1, n):
            for p, c in enumerate(t_cur):
                powers[p] += cheb[i] * c
            t_next = [mp.mpf(0)] + [2 * c for c in t_cur]
            for p, c in enumerate(t_prev):
                t_next[p] -= c
            t_prev, t_cur = t_cur, t_next
        out.append(powers)
    return out


def main():
    count = int(round(Y_BIG / H))
    table = [interval_powers(k) for k in range(count)]
    worst = mp.mpf(0)
    for k, rows in enumerate(table):
        for i in range(41):
            s = mp.mpf(-1) + mp.mpf(i) / 20
            y = k * mp.mpf(H) + mp.mpf(H) / 2 * (1 + s)
            exact = reduced(y)
            for f in range(3):
                got = mp.mpf(0)
                for c in reversed(rows[f]):  # Horner in doubles' values
                    got = got * s + mp.mpf(float(c))
                worst = max(worst, abs(got / exact[f] - 1))
    print('"""Generated by tools/dawson_coefficients.py; do not edit.')
    print()
    print("COEFFICIENTS[k][f] are the powers of s, highest first, of the")
    print("reduced function f (D/y, S_1/y^2, S_2/y^3) on [k H, (k+1) H],")
    print('with y = (k + (1 + s)/2) H."""')
    print()
    print(f"Y_BIG = {Y_BIG!r}")
    print(f"H = {H!r}")
    print("COEFFICIENTS = (")
    for rows in table:
        print("    (")
        for powers in rows:
            print("        (" + ", ".join(repr(float(c)) for c in reversed(powers)) + "),")
        print("    ),")
    print(")")
    print(f"# worst relative error of the rounded table at 41 points per "
          f"interval: {mp.nstr(worst, 3)}")


if __name__ == "__main__":
    main()
