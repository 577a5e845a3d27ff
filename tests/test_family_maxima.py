"""The search's maxima on the condensate and N00N pairs against closed forms,
at every particle number up to 32.

**bec(n, n), |Bell|: the slice reduction.**  At the balanced splitter the
correlation of bec(n, n) is E(d) = (-1)^n sin^(2n)(d/2)
(tests/test_profile.py holds ``_profile`` to it).  Write
f(u) = cos^(2n)(u/2) = sin^(2n)((pi - u)/2), which is even in u.  On the
slice of quads (pi - a, pi + a, 0, -2a) the four angle differences are
pi - a, pi + a, pi + a and pi + 3a, so the correlations are (-1)^n times
f(a), f(a), f(a) and f(3a), and Bell = E11 + E12 + E21 - E22 =
(-1)^n (3 f(a) - f(3a)).  So

    B_n = max_a [3 cos^(2n)(a/2) - cos^(2n)(3a/2)]

is a |Bell| value that the search must reach.  That no quad off the slice
does better is not derived here; the tests hold ``optimize``'s 64-restart
maximum to B_n from both sides, which the search confirms at every n
tested.  At n = 1, 3 f(a) - f(3a) = 1 + 3c - 2c^3 with c = cos a, whose
maximum at c = 1/sqrt(2) is 1 + sqrt(2).  For large n, f(a) ~
exp(-n a^2 / 4), the maximum sits at a sqrt(n) -> 2 sqrt(ln 3 / 8) and
B_n falls to (8/3) 3^(-1/8) = 2.3244947810; it falls strictly in n.

**noon(n, m), balanced.**  The correlation is E(d) = (s + cos(K d)) / 2
with s = (-1)^n and K = n - 2m (tests/test_profile.py).  So Bell =
s + C / 2, where C = cos(K d11) + cos(K d12) + cos(K d21) - cos(K d22) is
the CHSH sum of the angles K d, whose maximum over the angles is 2 sqrt(2)
and minimum -2 sqrt(2).  So the |Bell| maximum is 1 + sqrt(2) for every n
and m, and steering reaches the quantum bound 2 sqrt(2).

The forms live in these tests only, not in the engine's closed-form
families.
"""
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from twocopy.inequalities import QUANTUM_BOUND
from twocopy.search import optimize
from twocopy.states import bec_pair, noon_pair

PARTICLES = [*range(1, 9), 12, 16, 24, 32]


def slice_value(a, n):
    """3 f(a) - f(3a) with f(u) = cos^(2n)(u/2)."""
    return 3.0 * np.cos(a / 2.0) ** (2 * n) - np.cos(1.5 * a) ** (2 * n)


def slice_maximum(n: int) -> float:
    """B_n: the best of a grid over [0, pi] (the slice value is even and
    2 pi-periodic in a), polished by Brent's method within its two
    neighbours."""
    grid = np.linspace(0.0, math.pi, 4097)
    best = int(np.argmax(slice_value(grid, n)))
    found = minimize_scalar(lambda a: -slice_value(a, n), method="bounded",
                            bounds=(grid[max(best - 1, 0)], grid[min(best + 1, 4096)]),
                            options={"xatol": 1e-12})
    return float(-found.fun)


@pytest.mark.parametrize("n", PARTICLES)
def test_bec_pair_bell_maximum_is_slice_maximum(n):
    result = optimize("bell_abs", bec_pair(n), restarts=64)
    assert abs(result.max_value - slice_maximum(n)) <= 1e-12


def test_slice_maximum_falls_strictly_in_n():
    maxima = [slice_maximum(n) for n in range(1, 33)]
    assert maxima[0] == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-14)
    assert abs(maxima[31] - 2.326566209143) <= 5e-13
    # B_n - B_{n+1} is about 0.0658 / n^2, at least 6.4e-5 below n = 32
    assert (np.diff(maxima) < -6e-5).all()
    assert maxima[31] > 8.0 / 3.0 * 3.0 ** -0.125


@pytest.mark.parametrize("n, m", [(n, m) for n in PARTICLES for m in sorted({0, n // 3})
                                  if 2 * m != n])
def test_noon_pair_maxima(n, m):
    state = noon_pair(n, m)
    assert abs(optimize("steering", state, restarts=64).max_value - QUANTUM_BOUND) <= 1e-12
    assert abs(optimize("bell_abs", state, restarts=64).max_value
               - (1.0 + math.sqrt(2.0))) <= 1e-12
