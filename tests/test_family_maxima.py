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
maximum at c = 1/sqrt(2) is 1 + sqrt(2).  B_n falls strictly in n.

**The Gaussian limit and its 1/n term.**  Put a = x / sqrt(n).  As
ln cos u = -u^2/2 - u^4/12 - O(u^6), ln f(a) = 2n ln cos(a/2) =
-x^2/4 - x^4/(96 n) + O(n^-2), so f(a) = e^(-x^2/4) (1 - x^4/(96 n)) and
f(3a) = e^(-9x^2/4) (1 - 81 x^4/(96 n)), up to O(n^-2).  Hence
3 f(a) - f(3a) = G(x) + H(x)/n + O(n^-2) with

    G(x) = 3 e^(-x^2/4) - e^(-9x^2/4),
    H(x) = -(x^4/96) (3 e^(-x^2/4) - 81 e^(-9x^2/4)).

G'(x) = (3x/2) (3 e^(-9x^2/4) - e^(-x^2/4)) vanishes where e^(-2x^2) = 1/3,
at x^2 = ln 3 / 2, that is a sqrt(n) -> 2 sqrt(ln 3 / 8) = 0.74115; there
e^(-x^2/4) = 3^(-1/8), e^(-9x^2/4) = 3^(-9/8), and

    B_inf = G = 3^(-1/8) (3 - 1/3) = (8/3) 3^(-1/8) = 2.3244947810.

The maximizer moves by O(1/n), which changes G only at O(n^-2) since
G' = 0 there, so the 1/n term is H at the same x: x^4 = (ln 3)^2 / 4 and
3 e^(-x^2/4) - 81 e^(-9x^2/4) = 3^(-1/8) (3 - 27) = -24 * 3^(-1/8), so

    B_n = B_inf + c / n + O(n^-2),  c = 3^(-1/8) (ln 3)^2 / 16 = 0.0657550.

The tests bound the rest: 0 < n^2 (B_n - B_inf - c/n) <= 0.025 for n <= 32
(it runs from 0.0240 at n = 1 down to 0.0170 at n = 32).

**Visibility under factorized noise.**  The noise's correlation is
(sum of eps / count)^2, which vanishes when n1 + n2 = 2n is 2 mod 4, that
is for odd n (``visibility_threshold``).  The blend's correlations are
then p E, each objective scales by p, and the threshold is 2 over the
objective: 2 / B_n for |Bell| at the slice quad, and 2 / (2 sqrt(2)) =
1/sqrt(2) for steering at its maximum.  So steering survives more noise
than Bell at every odd n: 1/sqrt(2) = 0.7071 < 2 / B_n, which rises from
2 / (1 + sqrt(2)) = 0.8284 at n = 1 towards 2 / B_inf = 0.8604.

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

from twocopy.inequalities import QUANTUM_BOUND, AngleQuad, visibility_threshold
from twocopy.search import optimize
from twocopy.states import bec_pair, noon_pair

PARTICLES = [*range(1, 9), 12, 16, 24, 32]
B_INF = 8.0 / 3.0 * 3.0 ** -0.125
C_ONE = 3.0 ** -0.125 * math.log(3.0) ** 2 / 16.0


def slice_value(a, n):
    """3 f(a) - f(3a) with f(u) = cos^(2n)(u/2)."""
    return 3.0 * np.cos(a / 2.0) ** (2 * n) - np.cos(1.5 * a) ** (2 * n)


def slice_argmax(n: int) -> float:
    """The a of B_n: the best of a grid over [0, pi] (the slice value is
    even and 2 pi-periodic in a), polished by Brent's method within its two
    neighbours."""
    grid = np.linspace(0.0, math.pi, 4097)
    best = int(np.argmax(slice_value(grid, n)))
    found = minimize_scalar(lambda a: -slice_value(a, n), method="bounded",
                            bounds=(grid[max(best - 1, 0)], grid[min(best + 1, 4096)]),
                            options={"xatol": 1e-12})
    return float(found.x)


def slice_maximum(n: int) -> float:
    """B_n, the slice value at ``slice_argmax``."""
    return float(slice_value(slice_argmax(n), n))


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
    assert maxima[31] > B_INF


def test_slice_maximum_follows_its_asymptotic_form():
    for n in range(1, 33):
        assert 0.0 < n * n * (slice_maximum(n) - B_INF - C_ONE / n) <= 0.025, n


@pytest.mark.parametrize("n, bell", [(1, 0.828427124746), (3, 0.851612903776),
                                     (5, 0.855300083038), (7, 0.856807470106)])
def test_factorized_noise_thresholds(n, bell):
    # odd n: the noise's correlation vanishes, so each threshold is 2 over the objective
    state, a = bec_pair(n), slice_argmax(n)
    assert abs(2.0 / slice_maximum(n) - bell) <= 1e-12
    quad = AngleQuad(math.pi - a, math.pi + a, 0.0, -2.0 * a)
    got = visibility_threshold(state, "bell_abs", quad, tol=1e-14)
    assert abs(got - 2.0 / slice_maximum(n)) <= 1e-12
    steering = optimize("steering", state, restarts=64)
    got = visibility_threshold(state, "steering", steering.argmax, tol=1e-14)
    assert abs(got - 1.0 / math.sqrt(2.0)) <= 1e-12


@pytest.mark.parametrize("n, m", [(n, m) for n in PARTICLES for m in sorted({0, n // 3})
                                  if 2 * m != n])
def test_noon_pair_maxima(n, m):
    state = noon_pair(n, m)
    assert abs(optimize("steering", state, restarts=64).max_value - QUANTUM_BOUND) <= 1e-12
    assert abs(optimize("bell_abs", state, restarts=64).max_value
               - (1.0 + math.sqrt(2.0))) <= 1e-12
