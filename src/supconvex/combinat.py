"""Eulerian numbers and the sharp smoothing constants.

The central constant c(k, n) measures how much an n-fold sup-convolution
average must move a function toward its concave envelope on the
standard k-simplex.  It has several exact descriptions that this module
computes independently and cross-checks:

- closed forms for k <= 3,
- a descent sum weighting binomials by Eulerian numbers,
- a power-sum form (k+1)/n^(k+1) * (1^k + ... + (n-1)^k),
- and, for n >= k+1, a covering-argument lower bound that is weaker for
  every k >= 2 and matches exactly when k = 1.

All values are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from ._rational import Rat
from .geometry import _check_dim

# Cap on the fold count n, checked before any sum: the power sum loops
# over 1..n-1.  On a 2-vCPU host `supconvex constants` at the largest
# accepted input (k = 6, n = 10**6) takes about 0.5 s in all.
FOLD_CAP = 10**6


def eulerian(k: int, l: int) -> int:
    """Number of permutations of 1..k with exactly l descents, by the
    explicit sum over j <= l of (-1)^j C(k+1, j) (l+1-j)^k."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not 0 <= l <= k - 1:
        raise ValueError(f"descent count must be in 0..{k - 1}, got {l}")
    return sum((-1) ** j * comb(k + 1, j) * (l + 1 - j) ** k for j in range(l + 1))


def descent_sum_constant(k: int, n: int):
    """Eulerian-weighted binomial sum for c(k, n)."""
    _check_kn(k, n)
    total = Rat(0)
    for m in range(1, k + 1):
        total += Rat(n - m, n) * comb(n + k - m, k) * eulerian(k, m - 1)
    return total / Rat(n) ** k


def power_sum_constant(k: int, n: int):
    """(k+1)/n^(k+1) times the sum of the first n-1 k-th powers."""
    _check_kn(k, n)
    return Rat(k + 1) * sum(i**k for i in range(1, n)) / Rat(n) ** (k + 1)


def closed_form_constant(k: int, n: int):
    """Piecewise closed form, available for k <= 3 only."""
    _check_kn(k, n)
    if k == 1:
        return Rat(n - 1, n)
    if k == 2:
        return Rat((2 * n - 1) * (n - 1), 2 * n * n)
    if k == 3:
        return Rat((n - 1) ** 2, n * n)
    raise ValueError(f"no closed form for k = {k}")


def sharp_constant(k: int, n: int):
    """The sharp constant c(k, n), exact.

    Proven sharp for k <= 3; for larger k it is the conjectured value
    (callers that care about the distinction should check k).
    """
    return descent_sum_constant(k, n)


def worpitzky_check(k: int, n: int) -> bool:
    """Verify n^k equals the Eulerian-binomial decomposition."""
    _check_kn(k, n)
    total = sum(comb(n + k - m, k) * eulerian(k, m - 1) for m in range(1, k + 1))
    return total == n**k


def asymptotic_bound(k: int, n: int):
    """Covering-argument lower bound 1 - C(n,k) k^(k+1) / n^(k+1).

    Only meaningful for n >= k+1.  Equals sharp_constant(1, n) when
    k = 1 and is strictly smaller for every k >= 2.
    """
    _check_kn(k, n)
    if n < k + 1:
        raise ValueError(f"bound needs n >= k+1, got k={k}, n={n}")
    return Rat(1) - Rat(comb(n, k) * k ** (k + 1), n ** (k + 1))


def rate_constant_conjectured(k: int):
    """Coefficient of 1/n in 1 - c(k, n) for large n, sharp value."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return Rat(k + 1, 2)


def rate_constant_covering(k: int):
    """Coefficient of 1/n in the covering bound's deficit, k^(k+1)/k!.

    Weaker than rate_constant_conjectured for every k >= 2; the gap
    between the two rates is open.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return Rat(k ** (k + 1), factorial(k))


@dataclass(frozen=True)
class ConstantReport:
    """All exact descriptions of c(k, n) that apply at the given k, n."""

    k: int
    n: int
    descent_sum: object
    power_sum: object
    closed_form: object  # None when k > 3
    covering_bound: object  # None when n < k+1


def constant_report(k: int, n: int) -> ConstantReport:
    """Compute every applicable form of c(k, n) and cross-check them."""
    descent = descent_sum_constant(k, n)
    power = power_sum_constant(k, n)
    assert descent == power, f"descent/power sum mismatch at k={k}, n={n}"
    closed = closed_form_constant(k, n) if k <= 3 else None
    if closed is not None:
        assert closed == descent, f"closed form mismatch at k={k}, n={n}"
    covering = asymptotic_bound(k, n) if n >= k + 1 else None
    if covering is not None:
        assert covering <= descent, f"covering bound exceeds c at k={k}, n={n}"
        if k == 1:
            assert covering == descent
    return ConstantReport(k, n, descent, power, closed, covering)


def _check_kn(k: int, n: int) -> None:
    _check_dim(k)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > FOLD_CAP:
        raise ValueError(f"fold count n = {n} is over the cap ({FOLD_CAP})")
