"""Independent brute-force oracles used by the tests.

Everything here is deliberately written against fractions.Fraction and
plain itertools enumeration, sharing no code path with the package
(which uses integer kernels, LPs, DP and recurrences), so agreement
between the two is meaningful.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations


def eulerian_by_descents(k: int, l: int) -> int:
    """Count permutations of 1..k with exactly l descents, by listing."""
    count = 0
    for perm in permutations(range(1, k + 1)):
        descents = sum(1 for i in range(k - 1) if perm[i] > perm[i + 1])
        if descents == l:
            count += 1
    return count


def _invert(matrix):
    """Fraction matrix inverse by Gauss-Jordan; None when singular."""
    n = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if aug[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def lp_bruteforce(columns, objective, rhs):
    """Optimum of max c.x over A x = b, x >= 0, or None when infeasible,
    by enumerating every nonsingular square subset of columns.

    Exhaustive for a bounded LP whose matrix has full row rank: a
    feasible one then has an optimal basic solution.
    """
    m = len(rhs)
    b = [Fraction(v) for v in rhs]
    best = None
    for subset in combinations(range(len(columns)), m):
        inv = _invert([[Fraction(columns[j][i]) for j in subset] for i in range(m)])
        if inv is None:
            continue
        x = [sum(inv[r][i] * b[i] for i in range(m)) for r in range(m)]
        if all(v >= 0 for v in x):
            value = sum(Fraction(objective[j]) * v for j, v in zip(subset, x))
            if best is None or value > best:
                best = value
    return best


def envelope_bruteforce(f):
    """Discrete concave envelope by enumerating all candidate supports.

    Every optimum of the envelope LP is attained at a basic solution,
    i.e. on the support of some nonsingular (k+1)-subset of lattice
    columns, so taking the max over all such subsets is exhaustive.
    """
    lat = f.lattice
    d = lat.k + 1
    pts = [
        [Fraction(c, lat.resolution) for c in ints] for ints in lat.int_points
    ]
    vals = [Fraction(int(v.numerator), int(v.denominator)) for v in f.values]
    best = list(vals)  # the trivial singleton combination
    for subset in combinations(range(len(pts)), d):
        matrix = [[pts[j][i] for j in subset] for i in range(d)]
        inv = _invert(matrix)
        if inv is None:
            continue
        for z_idx, z in enumerate(pts):
            lamb = [sum(inv[r][i] * z[i] for i in range(d)) for r in range(d)]
            if all(l >= 0 for l in lamb):
                cand = sum(l * vals[j] for l, j in zip(lamb, subset))
                if cand > best[z_idx]:
                    best[z_idx] = cand
    return best


def supconv_bruteforce(f, n: int):
    """n-fold sup-convolution by enumerating all witness multisets."""
    lat = f.lattice
    pts = lat.int_points
    vals = [Fraction(int(v.numerator), int(v.denominator)) for v in f.values]
    best = {}
    for combo in combinations_with_replacement(range(len(pts)), n):
        total = tuple(sum(pts[j][i] for j in combo) for i in range(lat.k + 1))
        acc = sum(vals[j] for j in combo)
        if total not in best or acc > best[total]:
            best[total] = acc
    return [
        best[tuple(n * c for c in p)] / n for p in pts
    ]


def pair_bruteforce(f, g):
    """Two-function sup-convolution by enumerating all witness pairs."""
    pts = f.lattice.int_points
    fvals = [Fraction(int(v.numerator), int(v.denominator)) for v in f.values]
    gvals = [Fraction(int(v.numerator), int(v.denominator)) for v in g.values]
    best = {}
    for x, fx in zip(pts, fvals):
        for y, gy in zip(pts, gvals):
            total = tuple(a + b for a, b in zip(x, y))
            if total not in best or fx + gy > best[total]:
                best[total] = fx + gy
    return [best[tuple(2 * c for c in p)] / 2 for p in pts]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def vertex_usage_oracle(k: int, n: int, coords):
    """Max number of vertex copies usable among n witnesses averaging
    to the point, with the set of achieving count vectors.

    A count vector c (how many witnesses sit at each vertex) is
    feasible iff c <= n * z componentwise: the remaining n - sum(c)
    witnesses can realize any nonnegative remainder.  Exhaustive
    search from j = n downward.
    """
    z = [Fraction(c.numerator, c.denominator) for c in coords]
    target = [n * v for v in z]
    for j in range(n, -1, -1):
        feasible = [
            c
            for c in _compositions(j, k + 1)
            if all(c[i] <= target[i] for i in range(k + 1))
        ]
        if feasible:
            return j, set(feasible)
    raise AssertionError("unreachable: j = 0 is always feasible")


def dual_simplex_bland(columns, objective, rhs, basis):
    """Bland's dual simplex for max c.x over A x = b, x >= 0, from a
    basis, with B^-1 recomputed from scratch at every step.

    The leaving row holds the smallest basis index among the negative
    basic values; the entering column is the smallest j minimising
    r_j / w_j over w_j < 0, with r the reduced costs and w the leaving
    row of B^-1 A.  Returns (status, pivots, basis, x, value); status is
    None when the starting basis is not dual feasible, pivots lists
    (row, entering), and x maps every basic column to its value.
    """
    m = len(rhs)
    a = [[Fraction(v) for v in col] for col in columns]
    c = [Fraction(v) for v in objective]
    b = [Fraction(v) for v in rhs]
    basis = list(basis)
    pivots = []
    while True:
        inv = _invert([[a[j][i] for j in basis] for i in range(m)])
        xb = [sum(inv[r][i] * b[i] for i in range(m)) for r in range(m)]
        y = [sum(c[j] * inv[r][i] for r, j in enumerate(basis)) for i in range(m)]
        reduced = [cj - sum(yi * v for yi, v in zip(y, col)) for cj, col in zip(c, a)]
        if any(rj > 0 for rj in reduced):
            return None, pivots, tuple(basis), None, None
        negative = [r for r in range(m) if xb[r] < 0]
        if not negative:
            x = dict(zip(basis, xb))
            return "optimal", pivots, tuple(basis), x, sum(c[j] * v for j, v in x.items())
        row = min(negative, key=lambda r: basis[r])
        ratios = {}
        for j, col in enumerate(a):
            w = sum(inv[row][i] * col[i] for i in range(m))
            if w < 0:
                ratios[j] = reduced[j] / w
        if not ratios:
            return "infeasible", pivots, tuple(basis), None, None
        best = min(ratios.values())
        entering = min(j for j, v in ratios.items() if v == best)
        pivots.append((row, entering))
        basis[row] = entering


def make_random_values(int_points, resolution: int, seed: int, roughness=1):
    """make_random's values computed directly as Fractions, with a
    private splitmix64: one gate word and one draw per non-vertex point,
    in the given (lattice) order."""
    rough = Fraction(str(roughness)) if isinstance(roughness, (str, float)) else Fraction(roughness)
    mask = (1 << 64) - 1
    state = seed & mask

    def next_u64():
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    values = []
    for ints in int_points:
        if resolution in ints:
            values.append(Fraction(0))
            continue
        gate = next_u64()
        draw = next_u64() % 65
        if gate * rough.denominator < rough.numerator * (1 << 64):
            values.append(-Fraction(draw, 64))
        else:
            values.append(Fraction(0))
    return values
