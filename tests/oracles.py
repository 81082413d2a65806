"""Independent brute-force oracles used by the tests.

Everything here is deliberately written against fractions.Fraction and
plain itertools enumeration, sharing no code path with the package
(which uses integer kernels, LPs, DP and recurrences), so agreement
between the two is meaningful.  The one exception is
envelope_full_sweep, which runs the package's own solver over every
lattice column, on the integer coordinates with f's numerators as the
objective, and divides its values by f's denominator: it checks that
the envelope's column prune changes nothing, not the solver.  Likewise
fraction_interior_intersect builds its LP from Fraction coordinates
and hands the package's solve_lp, which takes ints only, each row of
[A | b] times the lcm of its denominators: it checks the integer LP
columns of geometry.simplices_interior_intersect, not the solver.
best_sums_ordered is the package's earlier integer DP, kept whole: it
checks the unordered-pair DP against every ordered pair.
sampled_transport is the averageable transport check as it was before
it became a proof: it runs the package's sup_convolve_n on sampled
functions and compares lattice means with a tolerance.
normalize_by_envelope is normalize_to_simplex_form as it was when it
ran the package's envelope sweep to read the vertex values and
subtracted their plane in Fraction arithmetic; it checks the integer
shift by f's own vertex values that replaced it.
grid_representatives_scan is the extremal grid report's earlier search
for cell representatives, kept whole: it tests every lattice point
against every cell with the package's cell_contains, and checks the
one-pass floor rule that replaced it.
midpoint_triples and earlier_neighbours are the envelope's two
lattice-move tables as they were before one enumeration of the moves
z -> z - e_a + e_b built both, kept whole; fraction_floor_rule is
classify_point's floor loop on Fraction coordinates before the floor
rule ran on integers, kept whole up to its m = 0 fix-up.
fraction_closure and fraction_find_cover are the good-translate closure
and cover search as they were when offsets were Fractions with
whatever denominator the derivation produced: corner and blend steps
through _mix, coverage by ceil(R*o) on Fractions, and the uncovered-cell
proof on the package's Fraction cell vertices and their barycenters
(cells come from the package's subdivide).  They check the integer
offsets over one denominator per level that replaced them.
"""

import math
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


def envelope_full_sweep(f):
    """(values, certificates) of the envelope sweep with one LP per
    lattice point over every lattice column, warm-started from the
    vertex basis and then from each point's optimal basis.  The LP's
    objective is f.nums, so each value is its optimum over f.den."""
    from supconvex.exactlp import ExactSimplexSolver

    lat = f.lattice
    solver = ExactSimplexSolver(lat.int_points, list(f.nums))
    basis = lat.vertex_indices()
    values, certificates = [], []
    for ints in lat.int_points:
        sol = solver.solve(ints, basis=basis)
        values.append(sol.value / f.den)
        certificates.append(tuple((j, w) for j, w in sorted(sol.x.items()) if w > 0))
        basis = sol.basis
    return tuple(values), tuple(certificates)


def envelope_sweep_by_solves(f, neighbours):
    """Per lattice point, (basis as a set of lattice indices, value,
    certificate) of the envelope sweep made of one warm
    ExactSimplexSolver.solve per point over the hull candidates, from
    the vertex basis and then from the basis the solve before returned.

    With neighbours, where that basis is infeasible at the point, the
    bases proved at its earlier neighbours (envelope._neighbours) are
    tested first, each distinct triple once, row by row in Fractions,
    and the solve starts from the first feasible one, which it returns
    as proved.  This is the values sweep; without, the certificate
    sweep.  No vertex-plane shortcut is taken.
    """
    from supconvex.envelope import _neighbours, hull_candidates
    from supconvex.exactlp import ExactSimplexSolver

    lat = f.lattice
    kept = hull_candidates(f)
    solver = ExactSimplexSolver([lat.int_points[j] for j in kept], [f.nums[j] for j in kept])
    near = _neighbours(lat)[0]

    def feasible(triple, ints):
        return all(sum(Fraction(a) * b for a, b in zip(row, ints)) >= 0 for row in triple[1])

    basis = [kept.index(j) for j in lat.vertex_indices()]
    proved, rows = [], []
    for i, ints in enumerate(lat.int_points):
        last = solver.proved
        if neighbours and last is not None and basis is last[0] and not feasible(last, ints):
            tried = {id(last)}
            for j in near[i]:
                if id(proved[j]) not in tried:
                    tried.add(id(proved[j]))
                    if feasible(proved[j], ints):
                        solver.proved = proved[j]
                        basis = proved[j][0]
                        break
        sol = solver.solve(ints, basis=basis)
        proved.append(solver.proved)
        certificate = tuple((kept[j], w) for j, w in sorted(sol.x.items()) if w > 0)
        rows.append((frozenset(kept[j] for j in sol.basis), sol.value / f.den, certificate))
        basis = sol.basis
    return rows


def normalize_by_envelope(f):
    """f minus the affine interpolant of its envelope's vertex values,
    from a full envelope sweep and the lattice's Fraction points."""
    from supconvex import concave_envelope, sampled_function

    env = concave_envelope(f)
    lat = f.lattice
    verts = [env.values[i] for i in lat.vertex_indices()]
    affine = (sum((v * c for v, c in zip(verts, p.coords)), Fraction(0)) for p in lat.points)
    return sampled_function(lat, [v - a for v, a in zip(f.values, affine)])


def grid_representatives_scan(k: int, n: int, resolution: int):
    """(m, shift, integer coordinates) per cell of subdivide(k, n), in
    its order, with the first lattice point strictly inside the cell,
    or None for a cell with no such point."""
    from supconvex import lattice, subdivide
    from supconvex.subdivision import cell_contains

    lat = lattice(k, resolution)
    rows = []
    for cell in subdivide(k, n):
        rep = next(
            (ints for ints, p in zip(lat.int_points, lat.points) if cell_contains(cell, p, strict=True)),
            None,
        )
        rows.append((cell.m, cell.shift, rep))
    return rows


def midpoint_triples(lat):
    """(p, p + d, p - d) as lattice indices, for every point p and every
    d = e_a - e_b with both ends in the lattice."""
    triples = []
    for i, p in enumerate(lat.int_points):
        for b in range(lat.k + 1):
            for a in range(b):
                if p[a] and p[b]:
                    d = [(t == a) - (t == b) for t in range(lat.k + 1)]
                    hi = lat.index([x + y for x, y in zip(p, d)])
                    triples.append((i, hi, lat.index([x - y for x, y in zip(p, d)])))
    return tuple(triples)


def earlier_neighbours(lat):
    """Per lattice point z, the indices of its neighbours z - e_a + e_b
    with a < b, the ones that precede z in lattice order, nearest
    first."""
    near = []
    for p in lat.int_points:
        found = []
        for a in range(lat.k + 1):
            if p[a]:
                for b in range(a + 1, lat.k + 1):
                    q = list(p)
                    q[a] -= 1
                    q[b] += 1
                    found.append(lat.index(q))
        near.append(tuple(sorted(found, reverse=True)))
    return tuple(near)


def fraction_floor_rule(n: int, coords):
    """(m, shift, on_boundary) of the floor rule at the Fraction point
    coords: v = floor(n z) componentwise, m = n - sum(v), on the
    boundary when some n z_i is an integer."""
    floors = []
    boundary = False
    for c in coords:
        y = n * c
        f = math.floor(y)
        if y == f:
            boundary = True
        floors.append(f)
    return n - sum(floors), tuple(floors), boundary


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


def best_sums_ordered(int_points, nums):
    """Best nums[0][x_1] + ... + nums[m-1][x_m] over lattice points with
    x_1 + ... + x_m = m * z, for every point z of int_points, by the
    integer meet-in-the-middle DP that visits every ordered pair: dict
    stages keyed by base-(mN + 1) codes of the first k coordinates, the
    right stage bucketed by its residues mod m, computed entry by entry.
    It checks the package's unordered-pair DP over cached classes on
    integer numerators directly."""
    m, k = len(nums), len(int_points[0]) - 1
    base = m * sum(int_points[0]) + 1
    codes = [sum(c * base**i for i, c in enumerate(p[:-1])) for p in int_points]

    def residue(code, sign):
        key = 0
        for _ in range(k):
            code, digit = divmod(code, base)
            key = key * m + sign * digit % m
        return key

    def stage(lists):
        out = dict(zip(codes, lists[0]))
        for vals in lists[1:]:
            grown = {}
            for w_prev, acc in out.items():
                for p, v in zip(codes, vals):
                    w = w_prev + p
                    if w not in grown or acc + v > grown[w]:
                        grown[w] = acc + v
            out = grown
        return out

    half = m // 2
    left, right = stage(nums[:half]), stage(nums[half:])
    buckets = {}
    for y, v in right.items():
        buckets.setdefault(residue(y, 1), []).append((y, v))
    best = {}
    for x, u in left.items():
        for y, v in buckets.get(residue(x, -1), ()):
            w = x + y
            if w not in best or u + v > best[w]:
                best[w] = u + v
    return [best[m * c] for c in codes]


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


# -- the Fraction geometry: volumes, containment and overlap ---------------


def fraction_eliminate(rows, rhs=()):
    """Gauss-Jordan elimination in Fraction arithmetic: (det(A), X) with
    X[j] solving A x = b_j, or (0, None) when A is singular."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(b[i]) for b in rhs] for i, row in enumerate(rows)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = -det
        det *= aug[col][col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return det, [[row[n + j] for row in aug] for j in range(len(rhs))]


def fraction_relative_volume(s):
    """|det| of the vertex differences in the drop-last-coordinate chart."""
    from supconvex.geometry import DegenerateSimplexError

    base, k = s.vertices[0].coords, s.k
    det, _ = fraction_eliminate(
        [[v.coords[j] - base[j] for j in range(k)] for v in s.vertices[1:]]
    )
    if det == 0:
        raise DegenerateSimplexError("zero-volume simplex")
    return abs(det)


def fraction_contains(s, p):
    """Whether the barycentric weights of p in s are a convex combination."""
    from supconvex.geometry import DegenerateSimplexError

    if p.dim != s.k:
        raise ValueError("point and simplex dimensions differ")
    rows = list(zip(*(v.coords for v in s.vertices)))  # vertices as columns
    _, solution = fraction_eliminate(rows, [p.coords])
    if solution is None:
        raise DegenerateSimplexError("zero-volume simplex")
    return sum(solution[0]) == 1 and all(w >= 0 for w in solution[0])


def fraction_interior_intersect(a, b):
    """Whether max t, over points with every barycentric weight >= t in
    both simplices, is positive; the LP built on Fraction columns."""
    from supconvex.exactlp import solve_lp

    if a.k != b.k:
        raise ValueError("simplex dimensions differ")
    fraction_relative_volume(a)
    fraction_relative_volume(b)
    d = a.k + 1
    t_col = [
        sum(v.coords[i] for v in a.vertices) - sum(v.coords[i] for v in b.vertices)
        for i in range(d)
    ] + [Fraction(d), Fraction(d)]
    cols = [t_col]
    cols += [list(v.coords) + [Fraction(1), Fraction(0)] for v in a.vertices]
    cols += [[-c for c in v.coords] + [Fraction(0), Fraction(1)] for v in b.vertices]
    rhs = [Fraction(0)] * d + [Fraction(1)] * 2
    # Row i of [A | b] times the lcm of its denominators, which leaves x
    # and the value as they are.
    scales = [math.lcm(*(v.denominator for v in row)) for row in zip(*cols, rhs)]
    cols = [[int(v * s) for v, s in zip(col, scales)] for col in cols]
    rhs = [int(v * s) for v, s in zip(rhs, scales)]
    status, value, _ = solve_lp(cols, [1] + [0] * (2 * d), rhs)
    if status == "infeasible":
        return False
    assert status == "optimal", status
    return value > 0


# -- the sampled averageable transport check -------------------------------


def sampled_transport(cert, functions, tol_rel=Fraction(1, 20), tol_abs=Fraction(1, 10**9)):
    """(passed, witness): for each f, the mean of conv(f, m) over the
    lattice points in the target against the mean of f over the lattice,
    both scaled by |S|/|T|, within the tolerance."""
    from supconvex import sup_convolve_n

    vol = cert.target.rel_volume
    for t, f in enumerate(functions):
        conv = sup_convolve_n(f, cert.m)
        inside = [v for v, p in zip(conv.values, f.lattice.points) if cert.target.member(p)]
        if not inside:
            return False, "no lattice points inside the target"
        lhs = vol * sum(inside, Fraction(0)) / len(inside)
        rhs = vol * sum(f.values, Fraction(0)) / len(f.values)
        if lhs < rhs - (tol_rel * abs(rhs) + tol_abs):
            return False, f"function {t}: {lhs} < {rhs} minus tolerance"
    return True, ""


# -- the Fraction good-translate closure and cover search --------------------


def _mix(n, p, q):
    """((n-1)*p + q)/n."""
    return ((n - 1) * p + q) / n


def fraction_closure(k, n, max_level, budget=4000, blend_rounds=2):
    """(translates, truncated): every derivable translate as a tuple
    (level, offset, constant), ordered by (level, offset), with offsets
    and constants in Fractions, under the package's budget rule and
    without its blend cap."""
    zero = Fraction(0)
    levels = [{(zero,) * (k + 1): zero}]
    truncated = False
    total = 1
    for _ in range(max_level):
        current = {}

        def consider(offset, constant):
            if offset not in current or constant < current[offset]:
                current[offset] = constant

        for o, c in levels[-1].items():
            for i in range(k + 1):
                consider(
                    tuple(_mix(n, Fraction(int(j == i)), x) for j, x in enumerate(o)),
                    1 + c / Fraction(n) ** (k + 1),
                )
        for _ in range(blend_rounds):
            if total + len(current) > budget:
                truncated = True
                break
            snapshot = [(o, current[o]) for o in sorted(current)]
            for oa, ca in snapshot:
                for ob, cb in snapshot:
                    if oa != ob:
                        consider(tuple(_mix(n, a, b) for a, b in zip(oa, ob)), 1 + _mix(n, ca, cb))
                if total + len(current) > budget:
                    truncated = True
                    break
            if truncated:
                break
        total += len(current)
        levels.append(current)
        if total > budget:
            truncated = True
            break
    translates = [
        (level, o, level_map[o]) for level, level_map in enumerate(levels) for o in sorted(level_map)
    ]
    return translates, truncated


def fraction_find_cover(k, n, level, pool, max_refine=2):
    """(outcome, resolution, certificate) for a pool of (offset, constant)
    pairs of level-`level` translates: outcome is "cover", "uncoverable"
    (a cell vertex or barycenter lies in no translate), "too-many" or
    "unresolved" (still uncovered after max_refine refinements);
    resolution is the last one tried, and the certificate (chosen pairs,
    sum of constants, derived constant) is given for "cover" only."""
    from supconvex import cell_vertices, subdivide

    pool = sorted(pool, key=lambda t: (t[1], t[0]))
    bound = n ** (level * (k + 1))
    for extra in range(max_refine + 1):
        resolution = n ** (level + extra)
        cells = subdivide(k, resolution)
        coverage = [
            {
                idx
                for idx, cell in enumerate(cells)
                if all(s >= math.ceil(resolution * x) for s, x in zip(cell.shift, o))
            }
            for o, _ in pool
        ]
        if set().union(*coverage) != set(range(len(cells))):
            for idx, cell in enumerate(cells):
                if any(idx in cov for cov in coverage):
                    continue
                verts = [v.coords for v in cell_vertices(cell)]
                bary = tuple(sum(col) / len(verts) for col in zip(*verts))
                for p in verts + [bary]:
                    if not any(all(c >= x for c, x in zip(p, o)) for o, _ in pool):
                        return "uncoverable", resolution, None
            continue
        uncovered = set(range(len(cells)))
        chosen = []
        while uncovered:
            best = max(range(len(pool)), key=lambda i: (len(coverage[i] & uncovered), -i))
            chosen.append(pool[best])
            uncovered -= coverage[best]
        if len(chosen) >= bound:
            return "too-many", resolution, None
        total = sum(c for _, c in chosen)
        return "cover", resolution, (chosen, total, (1 - Fraction(len(chosen), bound)) / total)
    return "unresolved", resolution, None
