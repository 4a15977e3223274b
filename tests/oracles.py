"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes quantities from first principles (atom
enumeration, direct exponential sums, subset enumeration) and must stay
independent of the library code paths it is used to check.
"""

import cmath
import itertools
import math
from fractions import Fraction

import mpmath


def atoms_with_weights(system, first, last):
    """Atoms of the discrete window measure as {position: weight}."""
    items = {Fraction(0): Fraction(1)}
    for k in range(first, last + 1):
        lev = system.level(k)
        step = Fraction(lev.scale, system.level_product(k))
        new = {}
        for pos, w in items.items():
            for d in range(lev.count):
                key = pos + d * step
                new[key] = new.get(key, Fraction(0)) + w / lev.count
        items = new
    return items


def transform_direct(system, first, last, xi):
    """mu_hat(xi) by direct summation over the atom measure."""
    total = 0j
    for pos, w in atoms_with_weights(system, first, last).items():
        total += float(w) * cmath.exp(-2j * math.pi * float(xi * pos))
    return total


def transform_factor_product(system, first, last, xi):
    """mu_hat(xi) of a finite window as the product of its factors' direct
    sums in 30-digit mpmath; each argument a xi / B_k is first moved into
    (-1/2, 1/2] exactly, so a factor stays accurate when its argument mod 1
    is below the float range or near 1."""
    b = running_products(system, last)
    with mpmath.workdps(30):
        total = mpmath.mpc(1)
        for k in range(first, last + 1):
            lev = system.level(k)
            t = lev.scale * xi / b[k]
            t -= math.floor(t + Fraction(1, 2))
            t = mpmath.mpf(t.numerator) / t.denominator
            total *= mpmath.fsum(mpmath.expj(-2 * mpmath.pi * j * t)
                                 for j in range(lev.count)) / lev.count
        return complex(total)


def transform_infinite(system, xi):
    """mu_hat(xi) of the infinite window of a periodic-tail system in
    50-digit mpmath: the product of the factors' direct sums up to the first
    depth L at which the exact tail bound (355/113) |xi| T_L / B_L is below
    10^-30, T_L = B_L sum_{k>L} (N_k - 1) a_k / B_k.  Each later factor is
    within pi (N_k - 1) a_k |xi| / B_k of 1, so the product is within about
    10^-30 of mu_hat(xi), and rounding adds far less.  T_0 is
    tail_series_reference(system, 0), then T_k = b_k T_{k-1} - (N_k - 1) a_k;
    each argument a_k xi / B_k is moved into (-1/2, 1/2] exactly."""
    tail = tail_series_reference(system, 0)
    p, q = xi.numerator, xi.denominator
    big = atoms = 1
    with mpmath.workdps(50):
        total, k = mpmath.mpc(1), 0
        while (355 * abs(p) * tail.numerator * 10 ** 30
               >= 113 * q * tail.denominator * big):
            k += 1
            lev = system.level(k)
            big *= lev.base
            atoms *= lev.count
            tail = lev.base * tail - (lev.count - 1) * lev.scale
            den = q * big
            r = lev.scale * p % den
            if 2 * r > den:
                r -= den
            root = mpmath.expj(-2 * mpmath.pi * r / den)
            factor = mpmath.mpc(1)  # 1 + root + ... + root^(N-1), Horner
            for _ in range(lev.count - 1):
                factor = factor * root + 1
            total *= factor
        return total / atoms


def q_direct(system, first, last, lam_set, xi):
    return sum(abs(transform_direct(system, first, last, xi + lam)) ** 2
               for lam in lam_set)


def is_orthogonal_basis(system, first, last, lam_set, tol=1e-10):
    """Gram-matrix style check: pairwise mu_hat(diff) = 0 and full count."""
    atoms = atoms_with_weights(system, first, last)
    elems = sorted(lam_set)
    for i, x in enumerate(elems):
        for y in elems[i + 1:]:
            if abs(transform_direct(system, first, last, y - x)) > tol:
                return False
    return len(elems) == len(atoms)


def enumerate_spectra(system, last, grid, limit):
    """All spectra on the residue grid, by exhaustive subset enumeration.

    Only usable for tiny windows; returns sorted tuples of Fractions.
    """
    atoms = atoms_with_weights(system, 1, last)
    m = len(atoms)
    b_n = system.level_product(last)
    candidates = [Fraction(j, grid) for j in range(b_n * grid)]
    found = []
    for combo in itertools.combinations(candidates, m):
        if Fraction(0) not in combo:
            continue
        if is_orthogonal_basis(system, 1, last, combo):
            found.append(tuple(sorted(combo)))
            if len(found) >= limit:
                break
    return found


def single_factor_spectrum_check(n, cs):
    """Spectrum test for delta on {0, ..., N-1}: residues mod 1 are {j/N}."""
    if Fraction(0) not in cs:
        raise ValueError("candidate set must contain 0")
    residues = {c % 1 for c in cs}
    return len(cs) == n and residues == {Fraction(j, n) for j in range(n)}


def poly_multiply(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# Fraction-based references for the integer kernels.  Each one recomputes
# B_k by its own running product from system.level(k), never from the
# library's level table.


def running_products(system, upto):
    """[B_0, B_1, ..., B_upto] by a running product of the bases."""
    out = [1]
    for k in range(1, upto + 1):
        out.append(out[-1] * system.level(k).base)
    return out


def zero_stratum_reference(window, lam):
    """(level, multiplier) of the first zero stratum holding lam, or None.

    Per level, lam * a_k * N_k / B_k is formed as a Fraction and tested for
    being an integer outside N_k Z.
    """
    system = window.system
    if window.last is None:
        max_an = max(l.scale * l.count for l in system.tail.levels)
        bound = abs(lam) * max_an
    b = running_products(system, window.first - 1)[-1]
    k = window.first
    while True:
        if window.last is not None and k > window.last:
            return None
        lev = system.level(k)
        b *= lev.base
        if window.last is None and k > system.prefix_length and b > bound:
            return None
        t = lam * lev.scale * lev.count / b
        if t.denominator == 1 and t.numerator % lev.count != 0:
            return k, t.numerator
        k += 1


def tail_series_reference(system, after):
    """Exact sum over k > after of (N_k - 1) a_k / B_k for a periodic tail:
    explicit terms up to the prefix end, then one geometric block."""
    weight = lambda lev: (lev.count - 1) * lev.scale
    p, block_len = system.prefix_length, len(system.tail.levels)
    start = max(after, p)
    b = running_products(system, start + block_len)
    total = sum((Fraction(weight(system.level(k)), b[k])
                 for k in range(after + 1, start + 1)), Fraction(0))
    block = sum((Fraction(weight(system.level(k)), b[k])
                 for k in range(start + 1, start + block_len + 1)),
                Fraction(0))
    period = b[start + block_len] // b[start]
    return total + block * Fraction(period, period - 1)


def truncation_cutoff_reference(window, xi, eps):
    """Smallest n >= first - 1 with (355/113) |xi| sum_{k>n} ... < eps,
    re-summing the tail series at every step (quadratic in n)."""
    eps_q = Fraction(eps)
    n = window.first - 1
    while Fraction(355, 113) * abs(xi) * tail_series_reference(
            window.system, n) >= eps_q:
        n += 1
    return n


def _abs_sin_pi(num, den):
    r = num % den
    if 2 * r > den:
        r = den - r
    return math.sin(math.pi * (r / den))


def abs2_transform_reference(window, y):
    """|mu_hat(y)|^2 of a finite window, with y = p/q in lowest terms and
    each factor's argument a p / (q B_k) reduced exactly before the float."""
    system = window.system
    b = running_products(system, window.last)
    p, q = y.numerator, y.denominator
    acc = 1.0
    for k in range(window.first, window.last + 1):
        lev = system.level(k)
        den = q * b[k]
        r = (lev.scale * p) % den
        if r == 0:
            continue
        v = _abs_sin_pi(lev.count * r, den) / (lev.count * _abs_sin_pi(r, den))
        acc *= v * v
    return acc


def q_grid_reference(window, cs, start, stop, step):
    """Q samples of a finite window by Fraction stepping from start."""
    samples = []
    xi = Fraction(start)
    while xi <= stop:
        samples.append(
            (xi, sum(abs2_transform_reference(window, xi + lam)
                     for lam in cs)))
        xi += step
    return samples


# ---------------------------------------------------------------------------
# Fraction-based references for the set-level checks: the pairwise loops as
# they were before the integer zero-set predicate, on zero_stratum_reference
# and atom enumeration.  Decomposition reports are (name, ok, witness)
# tuples, with rationals rendered as in the CLI.


def _fmt(x):
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def _in_zero_set(window, lam):
    return zero_stratum_reference(window, lam) is not None


def is_bizero_reference(window, elems):
    """(ok, first violating pair) over the sorted elements."""
    elems = sorted(elems)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if not _in_zero_set(window, elems[j] - elems[i]):
                return False, (elems[i], elems[j])
    return True, None


def spectrum_status_reference(window, elems):
    if not is_bizero_reference(window, elems)[0]:
        return "OrthogonalityFail"
    atoms = atoms_with_weights(window.system, window.first, window.last)
    return "Spectrum" if len(elems) == len(atoms) else "CardinalityFail"


def maximal_bizero_subset_reference(window, elems):
    kept = [Fraction(0)]
    for lam in sorted(elems):
        if lam != 0 and all(_in_zero_set(window, lam - a) for a in kept):
            kept.append(lam)
    return tuple(sorted(kept))


def decomposition_parts_reference(nu, omega, head, elems):
    """{alpha: sorted part} of a spectrum split along the head A."""
    parts = {a: [a] for a in head}
    for lam in sorted(elems):
        for a in head:
            if lam != a and _in_zero_set(omega, lam - a) \
                    and not _in_zero_set(nu, lam - a):
                parts[a].append(lam)
    return {a: tuple(sorted(p)) for a, p in parts.items()}


def verify_decomposition_reference(nu, omega, head, parts, candidate):
    """The four clauses of a suitable decomposition, each a
    (name, ok, witness) tuple; parts maps alpha to a sorted tuple."""
    clauses = []
    covered = sorted(x for s in parts.values() for x in s)
    total = sum(len(s) for s in parts.values())
    partition_ok = (covered == sorted(candidate)
                    and total == len(candidate)
                    and all(a in s for a, s in parts.items()))
    clauses.append(("partition", partition_ok,
                    None if partition_ok
                    else "parts do not partition the spectrum"))
    status = spectrum_status_reference(nu, head)
    clauses.append(("head-spectrum", status == "Spectrum",
                    None if status == "Spectrum" else f"A: {status}"))
    part_ok, part_witness = True, None
    for a, s in sorted(parts.items()):
        status = spectrum_status_reference(omega, s)
        if status != "Spectrum":
            part_ok, part_witness = False, f"Lambda[{_fmt(a)}]: {status}"
            break
    clauses.append(("part-spectra", part_ok, part_witness))
    clauses.append(("containments",) + _containments_reference(
        nu, omega, sorted(parts.items())))
    return clauses


def _containments_reference(nu, omega, items):
    for a, s in items:
        for x in s:
            for y in s:
                if x != y and (not _in_zero_set(omega, x - y)
                               or _in_zero_set(nu, x - y)):
                    return False, f"within Lambda[{_fmt(a)}]: {_fmt(x - y)}"
    for a, s in items:
        for a2, s2 in items:
            if a2 <= a:
                continue
            for x in s:
                for y in s2:
                    if not _in_zero_set(nu, x - y):
                        return False, \
                            f"across parts: {_fmt(x)} - {_fmt(y)}"
    return True, None


def convolve_uniform_reference(d_elements, c_elements, length):
    """The dict count of D (+) C = {0, ..., L-1}: every sum d + c, repeats
    counted, formed by sumset_counts (whose term budget raises
    BudgetError), against {s: 1 for s in range(L)}."""
    from moran.system import sumset_counts
    return sumset_counts((d_elements, c_elements)) == dict.fromkeys(
        range(length), 1)


def window_refutation_reference(dset, width, node_budget):
    """The recursive relaxed-covering search: True iff it proves that no
    packing of translates of dset covers [0, width) within the budget."""
    dmask = sum(1 << d for d in dset)
    full = (1 << width) - 1
    budget = [node_budget]

    def cover(bits):  # True / False / None (budget exhausted)
        if bits & full == full:
            return True
        budget[0] -= 1
        if budget[0] < 0:
            return None
        inv = ~bits
        u = (inv & -inv).bit_length() - 1
        inconclusive = False
        for d in dset:
            t = u - d
            translate = dmask << t if t >= 0 else dmask >> -t
            if translate & bits:
                continue
            result = cover(bits | translate)
            if result:
                return True
            if result is None:
                inconclusive = True
        return None if inconclusive else False

    return cover(dmask) is False


# ---------------------------------------------------------------------------
# Integer tiles by polynomials and by recursion: the cyclotomic divisibility
# test by exact division, and the recursive complement search.


def poly_divide_exact(num, den):
    """Quotient of num / den over Z (low-to-high coefficients) if the
    division is exact, else None."""
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    quotient = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        if num[i] == 0:
            continue
        if num[i] % lead != 0:
            return None
        q = num[i] // lead
        quotient[i - dn] = q
        for j, c in enumerate(den):
            num[i - dn + j] -= q * c
    return None if any(num[:dn]) else quotient


def cyclotomic(n):
    """Coefficients of the n-th cyclotomic polynomial: x^n - 1 divided by
    Phi_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = poly_divide_exact(poly, cyclotomic(d))
    return tuple(poly)


def prime_power_divisors_reference(dset):
    """Prime powers p^a with Phi_{p^a} | A(x), by exact division, scanned
    over every prime p and every power with phi(p^a) <= max A."""
    top = max(dset)
    mask = [0] * (top + 1)
    for d in dset:
        mask[d] = 1
    found = []
    for p in range(2, top + 2):
        if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            continue
        power = p
        while (power // p) * (p - 1) <= top:
            if poly_divide_exact(mask, cyclotomic(power)) is not None:
                found.append(power)
            power *= p
    return found


def search_complement_reference(digits, m):
    """The recursive least-uncovered-first complement search in Z_m."""
    masks = [sum(1 << ((d + t) % m) for d in digits) for t in range(m)]
    full = (1 << m) - 1

    def fill(cover, chosen):
        if cover == full:
            return chosen
        hole = ~cover & full
        s = (hole & -hole).bit_length() - 1
        for t in sorted({(s - d) % m for d in digits}):
            if masks[t] & cover:
                continue
            result = fill(cover | masks[t], chosen + [t])
            if result is not None:
                return result
        return None

    return fill(0, [])


def spectrum_search_reference(window, budget=5000):
    """The recursive clique search: the smallest full-cardinality clique
    containing 0 among the residues mod B_n * lcm(a_k N_k) whose
    differences lie in the zero set, or None."""
    from moran.errors import BudgetError

    system = window.system
    b_n = running_products(system, window.last)[-1]
    grid = math.lcm(*(system.level(k).scale * system.level(k).count
                      for k in range(window.first, window.last + 1)))
    modulus = b_n * grid
    if modulus > 250_000:
        raise BudgetError(f"residue grid of size {modulus} is too large")
    good = [j != 0 and _in_zero_set(window, Fraction(j, grid))
            for j in range(modulus)]
    vertices = [j for j in range(modulus) if j == 0 or good[j]]
    if len(vertices) > budget:
        raise BudgetError(f"{len(vertices)} vertices exceed budget {budget}")
    target = len(atoms_with_weights(system, window.first, window.last))
    if target > len(vertices):
        return None

    def extend(clique, candidates):
        if len(clique) == target:
            return clique
        if len(clique) + len(candidates) < target:
            return None
        for i, v in enumerate(candidates):
            rest = [u for u in candidates[i + 1:] if good[(u - v) % modulus]]
            found = extend(clique + [v], rest)
            if found is not None:
                return found
        return None

    found = extend([0], [v for v in vertices if v != 0])
    return None if found is None else tuple(Fraction(j, grid) for j in found)
