"""Independent answers for every benchmark op.

Nothing here imports spincalc.  Each function recomputes a quantity by a
route other than the library's, or states the closed form the paper gives,
so that a wrong library answer is counted as a failed op.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

# ---------------------------------------------------------------- Bernoulli


def bernoulli_table(n: int) -> list[Fraction]:
    """|B_2k| for k = 0..n from the integer tangent numbers T_k.

    Brent & Harvey, "Fast computation of Bernoulli, Tangent and Secant
    numbers" (2011): |B_2k| = 2k T_k / (4^k (4^k - 1)).  Entry 0 is unused.
    """
    t = [0] * (n + 1)
    if n >= 1:
        t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return [Fraction(0)] + [
        Fraction(2 * k * t[k], 4**k * (4**k - 1)) for k in range(1, n + 1)
    ]


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def von_staudt_primes(k: int) -> list[int]:
    """Primes p with (p - 1) | 2k."""
    n = 2 * k
    return [d + 1 for d in range(1, n + 1) if n % d == 0 and _is_prime(d + 1)]


def von_staudt_factorization(k: int) -> dict[int, int]:
    """den(B_k / 2k): each von Staudt prime p with exponent 1 + nu_p(2k)."""
    out = {}
    for p in von_staudt_primes(k):
        e, m = 1, 2 * k
        while m % p == 0:
            e, m = e + 1, m // p
        out[p] = e
    return out


def von_staudt_den(k: int) -> int:
    out = 1
    for p, e in von_staudt_factorization(k).items():
        out *= p**e
    return out


def bernoulli_ok(k: int, value, table: list[Fraction]) -> bool:
    """Positive B_k equals the tangent-number value, and von Staudt-Clausen
    holds: B_2k + sum_{(p-1) | 2k} 1/p is an integer."""
    if value != table[k] or value <= 0:
        return False
    signed = value if k % 2 == 1 else -value
    return (signed + sum(Fraction(1, p) for p in von_staudt_primes(k))).denominator == 1


def quotient_ok(k: int, value, table: list[Fraction]) -> bool:
    return value == table[k] / (2 * k) and value.denominator == von_staudt_den(k)


def divisor_oriented(n: int) -> int:
    return 2 if n % 2 == 0 else von_staudt_den((n + 1) // 2)


def divisor_spin(n: int) -> tuple[int, str]:
    """(spin divisor, maximality) of kappa_n."""
    if n % 2 == 0:
        return 2 ** (n + 1), "proven_maximal"
    m = (n + 1) // 2
    return 2 ** (2 * m) * von_staudt_den(m), "lower_bound_only"


# ----------------------------------------------------------------------- F2


def pair(g: int, x: int, y: int) -> int:
    """Standard symplectic pairing: bit i pairs with bit g + i."""
    lo = (1 << g) - 1
    return (((x & lo) & (y >> g)).bit_count() + ((y & lo) & (x >> g)).bit_count()) & 1


def q_value(g: int, bv: int, x: int) -> int:
    """q(x) of the standard-pairing form with basis values bv."""
    lo = (1 << g) - 1
    return ((x & bv).bit_count() + ((x & lo) & (x >> g)).bit_count()) & 1


def arf(g: int, bv: int) -> int:
    """Additive Arf invariant sum_i q(a_i) q(b_i)."""
    return ((bv & ((1 << g) - 1)) & (bv >> g)).bit_count() & 1


def zeros(g: int, arf_additive: int) -> int:
    return 2 ** (g - 1) * (2**g + (-1) ** arf_additive)


def census(g: int) -> tuple[int, int]:
    """(forms with arf +1, forms with arf -1) among the 4^g forms."""
    return 2 ** (g - 1) * (2**g + 1), 2 ** (g - 1) * (2**g - 1)


def apply(cols, x: int) -> int:
    out, i = 0, 0
    while x:
        if x & 1:
            out ^= cols[i]
        x, i = x >> 1, i + 1
    return out


def witness_ok(g: int, bv1: int, bv2: int, cols) -> bool:
    """T is symplectic and q2(T x) = q1(x) for every x."""
    n = 2 * g
    if len(cols) != n:
        return False
    if any(
        pair(g, cols[i], cols[j]) != pair(g, 1 << i, 1 << j)
        for i in range(n)
        for j in range(i + 1, n)
    ):
        return False
    return all(
        q_value(g, bv2, apply(cols, x)) == q_value(g, bv1, x) for x in range(1 << n)
    )


# -------------------------------------------------------------- polynomials


def terms_of(json_terms) -> dict:
    """{((gen, exp), ...): coeff} from a json_terms() list."""
    return {
        tuple(sorted(t["exponents"].items())): int(t["coeff"]) for t in json_terms
    }


def _add(acc: dict, key, c: int) -> None:
    acc[key] = acc.get(key, 0) + c
    if acc[key] == 0:
        del acc[key]


def _monomial(**exps) -> tuple:
    return tuple(sorted((g, e) for g, e in exps.items() if e))


def proj_kappa(n: int) -> dict:
    """2 (c1^2 - 4 c2)^k at n = 2k by the binomial theorem; 0 at odd n."""
    out: dict = {}
    if n % 2 == 0:
        k = n // 2
        for j in range(k + 1):
            _add(out, _monomial(c1=2 * (k - j), c2=j), 2 * comb(k, j) * (-4) ** j)
    return out


def _reduce_2c3(terms: dict) -> dict:
    out = {}
    for mono, c in terms.items():
        if dict(mono).get("c3", 0) > 0:
            c %= 2
        if c:
            out[mono] = c
    return out


def sphere_lambda(n: int) -> dict:
    """Power sum p_n of three Chern roots with c1 = 0, in Z[c2, c3]/(2 c3).

    Girard-Waring with e1 = 0: p_n = sum over 2i + 3j = n of
    (-1)^n n (i + j - 1)! / (i! j!) (-c2)^i (-c3)^j.  p_0 is replaced by
    the index-bundle rank 2.
    """
    if n == 0:
        return {(): 2}
    out: dict = {}
    for j in range(n // 3 + 1):
        rest = n - 3 * j
        if rest % 2:
            continue
        i = rest // 2
        c = (-1) ** n * n * factorial(i + j - 1) // (factorial(i) * factorial(j))
        _add(out, _monomial(c2=i, c3=j), c * (-1) ** (i + j))
    return _reduce_2c3(out)


def sphere_kappa_quotient(n: int) -> dict:
    """kappa_2k = 2 p1^k under p1 -> -c2; odd kappa vanish."""
    if n % 2:
        return {}
    return {_monomial(c2=n // 2): 2 * (-1) ** (n // 2)}


def lambda_kappa_difference(n: int) -> dict:
    out = dict(sphere_lambda(n))
    for mono, c in sphere_kappa_quotient(n).items():
        _add(out, mono, -c)
    return _reduce_2c3(out)


# ------------------------------------------------------------ Riemann-Roch


def h0(g: int, m: int) -> int:
    """dim H^0(K^m) on a genus-g curve, from degree and Riemann-Roch.

    deg K^m = m (2g - 2).  Negative degree has no sections; degree zero is
    trivial exactly when m = 0 or g = 1; above deg K, h^1 = 0 and RR gives
    deg - g + 1; m = 1 gives g.
    """
    deg = m * (2 * g - 2)
    if m == 0 or g == 1:
        return 1
    if deg < 0:
        return 0
    if m == 1:
        return g
    return deg - g + 1


# ----------------------------------------------------------------- Seifert


def obstruction(pairs) -> Fraction:
    a = 1
    for aj, _ in pairs:
        a *= aj
    return a * sum((Fraction(b, aj) for aj, b in pairs), Fraction(0))


def bundle_from_doc(doc: dict):
    """(pairs, N, r_h or None, [s-values per fiber]) of a flat-bundle doc."""
    pairs = [(int(a), int(b)) for a, b in doc["pairs"]]
    n = int(doc["N"])
    center = doc["center"]
    r = None if center == "trivial" else int(center["scalar_exponent"])
    by_fiber = {}
    for prof in doc["profiles"]:
        j = int(prof["fiber"])
        a, b = pairs[j - 1]
        if "s_values" in prof:
            s = [Fraction(v) for v in prof["s_values"]]
        else:
            s = [Fraction(int(e) % (n * a) + b * (r or 0), n) for e in prof["exponents"]]
        by_fiber[j] = s
    return pairs, n, r, [by_fiber[j] for j in sorted(by_fiber)]


def e_direct(pairs, profiles) -> Fraction:
    """e = -sum_j sum_k a s_k^2 / (2 a_j^2) mod Z, summed term by term."""
    a = 1
    for aj, _ in pairs:
        a *= aj
    total = Fraction(0)
    for (aj, _), s_values in zip(pairs, profiles):
        for s in s_values:
            total -= a * s * s / (2 * aj * aj)
    return total % 1


def e_power_sums(pairs, n: int, profiles) -> Fraction:
    """2 Re(N e) from power sums: sum_kl (s_k - s_l)^2 = 2N sum s^2 - 2 (sum s)^2."""
    a = 1
    for aj, _ in pairs:
        a *= aj
    total = Fraction(0)
    for (aj, _), s_values in zip(pairs, profiles):
        s1 = sum(s_values, Fraction(0))
        s2 = sum((s * s for s in s_values), Fraction(0))
        total -= Fraction(a, 2 * aj * aj) * (2 * n * s2 - 2 * s1 * s1)
    return total % 1


def order24(residue: Fraction):
    """Order in the 24-torsion group, or None when the residue is not 24-torsion."""
    return residue.denominator if residue.denominator <= 24 else None


def legible(residue: Fraction) -> Fraction:
    return residue - 1 if residue > Fraction(1, 2) else residue


def stabilized(n: int) -> Fraction:
    return (Fraction(-1, 12) - Fraction(n, 3)) % 1


def residue_of(doc: dict) -> Fraction:
    r = doc["residue"]
    return Fraction(int(r["num"]), int(r["den"]))


# ----------------------------------------------------------------- SL2(F5)


def sl2_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % 5, (a * f + b * h) % 5, (c * e + d * g) % 5, (c * f + d * h) % 5)


def sl2_power(x, k: int):
    out = (1, 0, 0, 1)
    for _ in range(k):
        out = sl2_mul(out, x)
    return out


def presentation_ok(h, x1, x2, x3) -> bool:
    """x1^2 = x2^3 = x3^5 = h = -1 and x1 x2 x3 = 1."""
    minus = (4, 0, 0, 4)
    return (
        tuple(h) == minus
        and sl2_power(x1, 2) == minus
        and sl2_power(x2, 3) == minus
        and sl2_power(x3, 5) == minus
        and sl2_mul(sl2_mul(x1, x2), x3) == (1, 0, 0, 1)
    )


ICOSA_CENSUS = {1: 1, 2: 1, 3: 20, 4: 30, 5: 24, 6: 20, 10: 24}
