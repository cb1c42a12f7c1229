"""Polynomials over F_p as coefficient lists, constant term first.

The zero polynomial is the empty list; nonzero polynomials carry no
trailing zeros. Enough arithmetic for squarefreeness and distinct-degree
factorization, which is what the Frobenius cycle-type sampling needs.
"""


def trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def degree(f):
    return len(f) - 1


def from_int_coeffs(coeffs, p):
    """Reduce integer coefficients (constant first) mod p."""
    return trim([c % p for c in coeffs])


def sub(f, g, p):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return trim(out)


def mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return trim(out)


def monic(f, p):
    if not f:
        return f
    inv = pow(f[-1], p - 2, p)
    return [(c * inv) % p for c in f]


def divmod_poly(f, g, p):
    """Quotient and remainder; g nonzero."""
    assert g
    f = list(f)
    dg = degree(g)
    inv = pow(g[-1], p - 2, p)
    q = [0] * max(0, len(f) - dg)
    while degree(f) >= dg and f:
        shift = degree(f) - dg
        coef = (f[-1] * inv) % p
        q[shift] = coef
        for i, c in enumerate(g):
            f[shift + i] = (f[shift + i] - coef * c) % p
        trim(f)
    return trim(q), f


def rem(f, g, p):
    return divmod_poly(f, g, p)[1]


def gcd(f, g, p):
    while g:
        f, g = g, rem(f, g, p)
    return monic(f, p)


def mulmod(f, g, m, p):
    return rem(mul(f, g, p), m, p)


def powmod(base, e, m, p):
    result = [1 % p]
    base = rem(list(base), m, p)
    while e:
        if e & 1:
            result = mulmod(result, base, m, p)
        base = mulmod(base, base, m, p)
        e >>= 1
    return result


def derivative(f, p):
    return trim([(i * c) % p for i, c in enumerate(f)][1:])


def is_squarefree(f, p):
    """gcd(f, f') constant; a vanishing derivative also fails."""
    d = derivative(f, p)
    if not d:
        return degree(f) <= 0
    return degree(gcd(f, d, p)) == 0


def degree_pattern(f, p):
    """Sorted multiset of irreducible-factor degrees of squarefree monic f.

    Distinct-degree factorization: at stage d, gcd with X^(p^d) - X picks
    off the product of all degree-d factors.
    """
    f = monic(list(f), p)
    assert is_squarefree(f, p)
    pattern = []
    h = [0, 1]  # X
    v = list(f)
    d = 0
    while degree(v) > 0:
        d += 1
        if 2 * d > degree(v):
            pattern.append(degree(v))
            break
        h = powmod(h, p, v, p)
        g = gcd(sub(h, [0, 1], p), v, p)
        if degree(g) > 0:
            pattern.extend([d] * (degree(g) // d))
            v = divmod_poly(v, g, p)[0]
            h = rem(h, v, p) if degree(v) > 0 else h
    return sorted(pattern)


def is_irreducible(f, p):
    f = monic(list(f), p)
    if degree(f) <= 0:
        return False
    if not is_squarefree(f, p):
        return False
    return degree_pattern(f, p) == [degree(f)]
