"""Polynomials over F_p as coefficient lists, constant term first.

The zero polynomial is the empty list; nonzero polynomials carry no
trailing zeros. The characteristic polynomials sieved here have degree 2
or 3, where a factor of lower degree is linear: irreducible means
without a root in F_p.
"""

from .errors import DegreeUnsupported


def trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def from_int_coeffs(coeffs, p):
    """Reduce integer coefficients (constant first) mod p."""
    return trim([c % p for c in coeffs])


def _rem(a, b, p):
    """Remainder of a by the nonzero polynomial b."""
    a, inv = list(a), pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c, k = a[-1] * inv % p, len(a) - len(b)
        for i, y in enumerate(b):
            a[k + i] = (a[k + i] - c * y) % p
        trim(a)
    return a


def _mulmod(a, b, f, p):
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _rem(from_int_coeffs(prod, p), f, p)


def is_irreducible(f, p):
    """Whether f of degree 1 to 3 over F_p is irreducible: degree 1, or no
    root in F_p, that is gcd(f, X^p - X) = 1. X^p mod f is taken by
    square-and-multiply, so p may be large."""
    if len(f) > 4:
        raise DegreeUnsupported(f"root test decides degrees up to 3, not {len(f) - 1}")
    if len(f) < 3:
        return len(f) == 2
    h, sq, e = [1], [0, 1], p
    while e:
        if e & 1:
            h = _mulmod(h, sq, f, p)
        sq, e = _mulmod(sq, sq, f, p), e >> 1
    a, b = f, trim([(c - (i == 1)) % p for i, c in enumerate(h + [0, 0])])
    while b:
        a, b = b, _rem(a, b, p)
    return len(a) == 1
