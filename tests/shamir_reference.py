"""Textbook Shamir: the slow reference the production code is tested against.

These were ``repro.crypto.shamir``'s implementations until dealing moved
to value form and reconstruction to one Lagrange vector.  They share no
code with what they check: coefficient-form dealing evaluated by Horner,
and one O(t) product plus one inversion *per* Lagrange coefficient.

:func:`split_secret_eager` is value-form dealing as it was before shares
were interpolated on first read: every share computed up front.  It
shares the shape tables with the lazy dealing (they are checked against
the textbook formula on their own) and nothing else.
"""

from __future__ import annotations

from operator import mul

from repro.crypto.shamir import Share, _dealing_tables


def eval_poly(coeffs: list[int], x: int, modulus: int) -> int:
    """Evaluate a polynomial given low-to-high coefficients (Horner)."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % modulus
    return acc


def split_secret_horner(
    secret: int, threshold: int, num_shares: int, modulus: int, rng
) -> list[Share]:
    """Coefficient-form dealing: the draws are the polynomial's coefficients."""
    coeffs = [secret] + [rng.randint(0, modulus - 1) for _ in range(threshold - 1)]
    return [Share(x=i, y=eval_poly(coeffs, i, modulus)) for i in range(1, num_shares + 1)]


def lagrange_coefficient(xs: list[int], i: int, modulus: int, at: int = 0) -> int:
    """Lagrange basis coefficient for point ``xs[i]`` evaluated at ``at``."""
    num, den = 1, 1
    xi = xs[i]
    for j, xj in enumerate(xs):
        if j == i:
            continue
        num = (num * (at - xj)) % modulus
        den = (den * (xi - xj)) % modulus
    return (num * pow(den, -1, modulus)) % modulus


def interpolate_at(shares: list[Share], x: int, modulus: int) -> int:
    """The value at ``x`` of the polynomial through ``shares``."""
    xs = [s.x for s in shares]
    return sum(
        s.y * lagrange_coefficient(xs, i, modulus, at=x) for i, s in enumerate(shares)
    ) % modulus


def split_secret_eager(
    secret: int, threshold: int, num_shares: int, modulus: int, rng
) -> list[Share]:
    """Value-form dealing with all ``num_shares`` shares interpolated now."""
    values = [secret] + [rng.randint(0, modulus - 1) for _ in range(threshold - 1)]
    weights, inverses, ell = _dealing_tables(threshold, num_shares, modulus)
    weighted = [y * w % modulus for y, w in zip(reversed(values), weights)]
    shares = [Share(x=x, y=values[x]) for x in range(1, threshold)]
    for x in range(threshold, num_shares + 1):
        total = sum(map(mul, weighted, inverses[x - threshold + 1 : x + 1]))
        shares.append(Share(x=x, y=total % modulus * ell[x - threshold] % modulus))
    return shares
