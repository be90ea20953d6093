"""Textbook Shamir: the slow reference the production code is tested against.

These were ``repro.crypto.shamir``'s implementations until dealing moved
to value form and reconstruction to one Lagrange vector.  They share no
code with what they check: coefficient-form dealing evaluated by Horner,
and one O(t) product plus one inversion *per* Lagrange coefficient.
"""

from __future__ import annotations

from repro.crypto.shamir import Share


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
