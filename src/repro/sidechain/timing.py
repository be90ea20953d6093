"""Agreement-time model calibrated to the paper's Table XII.

The measured agreement times grow superlinearly with committee size
(communication overhead of collective signing).  We fit a quadratic
``t(c) = a·c² + b·c`` by least squares to the five measured points and use
it wherever the epoch-level harness needs the consensus duration of a
large committee.  The message-level PBFT engine produces its own timings
for small committees; a test cross-checks the two where they overlap.

The fit is exact: the 2×2 normal equations are solved over
:class:`fractions.Fraction` from the float calibration values, and each
coefficient is rounded to float once, so the coefficients are the
correctly rounded least-squares optimum on every platform.  The runtime
needs no numerical library for it.
"""

from __future__ import annotations

from fractions import Fraction

from repro import constants


class AgreementTimeModel:
    """Quadratic fit of PBFT agreement time vs committee size."""

    def __init__(
        self, calibration: dict[int, float] | None = None
    ) -> None:
        points = calibration or constants.AGREEMENT_TIME_BY_COMMITTEE
        pairs = [(Fraction(c), Fraction(points[c])) for c in sorted(points)]
        s2 = sum(c**2 for c, _ in pairs)
        s3 = sum(c**3 for c, _ in pairs)
        s4 = sum(c**4 for c, _ in pairs)
        s1t = sum(c * t for c, t in pairs)
        s2t = sum(c**2 * t for c, t in pairs)
        # Least squares on t = a c^2 + b c (no intercept: zero nodes,
        # zero time) through its normal equations
        #   [s4 s3] [a]   [s2t]
        #   [s3 s2] [b] = [s1t].
        # A negative curvature would extrapolate to zero at large
        # committees, so near-linear data falls back to a pure linear fit
        # (a = 0) and near-quadratic data to a pure quadratic one (b = 0).
        det = s4 * s2 - s3 * s3
        a = (s2t * s2 - s3 * s1t) / det
        b = (s4 * s1t - s3 * s2t) / det
        if a < 0:
            a, b = Fraction(0), s1t / s2
        elif b < 0:
            a, b = s2t / s4, Fraction(0)
        self.a, self.b = float(a), float(b)
        self.calibration = dict(points)

    def agreement_time(self, committee_size: int) -> float:
        """Predicted seconds for one PBFT agreement."""
        if committee_size <= 0:
            raise ValueError(f"committee size must be positive, got {committee_size}")
        c = float(committee_size)
        return max(0.0, self.a * c * c + self.b * c)

    def min_round_duration(self, committee_size: int, margin: float = 0.5) -> float:
        """Shortest viable sidechain round for a committee (Table XII note:
        "with Sc = 1000 a round should last at least for around 23 s")."""
        return self.agreement_time(committee_size) + margin
