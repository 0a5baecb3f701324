"""octoverify: exact-arithmetic verification of octonion / Clifford / isoparametric identities.

Every verifier works over exact rationals (``fractions.Fraction``, or ints
over a shared denominator) and passes only on a literal zero residual or a
zero polynomial.  The few places where sqrt(2) enters (mirror points, second
fundamental forms) track the irrational factor symbolically as a half-integer
power of two.  Floating point appears in one place only: the CLI's
``--mode float`` nom suite, which computes its own residuals against
``--tol``.  Everywhere else a float is refused at ingress with TypeError.
"""

__version__ = "0.1.0"
