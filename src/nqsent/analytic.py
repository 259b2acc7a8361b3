"""Closed-form reference values: zero-magnetization (Dicke) spectra and
entropies, their large-n Gaussian form, and the Haar-average (Page) entropy.

These are the oracles the statevector pipeline is tested against.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import _is_integer
from .errors import DomainError


@dataclass
class DickeSpectrum:
    """Reduced-density eigenvalues of the half-filling superposition state.

    lambda_i = C(n-m, n/2-i) * C(m, i) / C(n, n/2) over the indices i where
    both binomials are nonzero; the distribution is hypergeometric.
    """

    n: int
    m: int
    indices: list[int]
    eigenvalues: np.ndarray  # ordered by index i

    def sorted_desc(self) -> np.ndarray:
        return np.sort(self.eigenvalues)[::-1]


def _support(n: int, m: int) -> range:
    lo = max(0, n // 2 - (n - m))
    hi = min(m, n // 2)
    return range(lo, hi + 1)


def _integers(**values) -> None:
    """Refuse any value that is not a Python or numpy integer (a bool is not)."""
    for name, v in values.items():
        if not _is_integer(v):
            raise DomainError(f"{name}={v!r} is not an integer")


def dicke_spectrum(n: int, m: int) -> DickeSpectrum:
    _integers(n=n, m=m)
    if n % 2 != 0:
        raise DomainError(f"n={n} must be even")
    if not 1 <= m <= n - 1:
        raise DomainError(f"m={m} outside 1..{n - 1}")
    idx = list(_support(n, m))
    # a_i = C(n-m, n/2-i) C(m, i) by an exact integer recurrence in i; each
    # int/int true division is correctly rounded, so every eigenvalue is the
    # exact hypergeometric probability rounded once
    h = n // 2
    a = math.comb(n - m, h - idx[0]) * math.comb(m, idx[0])
    c = math.comb(n, h)
    vals = []
    for i in idx:
        vals.append(a / c)
        a = a * (h - i) * (m - i) // ((i + 1) * (h - m + i + 1))
    lam = np.array(vals)
    return DickeSpectrum(n=n, m=m, indices=idx, eigenvalues=lam)


def dicke_entropy(n: int, m: int) -> float:
    """Exact subregion entropy in nats from the hypergeometric spectrum."""
    lam = dicke_spectrum(n, m).eigenvalues
    nz = lam[lam > 0.0]
    return float(-(nz * np.log(nz)).sum())


def dicke_entropy_asymptotic(n: int, p: float) -> float:
    """Large-n Gaussian form 1/2 ln(2 pi e (n/4) p (1-p)) in nats, p = m/n.

    The Dicke spectrum is hypergeometric (n/2 draws from n, m marked), with
    variance m(n-m)/(4(n-1)) -> (n/4) p (1-p); this is the entropy of a
    Gaussian of that variance, within 5e-4 nats of `dicke_entropy` at n=1000.

    The binomial form 1/2 ln(2 pi e (n/2) p (1-p)), which treats the n/2
    draws as independent, misses the finite-population factor
    (n/2)/(n-1) -> 1/2 and sits (ln 2)/2 ~ 0.3466 nats above the exact
    entropy at every n.
    """
    _integers(n=n)
    if n < 1:
        raise DomainError(f"n={n} is not at least 1")
    if not 0.0 < p < 1.0:
        raise DomainError(f"p={p} outside (0, 1)")
    return 0.5 * math.log(2.0 * math.pi * math.e * (n / 4.0) * p * (1.0 - p))


def page_value(m: int, n: int) -> float:
    """Haar-average subsystem entropy in nats: H(2^n) - H(2^(n-m)) - (2^m - 1)/2^(n-m+1).

    Harmonic numbers are evaluated via the digamma function, which is the
    closed form of the partial sums to machine precision; its arguments are
    floats, so n is refused once 2^n is not a finite float. For m > n/2 the
    pure-state symmetry m <-> n-m applies.
    """
    from scipy.special import digamma  # on first use: importing the library loads no scipy module

    _integers(m=m, n=n)
    if not 1 <= m <= n - 1:
        raise DomainError(f"m={m} outside 1..{n - 1}")
    if n >= sys.float_info.max_exp:
        raise DomainError(f"n={n}: 2^n is not a finite float")
    if m > n - m:
        m = n - m
    da = math.ldexp(1.0, m)
    db = math.ldexp(1.0, n - m)
    harmonic_diff = float(digamma(da * db + 1.0) - digamma(db + 1.0))
    return harmonic_diff - (da - 1.0) / (2.0 * db)
