import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import haar_state

from nqsent.analytic import dicke_entropy, dicke_entropy_asymptotic, dicke_spectrum, page_value
from nqsent.core import Subregion
from nqsent.entanglement import subregion_entropy
from nqsent.errors import DomainError
from nqsent.statevector import from_amplitudes


def test_spectrum_n4_m2():
    spec = dicke_spectrum(4, 2)
    assert np.allclose(spec.eigenvalues, [1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0])
    assert spec.indices == [0, 1, 2]


def test_spectrum_n2_m1():
    assert np.allclose(dicke_spectrum(2, 1).eigenvalues, [0.5, 0.5])


def test_spectrum_sums_to_one_up_to_64():
    for n in (4, 10, 32, 64):
        for m in (1, n // 2, n - 1):
            lam = dicke_spectrum(n, m).eigenvalues
            assert abs(lam.sum() - 1.0) < 1e-14


def test_spectrum_exact_rational_path():
    # cross-check the floats against one exact rational evaluation
    lam = dicke_spectrum(6, 3).eigenvalues
    c = math.comb(6, 3)
    expect = [Fraction(math.comb(3, 3 - i) * math.comb(3, i), c) for i in range(4)]
    assert np.allclose(lam, [float(v) for v in expect], atol=0)


def test_entropy_values():
    assert dicke_entropy(2, 1) == pytest.approx(math.log(2.0), abs=1e-15)
    assert dicke_entropy(4, 2) == pytest.approx(0.8675632284814612, abs=1e-14)


def test_entropy_symmetric_in_m():
    for n in (8, 14):
        for m in range(1, n):
            assert dicke_entropy(n, m) == pytest.approx(dicke_entropy(n, n - m), abs=1e-12)


def test_entropy_matches_statevector_oracle():
    from nqsent.ansatz import DickeSpec, build_dicke
    from nqsent.statevector import materialize

    psi = materialize(build_dicke(DickeSpec(12)))
    for m in (1, 3, 6):
        got = subregion_entropy(psi, Subregion((1 << m) - 1, 12)).entropy
        assert got == pytest.approx(dicke_entropy(12, m), abs=1e-10)


def test_entropy_at_n100():
    # value frozen from an exact rational evaluation
    assert dicke_entropy(100, 50) == pytest.approx(2.3402461037710593, abs=1e-9)


@pytest.mark.parametrize("n", [66, 100, 1000])
def test_spectrum_is_the_exact_ratio_rounded_once(n):
    c = math.comb(n, n // 2)
    for m in (1, n // 4, n // 2, n - 1):
        spec = dicke_spectrum(n, m)
        expect = [float(Fraction(math.comb(n - m, n // 2 - i) * math.comb(m, i), c)) for i in spec.indices]
        assert spec.eigenvalues.tobytes() == np.array(expect).tobytes()


def test_exact_value_at_n1000():
    assert dicke_entropy(1000, 500) == pytest.approx(3.487021978409669, abs=1e-6)
    assert dicke_entropy(1000, 250) == pytest.approx(3.343180569018406, abs=1e-6)


def test_gaussian_form_formula_values():
    # 1/2 ln(2 pi e (n/4) p (1-p)) at n=1000
    assert dicke_entropy_asymptotic(1000, 0.5) == pytest.approx(3.4865218115758507, abs=1e-12)
    assert dicke_entropy_asymptotic(1000, 0.25) == pytest.approx(3.3426807753499603, abs=1e-12)


def test_gaussian_form_known_offset():
    # The binomial form uses the variance (n/2)p(1-p); the exact spectrum is
    # hypergeometric with variance smaller by (n/2)/(n-1), so that form's gap
    # converges to ln(2)/2 instead of vanishing. The library form uses the
    # hypergeometric variance and converges to the exact entropy.
    for p in (0.25, 0.5):
        exact = dicke_entropy(1000, int(1000 * p))
        binomial_form = 0.5 * math.log(2.0 * math.pi * math.e * (1000 / 2.0) * p * (1.0 - p))
        assert binomial_form - exact == pytest.approx(0.5 * math.log(2.0), abs=2e-3)
        assert dicke_entropy_asymptotic(1000, p) == pytest.approx(exact, abs=1e-3)


def test_gaussian_form_doubling_n():
    a = dicke_entropy_asymptotic(1000, 0.5)
    b = dicke_entropy_asymptotic(2000, 0.5)
    assert b - a == pytest.approx(0.5 * math.log(2.0), abs=1e-12)


def test_domain_errors():
    with pytest.raises(DomainError):
        dicke_spectrum(5, 2)
    with pytest.raises(DomainError):
        dicke_spectrum(4, 0)
    with pytest.raises(DomainError):
        dicke_entropy_asymptotic(10, 0.0)
    with pytest.raises(DomainError):
        dicke_entropy_asymptotic(10, 1.0)
    for m in (0, 10):
        with pytest.raises(DomainError, match=f"^m={m} outside 1..9$"):
            page_value(m, 10)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: dicke_entropy_asymptotic(0, 0.5), "n=0 is not at least 1"),
        (lambda: dicke_entropy_asymptotic(10.0, 0.5), "n=10.0 is not an integer"),
        (lambda: dicke_spectrum(4.0, 2), "n=4.0 is not an integer"),
        (lambda: dicke_spectrum(4, True), "m=True is not an integer"),
        (lambda: page_value(1.5, 4), "m=1.5 is not an integer"),
        (lambda: page_value(1, 4.0), "n=4.0 is not an integer"),
    ],
    ids=["asymptotic_n0", "asymptotic_n_float", "spectrum_n_float", "spectrum_m_bool", "page_m_float", "page_n_float"],
)
def test_oracles_refuse_non_integers_with_domain_errors(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


def test_gaussian_form_tiny_p_diverges_without_error():
    # p -> 0+ sends the formula toward -infinity; it stays a value, never an
    # exception (the argument only denormalizes, so the float stays finite)
    val = dicke_entropy_asymptotic(10, 5e-324)
    assert val < -300.0


def test_page_value_n2_m1():
    # H(4) - H(2) - 1/4 = (1/3 + 1/4) - 1/4 = 1/3
    assert page_value(1, 2) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_page_value_haar_sampling_oracle():
    gen = np.random.default_rng(123)
    vals = []
    for _ in range(10_000):
        psi = from_amplitudes(haar_state(2, gen))
        vals.append(subregion_entropy(psi, Subregion(0b01, 2)).entropy)
    assert np.mean(vals) == pytest.approx(page_value(1, 2), abs=0.01)


def test_page_small_subsystem_limit():
    # m << n approaches m ln 2
    assert page_value(2, 20) == pytest.approx(2 * math.log(2.0), abs=1e-3)


def test_page_monotone_up_to_half():
    n = 12
    vals = [page_value(m, n) for m in range(1, n // 2 + 1)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_page_symmetry_beyond_half():
    assert page_value(9, 12) == page_value(3, 12)


def test_page_value_beyond_int64():
    # H(x) = ln x + gamma + 1/(2x) + O(x^-2) gives H(2^64) - H(2^32) - (2^32 - 1)/2^33
    assert page_value(32, 64) == pytest.approx(32 * math.log(2.0) - 0.5 + 2.0**-65, abs=1e-12)
    assert page_value(1, 1023) == pytest.approx(math.log(2.0), abs=1e-12)
    assert math.isfinite(page_value(511, 1023))
    with pytest.raises(DomainError):
        page_value(512, 1024)
