"""Exact sides of the checked identities: textbook formulas at 40 digits.

The tests that hold a left side to its exact value read that value here.
Each formula is evaluated in the one mpmath context ``MP`` at 40 digits,
never through the package's special-function layer or its quadrature, so
an exact side shares no code with either route it checks.  This module
imports mpmath alone.

Each catalog pair's coefficients phi(k) are stated here as the textbook
gives them at non-negative integers k, and the residue of Gamma(s) phi(-s)
at s = -m follows from them.

The Mellin transforms M(s) = integral_0^inf x^(s-1) F(x) dx are rmt's left
sides on the catalog pairs (and hardy's on geometric), and those of the
terms from which the honesty gate builds its expression pairs; each holds
on the fundamental strip stated beside it.
"""

import math

import mpmath

MP = mpmath.mp.clone()
MP.dps = 40

# f(0) and f(inf) of each catalog closed form, stated here rather than read off the pair.
LIMITS = {"exp": (1, 0), "power": (1, 0), "erf": (0, 1), "laguerre_weight": (0, 0),
          "geometric": (1, 0), "harmonic_shifted": (1, 0)}


def phi_exp(k, a=1):
    """exp(-a x): a^k."""
    return MP.mpf(a) ** k


def phi_power(k, m):
    """(1 + x)^-m: the rising factorial m (m+1) ... (m+k-1) = Gamma(m+k) / Gamma(m)."""
    return MP.rf(m, k)


def phi_geometric(k):
    """1 / (1 + x): k!, the rising factorial at m = 1."""
    return MP.mpf(math.factorial(k))


def phi_erf(k):
    """erf(x): 0 at even k; (-1)^(j+1) (2/sqrt(pi)) (2j)!/j! at k = 2j + 1."""
    if k % 2 == 0:
        return MP.zero
    j = (k - 1) // 2
    return (-1) ** (j + 1) * 2 / MP.sqrt(MP.pi) * (math.factorial(2 * j) // math.factorial(j))


def phi_laguerre_weight(k, n):
    """x^n exp(-x): 0 below k = n, then (-1)^n k!/(k-n)!."""
    if k < n:
        return MP.zero
    return MP.mpf((-1) ** n * (math.factorial(k) // math.factorial(k - n)))


def phi_harmonic_shifted(k):
    """(1 - exp(-x)) / x: 1/(k+1)."""
    return 1 / MP.mpf(k + 1)


def residue(phi, m):
    """Gamma(s) phi(-s) at its simple pole s = -m: (-1)^m phi(m) / m!."""
    return (-1) ** m * phi(m) / math.factorial(m)


def mellin_exp(s, a=1):
    """exp(-a x): Gamma(s) a^-s, on 0 < s."""
    s = MP.mpf(s)
    return MP.gamma(s) * MP.mpf(a) ** -s


def mellin_power(s, m, a=1):
    """(1 + a x)^-m: a^-s B(s, m - s) = a^-s Gamma(s) Gamma(m - s) / Gamma(m), on 0 < s < m."""
    s = MP.mpf(s)
    return MP.mpf(a) ** -s * MP.gamma(s) * MP.gamma(m - s) / MP.gamma(m)


def mellin_geometric(s):
    """1 / (1 + x): pi / sin(pi s), on 0 < s < 1; hardy's left side on geometric too."""
    s = MP.mpf(s)
    return MP.pi / MP.sin(MP.pi * s)


def mellin_harmonic_shifted(s):
    """(1 - exp(-x)) / x: Gamma(s) phi(-s) with phi(k) = 1/(k+1), on 0 < s < 1."""
    s = MP.mpf(s)
    return MP.gamma(s) / (1 - s)


def mellin_lorentzian(s, a):
    """1 / (1 + a x^2): a^(-s/2) pi / (2 sin(pi s / 2)), on 0 < s < 2."""
    s = MP.mpf(s)
    return MP.mpf(a) ** (-s / 2) * MP.pi / (2 * MP.sin(MP.pi * s / 2))


def mellin_exp_sqrt(s, a):
    """exp(-sqrt(a x)): 2 Gamma(2 s) a^-s, on 0 < s."""
    s = MP.mpf(s)
    return 2 * MP.gamma(2 * s) * MP.mpf(a) ** -s


def mellin_exp_cos(s, a):
    """exp(-a x) cos(a x): Gamma(s) (2 a^2)^(-s/2) cos(pi s / 4), on 0 < s."""
    s, a = MP.mpf(s), MP.mpf(a)
    return MP.gamma(s) * (2 * a * a) ** (-s / 2) * MP.cos(MP.pi * s / 4)


def lemma2(f0, finf, n):
    """The n-th order integral formula from f's limits: (-1)^(n-1) (f(inf) - f(0)) Gamma(n)."""
    return (-1) ** (n - 1) * (finf - f0) * MP.gamma(n)


def frullani(f0, finf, alpha, beta):
    """Frullani's integral from f's limits: (f(inf) - f(0)) ln(alpha / beta)."""
    return (finf - f0) * (MP.log(alpha) - MP.log(beta))


def fd_lemma2_exp(a, n, h):
    """lemma2's left side on exp(-a x) with the finite-difference derivative of step h.

    The n-th central difference of exp(-a x) at step h is exp(-a x) times
    S(h) = (-2 sinh(a h / 2) / h)^n, and one Richardson step gives
    (4 S(h/2) - S(h)) / 3; so the integral is that factor times Gamma(n) / a^n,
    where the exact derivative's factor is (-a)^n.
    """
    a, h = MP.mpf(a), MP.mpf(h)

    def stencil(step):
        return (-2 * MP.sinh(a * step / 2) / step) ** n

    return (4 * stencil(h / 2) - stencil(h)) / 3 * MP.gamma(n) / a**n
