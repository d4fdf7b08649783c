"""The honesty gate: a converged left side is within its error estimate.

A seeded sweep of rmt, hardy, lemma2 and frullani over the catalog, at the
default tolerances and at abs_tol 1e-14, rel_tol 1e-13, with s points
within 0.01 of each edge of every fundamental strip, and 0.16 to 0.25 of its
width from each edge for the strips of finite width, fixed points from 0.025
to 1e-11 below the upper edge of five of them, s log-spaced from 0.001
to 0.16 at the lower edge of rmt on exp, power, harmonic_shifted and
geometric and of hardy on geometric, and frullani at scales
within 10% of each other, where its integrand cancels.  Zero-valued
identities (lemma2 on laguerre_weight) are included.  Each case asserts
``converged => |lhs - exact| <= error_estimate``; the verdict is not
asserted, since points that close to an edge need not pass.  Exact values
are textbook formulas evaluated with mpmath at 40 digits, never through
specfun or quadrature.
"""

import math
import random

import mpmath
import pytest

from rmtkit.quadrature import QuadratureConfig
from rmtkit.sequences import catalog_get
from rmtkit.transforms import frullani, hardy, lemma2, rmt

MP = mpmath.mp.clone()
MP.dps = 40

CONFIGS = {
    "default": QuadratureConfig(),
    "tight": QuadratureConfig(abs_tol=1e-14, rel_tol=1e-13),
}

# f(0) and f(inf) of each closed form, stated here rather than read off the pair.
LIMITS = {"exp": (1, 0), "power": (1, 0), "erf": (0, 1), "laguerre_weight": (0, 0),
          "geometric": (1, 0), "harmonic_shifted": (1, 0)}

# Frullani points whose scales nearly cancel.  The double-exponential rule
# certifies them at h = 1/8 or 1/16 and returns that level, whose error is
# the float rounding of f(alpha x) - f(beta x).  With that difference at 40
# digits (mpmath), the first point's h = 1/8 sum is within 1e-18 of the
# truth; with float values every level from h = 1/4 to 1/32 is 1.5e-15 to
# 2.2e-15 off.  Neither a level difference nor the 50 eps h sum|terms| floor
# sees that rounding (ROADMAP item 1).
_CLOSE_SCALES = {
    "frullani-power{'m': 2.539257816320975}-1.892-1.924":
        "refined to h = 1/32: estimate 4.55e-15 against a true error of 1.98e-15; "
        "at the certifying level: estimate 1.09e-15 against 2.07e-15",
    "frullani-geometric{}-0.277-0.2785":
        "refined to h = 1/32: estimate 2.93e-15 against a true error of 4.70e-16; "
        "at the certifying level: estimate 3.83e-16 against 7.57e-16",
    "frullani-power{'m': 1.8398022357825332}-1.103-1.213":
        "refined to h = 1/32: estimate 5.63e-15 against a true error of 1.19e-15; "
        "at the certifying level: estimate 1.61e-15 against 2.70e-15",
    "frullani-power{'m': 2.603998010061488}-3.313-3.436":
        "refined to h = 1/32: estimate 8.11e-15 against a true error of 3.74e-16; "
        "at the certifying level: estimate 7.51e-16 against 1.14e-15",
}
CLOSE_SCALE_UNDER_REPORTS = {(cfg_name, name): reason for name, reason in _CLOSE_SCALES.items()
                             for cfg_name in CONFIGS}

# Fixed points at a strip's upper edge, which the draws of _edge_points,
# 0.0005 to 0.01 from it, miss.  With the pair's log form the DE walk goes
# on above its node table and returns most of them, honestly; the strict
# xfails below are those it does not.  At s = 0.9995 on geometric the walk
# runs off the grid's top, ln x ~ 1.28e5, and the geometric ends' estimate
# falls short (ROADMAP item 1).  At m = 4.881, s = 4.88, tight, the DE rule
# covers its error by a margin of only 1.1x (estimate 6.91e-11 against a
# true error of 6.27e-11, 483 evaluations).  The last three are closer to
# the edge than any draw: the walk runs off at the top, at the tight config
# they end unconverged, at the default one they converge with an estimate
# far below the error, and the first two of them FAIL a true identity
# without a warning.
UPPER_EDGE_UNDER_REPORTS = {
    ("tight", "rmt-geometric-s0.9995"):
        "geometric ends after 792 evaluations: estimate 4.42e-11 against a true error of 8.39e-10",
    ("tight", "hardy-geometric-s0.9995"):
        "geometric ends after 792 evaluations: estimate 4.42e-11 against a true error of 8.39e-10",
    ("default", "rmt-harmonic_shifted-s0.99999999999"):
        "converged, estimate 1.37 against a true error of 1.48e6: a FAIL of a true identity",
    ("default", "rmt-power-m2.5-s2.49999999999"):
        "converged, estimate 1.39 against a true error of 2.67e7: a FAIL of a true identity",
    ("default", "rmt-power-m2.5-s2.4999999"):
        "converged, estimate 1.72e-4 against a true error of 2.13e-2",
}


def _edge_points(rng, lo, hi):
    """Two s within 0.01 of each finite edge of (lo, hi), and two inside."""
    points = [lo + rng.uniform(0.0005, 0.01) for _ in range(2)]
    if math.isfinite(hi):
        points += [hi - rng.uniform(0.0005, 0.01) for _ in range(2)]
        points += [lo + (hi - lo) * rng.uniform(0.05, 0.95) for _ in range(2)]
    else:
        points += [rng.uniform(0.05, 8.0) for _ in range(2)]
    return points


def _cases():
    rng = random.Random(2021)
    cases = []

    def add(name, run, exact):
        cases.append((name, run, exact))

    a = math.exp(rng.uniform(math.log(0.5), math.log(3.0)))
    for s in _edge_points(rng, 0.0, math.inf):
        add(f"rmt-exp-a{a:.4g}-s{s:.6g}", lambda cfg, s=s: rmt(catalog_get("exp", a=a), s, cfg),
            MP.gamma(s) * MP.mpf(a) ** -s)
    def power(m):
        return (f"rmt-power-m{m:.4g}", m, lambda s, cfg: rmt(catalog_get("power", m=m), s, cfg),
                lambda s: MP.gamma(s) * MP.gamma(m - MP.mpf(s)) / MP.gamma(m))

    # (name, strip width, check at s, exact value at s) of the strips (0, width).
    strips = [
        power(rng.uniform(0.5, 5.0)),
        ("rmt-harmonic_shifted", 1.0, lambda s, cfg: rmt(catalog_get("harmonic_shifted"), s, cfg),
         lambda s: MP.gamma(s) / (1 - MP.mpf(s))),
        ("rmt-geometric", 1.0, lambda s, cfg: rmt(catalog_get("geometric"), s, cfg),
         lambda s: MP.pi / MP.sin(MP.pi * MP.mpf(s))),
        ("hardy-geometric", 1.0, lambda s, cfg: hardy(catalog_get("geometric"), s, cfg),
         lambda s: MP.pi / MP.sin(MP.pi * MP.mpf(s))),
    ]
    # Within 0.01 of an edge, then 0.16 to 0.25 of the width from one: the
    # band that the algebraic DE table, symmetric under x -> 1/x, reaches.
    band_rng = random.Random(23)
    for prefix, width, check, value in strips:
        points = _edge_points(rng, 0.0, width)
        points += [width * band_rng.uniform(lo, hi) for lo, hi in ((0.16, 0.25), (0.75, 0.84))
                   for _ in range(2)]
        for s in points:
            add(f"{prefix}-s{s:.6g}", lambda cfg, s=s, check=check: check(s, cfg), value(s))
    # The fixed upper-edge points of UPPER_EDGE_UNDER_REPORTS.
    _, harmonic, geometric, hardy_geometric = strips
    for (prefix, _, check, value), s in [
            (geometric, 0.9995), (hardy_geometric, 0.9995), (power(4.881), 4.88),
            (power(1.0), 0.99), (power(2.5), 2.475), (harmonic, 0.999),
            (harmonic, 1 - 1e-11), (power(2.5), 2.5 - 1e-11), (power(2.5), 2.5 - 1e-7)]:
        add(f"{prefix}-s{s:.12g}", lambda cfg, s=s, check=check: check(s, cfg), value(s))
    # s from 0.001 to 0.16, log-spaced: the mass of x^(s-1) F(x) lies below
    # the DE node table, where the Mellin walk goes on in ln x.
    lower = [0.001 * 160.0 ** (k / 7) for k in range(8)]
    for a_low in (0.5, 3.0):
        for s in lower:
            add(f"rmt-exp-a{a_low:.4g}-s{s:.6g}",
                lambda cfg, s=s, a=a_low: rmt(catalog_get("exp", a=a), s, cfg),
                MP.gamma(s) * MP.mpf(a_low) ** -s)
    for prefix, _, check, value in strips:
        for s in lower:
            add(f"{prefix}-s{s:.6g}", lambda cfg, s=s, check=check: check(s, cfg), value(s))

    orders = {"exp": range(1, 6), "power": range(1, 6), "erf": range(1, 7),
              "geometric": range(1, 6), "harmonic_shifted": range(1, 7)}
    params = {"exp": {"a": math.exp(rng.uniform(math.log(0.5), math.log(3.0)))},
              "power": {"m": rng.uniform(0.5, 4.0)}}
    grid = [(cid, params.get(cid, {}), n) for cid, ns in orders.items() for n in ns]
    grid += [("laguerre_weight", {"n": float(k)}, n) for k in range(1, 5) for n in range(1, 4)]
    for cid, p, n in grid:
        f0, finf = LIMITS[cid]
        add(f"lemma2-{cid}{p}-n{n}", lambda cfg, cid=cid, p=p, n=n: lemma2(
            catalog_get(cid, **p), n, cfg), (-1) ** (n - 1) * (finf - f0) * MP.gamma(n))

    scales = []
    for cid in ("exp", "erf", "power"):
        for _ in range(4):
            p = {"a": rng.uniform(0.5, 3.0)} if cid == "exp" else (
                {"m": rng.uniform(0.5, 4.0)} if cid == "power" else {})
            alpha = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
            beta = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
            scales.append((cid, p, alpha, beta))
    # Scales within 10% of each other, where f(alpha x) - f(beta x) cancels:
    # three points drawn by the bench, then a seeded handful.
    scales += [("power", {"m": 2.539257816320975}, 1.8924921944243391, 1.9239684576981755),
               ("geometric", {}, 0.27696673858135124, 0.2785319137456604),
               ("power", {"m": 1.8398022357825332}, 1.1032304575183256, 1.2128472484370312)]
    rng = random.Random(22)
    for cid in ("exp", "power", "geometric"):
        for _ in range(3):
            p = {"a": rng.uniform(0.5, 3.0)} if cid == "exp" else (
                {"m": rng.uniform(0.5, 4.0)} if cid == "power" else {})
            alpha = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
            scales.append((cid, p, alpha, alpha * rng.uniform(0.9, 1.1)))
    for cid, p, alpha, beta in scales:
        f0, finf = LIMITS[cid]
        pair = catalog_get(cid, **p)
        add(f"frullani-{cid}{p}-{alpha:.4g}-{beta:.4g}",
            lambda cfg, pair=pair, alpha=alpha, beta=beta: frullani(
                pair.closed_form, pair.f_at_zero, pair.f_at_infinity, alpha, beta, cfg),
            (finf - f0) * (MP.log(alpha) - MP.log(beta)))
    return cases


def _params():
    params = []
    for cfg_name in sorted(CONFIGS):
        for name, run, exact in _cases():
            marks = ()
            reason = (CLOSE_SCALE_UNDER_REPORTS | UPPER_EDGE_UNDER_REPORTS).get((cfg_name, name))
            if reason:
                marks = pytest.mark.xfail(strict=True, reason=reason)
            params.append(pytest.param(cfg_name, run, exact, id=f"{cfg_name}-{name}",
                                       marks=marks))
    return params


class TestHonestyGate:
    @pytest.mark.parametrize("cfg_name, run, exact", _params())
    def test_converged_estimate_covers_the_true_error(self, cfg_name, run, exact):
        lhs = run(CONFIGS[cfg_name]).lhs
        if lhs.converged:
            assert abs(MP.mpf(lhs.value) - exact) <= lhs.error_estimate

    @pytest.mark.parametrize("k, n", [(k, n) for k in range(1, 5) for n in range(1, 4)])
    def test_round_off_limited_zero_is_within_its_estimate(self, k, n):
        # lemma2 on laguerre_weight is 0; at the tight config the DE rule
        # returns most of these unconverged, its floor above the tolerance.
        # Such a result is not certified, but its estimate still covers it.
        lhs = lemma2(catalog_get("laguerre_weight", n=float(k)), n, CONFIGS["tight"]).lhs
        assert abs(lhs.value) <= lhs.error_estimate
