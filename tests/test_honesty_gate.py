"""The honesty gate: a converged left side is within its error estimate.

A seeded sweep of rmt, hardy, lemma2 and frullani over the catalog, at the
default tolerances and at abs_tol 1e-14, rel_tol 1e-13, with s points
within 0.01 of each edge of every fundamental strip.  Zero-valued
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

# Points that under-reported before the double-exponential rule was added
# too, with the estimate and true error measured then.  They fall back to
# the geometric ends, whose estimate falls short there (ROADMAP item 1).
KNOWN_UNDER_REPORTS = {
    ("default", "rmt-power-m4.881-s0.00110554"):
        "parent: estimate 1.47e-08 against a true error of 4.66e-08",
    ("tight", "rmt-power-m4.881-s4.87828"):
        "parent: estimate 2.99e-12 against a true error of 3.46e-12",
    ("tight", "rmt-power-m4.881-s4.87633"):
        "parent: estimate 3.43e-12 against a true error of 5.68e-12",
    ("tight", "rmt-harmonic_shifted-s0.00838073"):
        "parent: estimate 1.68e-12 against a true error of 1.96e-12",
    ("tight", "rmt-geometric-s0.00493911"):
        "parent: estimate 2.65e-12 against a true error of 7.64e-12",
    ("tight", "rmt-geometric-s0.990808"):
        "parent: estimate 2.26e-12 against a true error of 4.64e-12",
    ("tight", "hardy-geometric-s0.00370226"):
        "parent: estimate 4.41e-12 against a true error of 1.52e-10",
    ("tight", "hardy-geometric-s0.995958"):
        "parent: estimate 4.49e-12 against a true error of 5.33e-12",
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
    m = rng.uniform(0.5, 5.0)
    for s in _edge_points(rng, 0.0, m):
        add(f"rmt-power-m{m:.4g}-s{s:.6g}",
            lambda cfg, s=s: rmt(catalog_get("power", m=m), s, cfg),
            MP.gamma(s) * MP.gamma(m - MP.mpf(s)) / MP.gamma(m))
    for s in _edge_points(rng, 0.0, 1.0):
        add(f"rmt-harmonic_shifted-s{s:.6g}",
            lambda cfg, s=s: rmt(catalog_get("harmonic_shifted"), s, cfg),
            MP.gamma(s) / (1 - MP.mpf(s)))
    for s in _edge_points(rng, 0.0, 1.0):
        add(f"rmt-geometric-s{s:.6g}", lambda cfg, s=s: rmt(catalog_get("geometric"), s, cfg),
            MP.pi / MP.sin(MP.pi * MP.mpf(s)))
    for s in _edge_points(rng, 0.0, 1.0):
        add(f"hardy-geometric-s{s:.6g}", lambda cfg, s=s: hardy(catalog_get("geometric"), s, cfg),
            MP.pi / MP.sin(MP.pi * MP.mpf(s)))

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

    for cid in ("exp", "erf", "power"):
        f0, finf = LIMITS[cid]
        for _ in range(4):
            p = {"a": rng.uniform(0.5, 3.0)} if cid == "exp" else (
                {"m": rng.uniform(0.5, 4.0)} if cid == "power" else {})
            alpha = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
            beta = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
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
            if (cfg_name, name) in KNOWN_UNDER_REPORTS:
                marks = pytest.mark.xfail(strict=True,
                                          reason=KNOWN_UNDER_REPORTS[cfg_name, name])
            params.append(pytest.param(cfg_name, run, exact, id=f"{cfg_name}-{name}",
                                       marks=marks))
    return params


class TestHonestyGate:
    @pytest.mark.parametrize("cfg_name, run, exact", _params())
    def test_converged_estimate_covers_the_true_error(self, cfg_name, run, exact):
        lhs = run(CONFIGS[cfg_name]).lhs
        if lhs.converged:
            assert abs(MP.mpf(lhs.value) - exact) <= lhs.error_estimate
