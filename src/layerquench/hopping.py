"""Interlayer-hopping estimation from polarization data.

abba: the subspace-I polarization s1 component vanishes both on the
band-inversion set and on the curve h1(k) = -2 t cos(theta_1); points
of the second kind are recognized by their nonvanishing s3 response,
and -h1 / (2 cos(theta_1)) averaged over them recovers t with its sign,
which subspace-I data tells from -t.  ba: closed-form magnitudes at
three reference momenta, even in t, are inverted for t >= 0, via
rational forms for the m = 1 bilayer quenched along j = 3 and a
bracketed root solve otherwise; scipy is imported by the root solve
only.
"""

from dataclasses import dataclass

import numpy as np

from .bisfield import TaspGrid, _sampled, component_zero_curves, polarization_evaluator
# unused here, but the traced benchmark run (perfbench/jobs.py) wraps it in this module
from .bisfield import sample_grid
from .errors import InconsistentSampleError, SingularPointError, TrivialRegimeError, UsageError
from .models import LayeredConfig, monolayer_component
from .quench import tasp_closed_form
from .spectra import sine_lam

# reference momenta of the ba inversion channels (component -> k)
REFERENCE_MOMENTA = {
    "s1": (np.pi / 4, 0.0),
    "s2": (0.0, np.pi / 4),
    "s3": (0.0, 0.0),
}

# smallest |s3| response for a zero-curve point to count as off the
# band-inversion set
SIGMA3_FLOOR = 1e-3

MIN_BRANCH_POINTS = 8

# a ba channel whose closed-form magnitude stays at or below this for
# every t carries no information about t (e.g. s2 and s3 for j = 1)
VANISHING_CHANNEL = 1e-12

# the numeric ba inversion searches t in [0, T_SEARCH_MAX]
T_SEARCH_MAX = 10.0


@dataclass(frozen=True)
class HoppingEstimate:
    """Hopping estimate: signed for abba subspace-I data, nonnegative for ba
    magnitudes (their closed forms are even in t)."""

    t_hat: float
    method: str
    residual: float


def estimate_t_abba(source, resolution=256, j=3):
    """Estimate t from the subspace-I polarization of an abba stack.

    source is either a sampled subspace-I TaspGrid or a LayeredConfig,
    of which only s1 is sampled on the node lattice of sample_grid (the
    estimate is bitwise the one from the whole sampled grid).  The
    s1-component zero curves are traced (component_zero_curves, which
    bisects on s1 alone); points with |s3| above SIGMA3_FLOOR, which the
    whole closed form gives at the curve points, lie on h1 = -2 t cos(theta_1)
    rather than on the band-inversion set, and the estimate is the mean
    of -h1 / (2 cos(theta_1)) there, sign kept, with the max-abs
    deviation as residual.  A single layer has no coupling to estimate,
    and a quench along axis 1 leaves s1 = -h1r^2 / E^2 <= 0 without a
    sign change, so no zero line to trace: both raise UsageError.
    Raises TrivialRegimeError when no such
    branch exists (2 t cos(theta_1) > 1 for the square-lattice monolayer
    near m = 1); exactly at the critical coupling the zero line
    degenerates onto a gap closing and tracing raises SingularPointError
    instead.
    """
    cfg = source.cfg if isinstance(source, TaspGrid) else source
    if not isinstance(cfg, LayeredConfig):
        raise UsageError(f"cannot estimate from {type(source).__name__}")
    if cfg.stacking != "abba":
        raise UsageError("estimate_t_abba requires the abba stacking")
    if cfg.layers < 2:
        raise UsageError("estimate_t_abba needs layers >= 2: one layer has no interlayer coupling")
    if (source.j if isinstance(source, TaspGrid) else j) == 1:
        raise UsageError("estimate_t_abba needs quench axis 2 or 3: along axis 1 the "
                         "subspace-1 s1 polarization never changes sign")
    if isinstance(source, TaspGrid):
        grid, s1 = source, None
        if grid.observable != ("subspace", 1):
            raise UsageError("estimate_t_abba needs subspace-1 polarization data")
    else:
        # only s1 is traced, so only s1 is sampled on the nodes
        grid, s1 = _sampled(cfg, j, ("subspace", 1), resolution, component=1)
    curves = component_zero_curves(grid, 1, s1)
    ev = polarization_evaluator(cfg, grid.j, grid.observable)
    kept = []
    for c in curves:
        vals = ev(c.points[:, 0], c.points[:, 1])
        on_branch = np.abs(vals[:, 2]) > SIGMA3_FLOOR
        if np.any(on_branch):
            kept.append(c.points[on_branch])
    if not kept or sum(len(p) for p in kept) < MIN_BRANCH_POINTS:
        raise TrivialRegimeError(
            "no s1 zero curve with nonzero s3 response; "
            "the hopping does not imprint a zero line in this regime")
    pts = np.concatenate(kept)
    ests = -monolayer_component(cfg, pts[:, 0], pts[:, 1], 0) / sine_lam(cfg.layers)[0]
    t_hat = float(np.mean(ests))
    return HoppingEstimate(t_hat=t_hat, method="abba-zero-line",
                           residual=float(np.max(np.abs(ests - t_hat))))


def ba_reference_magnitudes(t, m=1.0, layers=2, j=3):
    """Closed-form |TASP| magnitudes of the ba stack at the reference momenta.

    For m = 1, N = 2 these equal 1/(2+t^2) for the in-plane channels and
    (2+t^2)/(2+2t^2) for the s3 channel.
    """
    return {key: _reference_magnitude(key, t, m, layers, j) for key in REFERENCE_MOMENTA}


def ba_gapped_magnitudes(t, m=1.0, layers=2, j=3):
    """ba_reference_magnitudes of the channels whose reference momentum
    keeps the gap open at t (s3's k = 0 closes it at m = 2 for every t).

    Raises the SingularPointError of the last channel when none is left.
    """
    mags = {}
    for key in REFERENCE_MOMENTA:
        try:
            mags[key] = _reference_magnitude(key, t, m, layers, j)
        except SingularPointError as exc:
            closed = exc
    if not mags:
        raise closed
    return mags


def _reference_magnitude(key, t, m, layers, j):
    """|key| of ba_reference_magnitudes, evaluating that channel alone, bit for bit."""
    cfg = LayeredConfig(stacking="ba", layers=layers, t=float(t), model="qwz", m=float(m))
    kx, ky = REFERENCE_MOMENTA[key]
    return float(abs(tasp_closed_form(kx, ky, cfg, j, int(key[1]))))


def _invert_rational(key, mag):
    if key in ("s1", "s2"):
        if mag > 0.5 or mag <= 0.0:
            raise InconsistentSampleError(
                f"|{key}| = {mag} outside the invertible range (0, 1/2]")
        return np.sqrt(1.0 / mag - 2.0)
    if mag > 1.0 or mag <= 0.5:
        raise InconsistentSampleError(
            f"|s3| = {mag} outside the invertible range (1/2, 1]")
    return np.sqrt(2.0 * (1.0 - mag) / (2.0 * mag - 1.0))


def _invert_numeric(key, mag, m, layers, j):
    """Smallest t in [0, T_SEARCH_MAX] whose |key| magnitude equals mag.

    Only the key channel is evaluated: another channel's reference
    momentum may close the gap (s3's k = 0 at m = 2).  Returns None for a
    channel that vanishes for every t and was sampled as 0.
    """
    # scipy costs more to import than the rest of the package; only this
    # solve needs it
    from scipy.optimize import brentq

    def f(t):
        return _reference_magnitude(key, t, m, layers, j) - mag

    tgrid = np.linspace(0.0, T_SEARCH_MAX, 101)
    fvals = np.array([f(t) for t in tgrid])
    if np.all(fvals + mag <= VANISHING_CHANNEL):
        if mag <= VANISHING_CHANNEL:
            return None
        raise InconsistentSampleError(
            f"|{key}| = {mag} but the {key} channel vanishes for every t at "
            f"m = {m}, layers = {layers}, j = {j}")
    idx = np.flatnonzero(np.sign(fvals[:-1]) * np.sign(fvals[1:]) <= 0)
    if len(idx) == 0:
        raise InconsistentSampleError(
            f"|{key}| = {mag} not attained for any t in [0, {T_SEARCH_MAX}] at m = {m}")
    i = idx[0]
    if fvals[i] == 0.0:
        return float(tgrid[i])
    return float(brentq(f, tgrid[i], tgrid[i + 1], xtol=1e-12))


def estimate_t_ba(samples, m=1.0, layers=2, j=3):
    """Invert measured |TASP| magnitudes of a ba stack for t >= 0.

    samples maps channel names s1, s2, s3 to measured polarization
    values at the reference momenta (pi/4, 0), (0, pi/4), (0, 0); signs
    are ignored and a non-finite value is a UsageError.  At least one
    channel is required; the combined estimate is the channel mean and
    the residual the max-abs spread.  A channel that vanishes for every
    t at this (m, layers, j) is left out when sampled as 0; at least one
    channel must remain.
    """
    names = [k for k in ("s1", "s2", "s3") if k in samples]
    if not names:
        raise UsageError("samples must contain at least one of s1, s2, s3")
    unknown = set(samples) - set(REFERENCE_MOMENTA)
    if unknown:
        raise UsageError(f"unknown sample channels {sorted(unknown)}")
    # the rational forms are those of the m = 1 bilayer quenched along j = 3
    rational = (m == 1.0 and layers == 2 and j == 3)
    ests = []
    for key in names:
        mag = abs(float(samples[key]))
        if not np.isfinite(mag):
            raise UsageError(f"sample {key} = {mag} is not a finite magnitude")
        if rational:
            ests.append(_invert_rational(key, mag))
        else:
            t = _invert_numeric(key, mag, m, layers, j)
            if t is not None:
                ests.append(t)
    if not ests:
        raise InconsistentSampleError(
            f"no sampled channel ({', '.join(names)}) depends on t at m = {m}, "
            f"layers = {layers}, j = {j}")
    t_hat = float(np.mean(ests))
    return HoppingEstimate(t_hat=t_hat,
                           method="ba-rational" if rational else "ba-numeric",
                           residual=float(np.max(np.abs(np.array(ests) - t_hat))))
