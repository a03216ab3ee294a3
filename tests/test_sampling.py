"""Frozen digests of the sampling path and bitwise properties of its kernels.

tests/golden/sampling_digests.json holds, per case, the sha256 of
sample_grid's kx, ky and values and of characterize's contours (points,
frac, wraps, gfield and windings), or the error the call raised.  The
cases cover both stackings and both models, every quench axis, the
global observable and every mode-resolved one of N = 1..4, and a
lattice with a nudged node (the gap closes exactly at k = 0).  Every
sampling kernel must leave them bitwise unchanged.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerquench import (LayeredConfig, LayerQuenchError, bisfield, characterize, models,
                         quench, sample_grid, spectra)

GOLDEN = Path(__file__).parent / "golden" / "sampling_digests.json"

# (t, m) per model: both stacks carry band-inversion rings
PARAMS = {"qwz": (0.4, 1.0), "haldane": (0.4, 1.5)}
RESOLUTION = (48, 40)


def sampling_cases():
    """(key, cfg, j, observable, resolution) of every frozen case."""
    cases = []
    for model, (t, m) in PARAMS.items():
        for stacking in ("abba", "ba"):
            for layers in range(1, 5):
                cfg = LayeredConfig(stacking, layers, t, model, m)
                modes = range(1, layers + 1) if stacking == "abba" else ()
                for obs in [("global",)] + [("subspace", r) for r in modes]:
                    for j in (1, 2, 3):
                        key = f"{stacking} {layers} {model} {':'.join(map(str, obs))} s{j}"
                        cases.append((key, cfg, j, obs, RESOLUTION))
    # m = 2 closes the monolayer gap at k = 0, a node of the 32^2 lattice
    nudged = LayeredConfig("abba", 1, 0.0, "qwz", 2.0)
    for j in (1, 2, 3):
        cases.append((f"nudged s{j}", nudged, j, ("global",), 32))
    return cases


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _digest(call):
    try:
        return call()
    except LayerQuenchError as exc:
        return f"{type(exc).__name__}: {exc}"


def case_digests(cfg, j, obs, resolution):
    """{"sample_grid": ..., "characterize": ...} digests of one case."""
    def grid():
        g = sample_grid(cfg, j, obs, resolution)
        return _sha(g.kx, g.ky, g.values)

    def contours():
        res = characterize(cfg, j, resolution, observable=obs)
        cs = res["contours"]
        return _sha(*[a for c in cs for a in (c.points, c.frac, c.wraps, c.gfield)],
                    np.array([c.w for c in cs] + [res["total_w"]], dtype=np.int64))

    return {"sample_grid": _digest(grid), "characterize": _digest(contours)}


@pytest.mark.parametrize("key, cfg, j, obs, resolution",
                         [pytest.param(*case, id=case[0]) for case in sampling_cases()])
def test_sampling_path_matches_the_frozen_digests(key, cfg, j, obs, resolution):
    assert case_digests(cfg, j, obs, resolution) == json.loads(GOLDEN.read_text())[key]


# ---------------------------------------------------------------- kernels
# each sampling kernel against the expression it replaced, bit for bit

def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


SMALL = [0.0, -0.0, 1e-10, -1e-10, 7e-11, -7e-11, 1e-5, -1e-5, 3e-6, 1e-300]


@settings(max_examples=300, deadline=None)
@given(stacking=st.sampled_from(["abba", "ba"]), layers=st.integers(1, 6),
       t=st.sampled_from([0.0, -0.0, 0.4]) | st.floats(-3.0, 3.0),
       mode=st.integers(0, 5), on_mode=st.booleans(),
       h=st.lists(st.tuples(*[st.sampled_from(SMALL) | st.floats(-3.0, 3.0)] * 3),
                  min_size=1, max_size=8))
def test_singular_field_mask_is_the_min_of_the_squared_levels(stacking, layers, t, mode,
                                                              on_mode, h):
    cfg = LayeredConfig(stacking, layers, t)
    h = np.array(h)
    if on_mode and stacking == "abba":
        # h1 near -t lam_r closes mode r up to the small offsets drawn
        h[:, 0] -= t * spectra.sine_modes(layers).lam[mode % layers]
    old = np.min(spectra.positive_levels(h, cfg) ** 2, axis=-1) < quench.SINGULAR_E2
    assert _same_bits(quench.singular_field_mask(h, cfg), old)
    assert _same_bits(quench.singular_field_mask(h[None], cfg), old[None])
    for row, want in zip(h, old):
        assert _same_bits(quench.singular_field_mask(row, cfg), want)


momentum = st.sampled_from([0.0, -0.0, np.pi, -np.pi]) | st.floats(-50.0, 50.0)


@settings(max_examples=200, deadline=None)
@given(model=st.sampled_from(["qwz", "haldane"]), m=st.sampled_from([0.0, -0.0, 2.0])
       | st.floats(-5.0, 5.0), k=st.lists(st.tuples(momentum, momentum), min_size=1,
                                           max_size=6))
def test_each_field_component_is_the_whole_fields_component(model, m, k):
    cfg = LayeredConfig("abba", 1, 0.0, model, m)
    kx, ky = np.array(k).T
    h = models.monolayer_field(cfg, kx, ky)
    if model == "haldane":
        # the sums over the three bond angles as numpy's reduction takes them
        q = np.stack([kx, ky], axis=-1)
        ka, kb = q @ models.TRI_A.T, q @ models.TRI_B.T
        old = np.stack([4.0 * np.cos(ka).sum(axis=-1), 4.0 * np.sin(ka).sum(axis=-1),
                        m - 2.0 * np.sin(kb).sum(axis=-1)], axis=-1)
        assert _same_bits(h, old)
    for i in range(3):
        assert _same_bits(models.monolayer_component(cfg, kx, ky, i), h[..., i])
        assert _same_bits(models.monolayer_component(cfg, kx[0], ky[0], i),
                          models.monolayer_field(cfg, kx[0], ky[0])[i])


@settings(max_examples=100, deadline=None)
@given(model=st.sampled_from(["qwz", "haldane"]), layers=st.integers(1, 4),
       t=st.floats(-2.0, 2.0), j=st.integers(1, 3), mode=st.integers(0, 4),
       k=st.lists(st.tuples(momentum, momentum), min_size=1, max_size=6))
def test_source_function_evaluates_the_component_alone(model, layers, t, j, mode, k):
    cfg = LayeredConfig("abba", layers, t, model, 1.0)
    obs = ("global",) if mode == 0 else ("subspace", 1 + mode % layers)
    grid = bisfield._node_lattice(cfg, j, obs, 16)[0]
    kx, ky = np.array(k).T
    old = models.monolayer_field(cfg, kx, ky)[..., j - 1] + bisfield._source_shift(grid)
    assert _same_bits(bisfield.source_function(grid)(kx, ky), old)
