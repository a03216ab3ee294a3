"""Frozen digests of the sampling path and bitwise properties of its kernels.

tests/golden/sampling_digests.json holds, per case, the sha256 of
sample_grid's kx, ky and values and of characterize's contours (points,
frac, wraps, gfield and windings), or the error the call raised.  The
cases cover both stackings and both models, every quench axis, the
global observable and every mode-resolved one of N = 1..4, the global
observable and mode 3 of abba N = 8 and 9 and the global ba N = 8, and a
lattice with a nudged node (the gap closes exactly at k = 0).  Every
sampling kernel must leave them bitwise unchanged.
"""

import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from layerquench import (LayeredConfig, LayerQuenchError, SingularPointError, bisfield,
                         characterize, estimate_t_abba, models, quench, sample_grid, spectra,
                         topology)

GOLDEN = Path(__file__).parent / "golden" / "sampling_digests.json"

# (t, m) per model: both stacks carry band-inversion rings
PARAMS = {"qwz": (0.4, 1.0), "haldane": (0.4, 1.5)}
RESOLUTION = (48, 40)


def sampling_cases():
    """(key, cfg, j, observable, resolution) of every frozen case."""
    cases = []
    for model, (t, m) in PARAMS.items():
        for stacking in ("abba", "ba"):
            # every mode of N = 1..4, then deeper stacks with one mode: from
            # eight terms on, numpy's pairwise sums take another order
            depths = [(layers, range(1, layers + 1)) for layers in range(1, 5)]
            depths += [(8, [3]), (9, [3])] if stacking == "abba" else [(8, ())]
            for layers, modes in depths:
                cfg = LayeredConfig(stacking, layers, t, model, m)
                modes = modes if stacking == "abba" else ()
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


def _components(h):
    """The components (h1, h2, h3) the kernels take, of a stacked field h (..., 3)."""
    return tuple(np.moveaxis(h, -1, 0))


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
    old = np.min(spectra.positive_levels(_components(h), cfg) ** 2, axis=-1) < quench.SINGULAR_E2
    assert _same_bits(quench.singular_field_mask(_components(h), cfg), old)
    assert _same_bits(quench.singular_field_mask(_components(h[None]), cfg), old[None])
    for row, want in zip(h, old):
        assert _same_bits(quench.singular_field_mask(_components(row), cfg), want)


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
    for x, y in ((kx, ky), (kx[0], ky[0])):
        # the one evaluator the public momentum wrappers take, contiguous per component
        hk = models.monolayer_field(cfg, x, y)
        for i, c in enumerate(models.monolayer_components(cfg, x, y)):
            assert _same_bits(c, hk[..., i]) and np.asarray(c).flags.c_contiguous
            assert _same_bits(models.monolayer_component(cfg, x, y, i), hk[..., i])


lattice_size = st.integers(16, 300)


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(["qwz", "haldane"]), nx=lattice_size, ny=lattice_size,
       m=st.sampled_from([0.0, -0.0, 2.0, 1e50, -1e50]) | st.floats(-1e50, 1e50),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lattice_field_is_the_whole_fields(model, nx, ny, m, seed):
    # every component of the lattice helper, on the whole lattice, at
    # scattered nodes and for masses on a leading axis, is the whole
    # field's at Cell.nodes
    cfg = LayeredConfig("abba", 1, 0.0, model, m)
    KX, KY = models.sampling_cell(model).nodes(nx, ny)
    if model == "qwz":
        # the square cell's axes separate bit for bit
        assert _same_bits(KX, np.broadcast_to(KX[:, :1], KX.shape))
        assert _same_bits(KY, np.broadcast_to(KY[:1, :], KY.shape))
    lattice = models.LatticeField(model, nx, ny)
    assert _same_bits(lattice.kx, KX) and _same_bits(lattice.ky, KY)
    h = models.monolayer_field(cfg, KX, KY)
    rng = np.random.default_rng(seed)
    at = (rng.integers(0, nx, 20), rng.integers(0, ny, 20))
    for i in range(3):
        assert _same_bits(lattice.component(i, m), h[..., i])
        assert _same_bits(lattice.component(i, m), models.monolayer_component(cfg, KX, KY, i))
        assert _same_bits(lattice.component(i, m, at), h[at][:, i])
    ms = np.array([m, -0.5 * m, 1.0])
    per_mass = [models.monolayer_component(replace(cfg, m=float(x)), KX, KY, 2) for x in ms]
    assert _same_bits(lattice.component(2, ms[:, None, None]), np.stack(per_mass))


def test_node_momenta_are_built_only_when_read(monkeypatch):
    # qwz components come from the axis values, so no caller that reads
    # only fields builds the (nx, ny) node momenta; a grid builds them when
    # they are read, nudged nodes at their nudged momenta
    cfg = LayeredConfig("abba", 1, 0.0, m=2.0)
    cell = models.sampling_cell("qwz")
    KX, KY = cell.nodes(32, 32)
    bad = quench.singular_mask(KX, KY, cfg)
    assert bad.sum() == 1
    i, l = np.nonzero(bad)
    KX[bad], KY[bad] = cell.k_at(i / 32 + 0.5 / 32, l / 32 + 0.5 / 32)

    def no_nodes(*args):
        raise AssertionError("node momenta built")

    monkeypatch.setattr(models.Cell, "nodes", no_nodes)
    bilayer = LayeredConfig("abba", 2, 0.4)
    characterize(bilayer, resolution=64)
    estimate_t_abba(bilayer, 64)
    topology.total_chern_abba(bilayer, 32)
    topology.phase_diagram("abba", 2, (0.0, 2.0), (-1.0, 3.0), 4, grid_n=16)
    grid = sample_grid(cfg, 3, ("global",), 32)
    monkeypatch.undo()
    assert _same_bits(grid.kx, KX) and _same_bits(grid.ky, KY)


def test_haldane_lattice_takes_each_angle_product_once(monkeypatch):
    # h1 and h2 share the k.a_i of one product, as h3 keeps its S
    calls = []
    angles = models.LatticeField._angles

    def counted(self, vectors):
        calls.append("a" if vectors is models.TRI_A else "b")
        return angles(self, vectors)

    monkeypatch.setattr(models.LatticeField, "_angles", counted)
    sample_grid(LayeredConfig("abba", 2, 0.4, "haldane", 1.5), 3, ("global",), 32)
    assert sorted(calls) == ["a", "b"]


# lattices with gap closings exactly at nodes: abba N = 3 at t = 1/sqrt(2)
# closes modes 1 and 3 at kx = -+pi/2, ky = 0 (grids of 4k nodes); the ba
# levels close where the monolayer field does, at (0, pi) for m = 0 and at
# k = 0 for m = 2 (even grids)
EXACT_CLOSINGS = [("abba", 3, 1 / np.sqrt(2), 1.0), ("ba", 2, 0.4, 0.0), ("ba", 3, 1.1, 2.0),
                  ("abba", 1, 0.0, 2.0)]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(EXACT_CLOSINGS), model=st.sampled_from(["qwz", "haldane"]),
       n=st.integers(4, 40).map(lambda k: 4 * k) | st.integers(16, 160),
       j=st.integers(1, 3), mode=st.integers(0, 3))
@example(case=EXACT_CLOSINGS[0], model="qwz", n=64, j=3, mode=0)
@example(case=EXACT_CLOSINGS[0], model="qwz", n=64, j=1, mode=2)
@example(case=EXACT_CLOSINGS[1], model="qwz", n=64, j=3, mode=0)
@example(case=EXACT_CLOSINGS[2], model="qwz", n=64, j=2, mode=0)
def test_pruned_singular_mask_is_the_whole_lattices(case, model, n, j, mode):
    # the mask from h3 and the near nodes alone is the whole field's, and
    # sample_grid nudges the nodes of the whole lattice's mask and takes
    # the closed form of the whole field with the nudged nodes' field,
    # evaluated alone, written in
    stacking, layers, t, m = case
    cfg = LayeredConfig(stacking, layers, t, model, m)
    lattice = models.LatticeField(model, n, n)
    KX, KY = lattice.kx.copy(), lattice.ky.copy()
    h = models.monolayer_field(cfg, KX, KY)
    whole = quench.singular_field_mask(_components(h), cfg)
    # every case closes at a node of a square lattice of 4k nodes
    assert whole.any() or model == "haldane" or n % 4
    assert _same_bits(bisfield._singular_nodes(lattice, cfg, lattice.component(2, m)), whole)
    obs = ("subspace", 1 + mode % layers) if mode and stacking == "abba" else ("global",)
    i, l = np.nonzero(whole)
    KX[i, l], KY[i, l] = lattice.cell.k_at(i / n + 0.5 / n, l / n + 0.5 / n)
    hj = h[..., j - 1].copy()
    h[i, l] = models.monolayer_field(cfg, KX[i, l], KY[i, l])
    still = quench.singular_field_mask(_components(h[i, l]), cfg)
    try:
        if still.any():
            p = np.flatnonzero(still)[0]
            raise SingularPointError(f"gap closes at grid node ({i[p]}, {l[p]}), "
                                     f"k=({KX[i[p], l[p]]}, {KY[i[p], l[p]]})")
        if obs[0] == "global":
            want = quench.tasp_of_field(_components(h), cfg, j)
        else:
            want = quench.gtasp_of_field(_components(h), cfg, j, obs[1])
    except LayerQuenchError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            sample_grid(cfg, j, obs, n)
        return
    grid = sample_grid(cfg, j, obs, n)
    assert _same_bits(grid.kx, KX) and _same_bits(grid.ky, KY)
    assert _same_bits(grid.values, want) and _same_bits(grid.hj, hj)


@pytest.mark.parametrize("cfg, nudged", [
    (LayeredConfig("abba", 2, 0.4), 0),
    (LayeredConfig("abba", 1, 0.0, m=2.0), 1),
    (LayeredConfig("ba", 2, 0.4, m=0.0), 2),
    (LayeredConfig("abba", 3, 1 / np.sqrt(2), "haldane", 1.5), 0),
])
def test_sampling_tests_only_the_near_and_nudged_nodes(monkeypatch, cfg, nudged):
    # the N-mode test runs at the nodes where h3^2 < 2 SINGULAR_E2, then
    # at the nudged nodes alone, never on the whole lattice
    n = 64
    h3 = models.LatticeField(cfg.model, n, n).component(2, cfg.m)
    near = int(np.count_nonzero(h3 ** 2 < 2.0 * quench.SINGULAR_E2))
    sizes = []
    mask = bisfield.singular_field_mask

    def counted(h, cfg):
        sizes.append(np.size(h[0]))
        return mask(h, cfg)

    monkeypatch.setattr(bisfield, "singular_field_mask", counted)
    for j in (1, 3):
        sizes.clear()
        grid = sample_grid(cfg, j, ("global",), n)
        assert len(grid.nudged[0]) == nudged
        assert sizes == [near] * bool(near) + [nudged] * bool(nudged)
        assert sum(sizes) < n * n


@pytest.mark.parametrize("cfg", [LayeredConfig("abba", 1, 0.0, m=2.0),
                                 LayeredConfig("ba", 2, 0.4, m=0.0)])
def test_sampling_leaves_the_grids_hj_unnudged(cfg):
    # the closed form takes a copy of hj with the nudged nodes written in
    KX, KY = models.sampling_cell(cfg.model).nodes(32, 32)
    h = models.monolayer_field(cfg, KX, KY)
    for j in (1, 2, 3):
        grid = sample_grid(cfg, j, ("global",), 32)
        assert len(grid.nudged[0])
        assert _same_bits(grid.hj, h[..., j - 1])


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


def _mode_fields(h, cfg):
    """The interleaved (..., N, 3) abba mode fields the per-mode kernels replaced."""
    hr = np.repeat(h[..., None, :], cfg.layers, axis=-2)
    hr[..., 0] = hr[..., 0] + cfg.t * spectra.sine_lam(cfg.layers)
    return hr


def _ba_matrix(h, cfg):
    """The whole A matrix of the ba closed form, as it was computed before
    quench._ba_column took one column."""
    N = cfg.layers
    hx, hy, hz = h[..., 0, None], h[..., 1, None], h[..., 2, None]
    e2 = spectra._level_part(False, hx, hy, cfg.t * spectra.sine_lam(N)) + hz ** 2
    perp = e2 - hz ** 2
    G = perp + hx ** 2 + hy ** 2
    ok = G > 1e-30
    t_ab = np.where(ok, perp ** 2 / np.where(ok, e2 * G ** 2, 1.0), 0.0)
    t_a3 = np.where(ok, perp / np.where(ok, e2 * G, 1.0), 0.0)
    A = np.empty(h.shape[:-1] + (3, 3))
    A[..., :2, :2] = ((2.0 / N) * (2.0 * t_ab.sum(axis=-1)))[..., None, None]
    A[..., 0, 2] = A[..., 1, 2] = A[..., 2, 0] = A[..., 2, 1] = (
        (1.0 / N) * (2.0 * t_a3.sum(axis=-1)))
    A[..., 2, 2] = (0.5 / N) * (2.0 * (1.0 / e2).sum(axis=-1))
    return A


@settings(max_examples=300, deadline=None)
@given(stacking=st.sampled_from(["abba", "ba"]), layers=st.integers(1, 12),
       t=st.sampled_from([0.0, -0.0, 0.4]) | st.floats(-3.0, 3.0), j=st.integers(1, 3),
       h=st.lists(st.tuples(*[st.sampled_from(SMALL[:2] + [1.0, -0.5]) | st.floats(-3.0, 3.0)]
                            * 2, st.sampled_from([0.5, -0.0]) | st.floats(-3.0, 3.0)),
                  min_size=1, max_size=8))
def test_per_mode_kernels_are_the_interleaved_expressions(stacking, layers, t, j, h):
    cfg = LayeredConfig(stacking, layers, t)
    h = np.array(h)
    if stacking == "ba":
        e2 = spectra._level_part(False, h[:, 0, None], h[:, 1, None],
                                 t * spectra.sine_lam(layers)) + h[:, 2, None] ** 2
    else:
        hr = _mode_fields(h, cfg)
        e2 = np.sum(hr ** 2, axis=-1)
    if np.any(e2 < quench.SINGULAR_E2):
        with pytest.raises(LayerQuenchError):
            quench.tasp_of_field(_components(h), cfg, j)
        return
    for row in (slice(None), 0):
        if stacking == "ba":
            old = -h * h[..., j - 1, None] * _ba_matrix(h, cfg)[..., j - 1]
            assert _same_bits(quench.tasp_of_field(_components(h[row]), cfg, j), old[row])
            continue
        modes = -hr * hr[..., j - 1, None] / e2[..., None]
        assert _same_bits(quench.tasp_of_field(_components(h[row]), cfg, j),
                          (-np.sum(-modes, axis=-2) / layers)[row])
        assert _same_bits(quench.gtasp_of_field(_components(h[row]), cfg, j), modes[row])
        for r in range(1, layers + 1):
            assert _same_bits(quench.gtasp_of_field(_components(h[row]), cfg, j, r),
                              modes[row][..., r - 1, :])


@settings(max_examples=200, deadline=None)
@given(stacking=st.sampled_from(["abba", "ba"]), model=st.sampled_from(["qwz", "haldane"]),
       layers=st.integers(1, 5), t=st.sampled_from([0.0, 0.6, 1 / np.sqrt(2)])
       | st.floats(-2.0, 2.0), m=st.sampled_from([1.0, 1.8, 2.0]) | st.floats(-3.0, 3.0),
       j=st.integers(1, 3), mode=st.integers(0, 5), component=st.integers(1, 3),
       k=st.lists(st.tuples(st.sampled_from([0.0, np.pi / 2, np.arctan2(0.6, 0.8)])
                            | momentum, momentum), min_size=1, max_size=6))
def test_one_component_evaluator_is_the_whole_evaluators_component(
        stacking, model, layers, t, m, j, mode, component, k):
    # the source component_zero_curves bisects evaluates one component,
    # bit for bit the whole closed form's, and raises where it raises
    cfg = LayeredConfig(stacking, layers, t, model, m)
    obs = ("global",) if mode == 0 or stacking == "ba" else ("subspace", 1 + mode % layers)
    kx, ky = np.array(k).T
    cases = [(bisfield.polarization_evaluator(cfg, j, obs),
              bisfield.polarization_evaluator(cfg, j, obs, component))]
    if stacking == "abba":
        cases.append((lambda x, y: quench.gtasp_abba(x, y, cfg, j),
                      lambda x, y: quench.gtasp_abba(x, y, cfg, j, None, component)))
    for whole, one in cases:
        for x, y in ((kx, ky), (kx[0], ky[0])):
            try:
                want = whole(x, y)[..., component - 1]
            except LayerQuenchError as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    one(x, y)
                continue
            assert _same_bits(one(x, y), want)


@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(0, 2), st.integers(1, 5), st.integers(1, 5)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_component_norm_and_extension_are_the_whole_fields(shape, seed):
    rng = np.random.default_rng(seed)
    h = rng.choice([0.0, -0.0, 1e-160, 2.0], size=shape + (3,)) * rng.normal(size=shape + (3,))
    comps = [h[..., i] for i in range(3)]
    assert _same_bits(np.sqrt((comps[0] * comps[0] + comps[1] * comps[1])
                              + comps[2] * comps[2]), np.linalg.norm(h, axis=-1))
    # the concatenated extension the in-place one replaced
    old = np.concatenate([h, h[..., :1, :, :]], axis=-3)
    old = np.concatenate([old, old[..., :1, :]], axis=-2)
    for i in range(3):
        assert _same_bits(topology._periodic(comps[i]), old[..., i])
