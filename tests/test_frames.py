"""Eigensolver-free frames of chern_fhs against the eigh frames they replace.

The oracle is eigh itself: its N lowest eigenvectors span the filled
bands, and U U^H is the projector the frames must reproduce.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from layerquench import (GaplessError, LayeredConfig, NonQuantizedWindingError,
                         analytic_positive_levels, build_layered, chern_fhs, monolayer_field)
from layerquench import frames as frames_module, spectra, topology
from layerquench.frames import FRAME_SINE_MAX, sine_mode_frames
from layerquench.models import LatticeField, sampling_cell
from layerquench.spectra import SineModes, sine_modes

GOLDEN = Path(__file__).parent / "golden" / "fhs_battery.json"


def frames(cfg, kx, ky):
    """(V, sines, gap, levels) at the momenta; V is (..., 2N, N)."""
    kx, ky = np.atleast_1d(kx), np.atleast_1d(ky)
    E = analytic_positive_levels(kx, ky, cfg)
    # a node on a closing (E = 0) gives nan; callers keep gapped nodes only
    with np.errstate(divide="ignore", invalid="ignore"):
        F = sine_mode_frames(cfg, kx, ky, monolayer_field(cfg, kx, ky), E)
    return np.moveaxis(F.frames(), (0, 1), (-2, -1)), F.sines, 2.0 * E.min(axis=-1), E


def eigh_frames(cfg, kx, ky):
    return np.linalg.eigh(build_layered(np.atleast_1d(kx), np.atleast_1d(ky), cfg))[1][
        ..., :cfg.layers]


def dagger(a):
    return a.conj().swapaxes(-1, -2)


def orthonormality_error(V):
    return np.abs(dagger(V) @ V - np.eye(V.shape[-1])).max(axis=(-2, -1))


def projector_error(V, U):
    return np.abs(V @ dagger(V) - U @ dagger(U)).max(axis=(-2, -1))


momentum = st.floats(-4.0, 4.0, allow_nan=False)


@settings(max_examples=120, deadline=None)
@given(stacking=st.sampled_from(["abba", "ba"]), model=st.sampled_from(["qwz", "haldane"]),
       layers=st.integers(1, 6), t=st.floats(-3.0, 3.0), m=st.floats(-5.0, 5.0),
       k=st.lists(st.tuples(momentum, momentum), min_size=1, max_size=6))
def test_frames_span_the_eigh_projector(stacking, model, layers, t, m, k):
    cfg = LayeredConfig(stacking, layers, t, model, m)
    kx, ky = np.array(k).T
    V, sines, gap, E = frames(cfg, kx, ky)
    U = eigh_frames(cfg, kx, ky)
    gapped = gap >= 1e-3
    assert np.all(orthonormality_error(V)[gapped] <= 1e-12)
    assert np.all(projector_error(V, U)[gapped] <= 1e-10)
    # the bound holds for every built frame, kept or replaced
    # (||V V^H - U U^H||_F = sqrt(2) ||sin Theta||_F; eigh is good to
    # about 1e-12 at gap 1e-3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frames_module, "FRAME_SINE_MAX", np.inf)
        raw = frames(cfg, kx, ky)[0]
    distance = np.linalg.norm(raw @ dagger(raw) - U @ dagger(U), axis=(-2, -1))
    assert np.all(distance[gapped] <= np.sqrt(2.0) * sines[gapped] + 1e-10)



@settings(max_examples=60, deadline=None)
@given(layers=st.integers(1, 6), model=st.sampled_from(["qwz", "haldane"]),
       t=st.floats(-3.0, 3.0), m=st.floats(-5.0, 5.0),
       k=st.lists(st.tuples(momentum, momentum), min_size=1, max_size=6))
def test_sine_mode_frames_span_the_eigh_projector(layers, model, t, m, k):
    cfg = LayeredConfig("abba", layers, t, model, m)
    kx, ky = np.array(k).T
    V, sines, gap, E = frames(cfg, kx, ky)
    gapped = gap >= 1e-3
    # closed form: certified, so these are the sine-mode frames themselves,
    # not eigh's.  A ba pair frame comes from the bilayer projector, whose
    # rounding grows as the gap closes; below a gap of about 0.1 some ba
    # nodes may take the eigh frame, so only abba is held to this
    assert np.all(sines[gapped] <= FRAME_SINE_MAX)
    assert np.all(orthonormality_error(V)[gapped] <= 1e-12)
    assert np.all(projector_error(V, eigh_frames(cfg, kx, ky))[gapped] <= 1e-10)

@pytest.mark.parametrize("stacking, layers", [
    pytest.param("abba", 1, id="1"), pytest.param("abba", 2, id="2"),
    pytest.param("abba", 4, id="4"), pytest.param("abba", 5, id="5"),
    pytest.param("ba", 2, id="2-ba"), pytest.param("ba", 3, id="3-ba"),
    pytest.param("ba", 4, id="4-ba")])
def test_wrong_mode_angles_cannot_certify_a_frame(stacking, layers, monkeypatch):
    # the sine-mode frames are certified against H itself, never against
    # the mode decomposition they are built from: with every angle theta_r
    # shifted (the ba bilayer basis included), no node is certified, every
    # node takes the eigh frame, and chern_fhs still gives the eigh
    # integer.  The abba parity battery rests on this, since
    # total_chern_abba uses the same sine modes
    def shifted_modes(N):
        theta = sine_modes(N).theta + 0.1
        vectors = np.sqrt(2.0 / (N + 1)) * np.sin(np.outer(theta, np.arange(1, N + 1)))
        return SineModes(N=N, theta=theta, vectors=vectors)

    eigh = np.linalg.eigh
    solved = []

    def counted_eigh(H):
        solved.append(H.shape[:-2])
        return eigh(H)

    monkeypatch.setattr(frames_module, "sine_modes", shifted_modes)
    cfg = LayeredConfig(stacking, layers, 1.2, "haldane", 0.5)
    KX, KY = sampling_cell(cfg.model).nodes(40, 40)
    V, sines, gap, E = frames(cfg, KX, KY)
    assert np.all(sines > FRAME_SINE_MAX)
    assert np.all(projector_error(V, eigh_frames(cfg, KX, KY)) <= 1e-12)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    golden = json.loads(GOLDEN.read_text())
    assert chern_fhs(cfg, grid_n=40) == golden[f"{stacking} {layers} haldane 1.2 0.5 40"] \
        == -3 * layers
    assert solved == [(40 * 40,)]


@pytest.mark.parametrize("stacking, layers", [
    pytest.param("abba", 2, id="2"), pytest.param("abba", 5, id="5"),
    pytest.param("ba", 3, id="3-ba"), pytest.param("ba", 4, id="4-ba")])
def test_orthonormal_wrong_modes_cannot_certify_a_frame(stacking, layers, monkeypatch):
    # rotated sine modes stay an orthonormal layer basis, so the once per
    # call basis check passes; H does not keep their blocks, the bound
    # sees it, and no node is certified
    rotation = np.linalg.qr(np.random.default_rng(layers).normal(size=(layers, layers)))[0]

    def rotated_modes(N):
        modes = sine_modes(N)
        if N != layers:
            return modes
        return SineModes(N=N, theta=modes.theta, vectors=rotation @ modes.vectors)

    monkeypatch.setattr(frames_module, "sine_modes", rotated_modes)
    cfg = LayeredConfig(stacking, layers, 1.2, "haldane", 0.5)
    KX, KY = sampling_cell(cfg.model).nodes(40, 40)
    V, sines, gap, E = frames(cfg, KX, KY)
    assert np.all(sines > FRAME_SINE_MAX)
    assert np.all(projector_error(V, eigh_frames(cfg, KX, KY)) <= 1e-12)
    golden = json.loads(GOLDEN.read_text())
    assert chern_fhs(cfg, grid_n=40) == golden[f"{stacking} {layers} haldane 1.2 0.5 40"]


@pytest.mark.parametrize("stacking, layers", [("abba", 3), ("ba", 4), ("ba", 5)])
def test_certified_bound_covers_the_full_residual(stacking, layers, monkeypatch):
    # the bound splits R = H V - V M into block residuals and a leakage
    # bound; with rotated modes both parts are large, and the bound must
    # still cover ||R||_F / (min E - lam_max(M)) taken with the dense H
    rotation = np.linalg.qr(np.random.default_rng(layers).normal(size=(layers, layers)))[0]

    def rotated_modes(N):
        modes = sine_modes(N)
        if N != layers:
            return modes
        return SineModes(N=N, theta=modes.theta, vectors=rotation @ modes.vectors)

    monkeypatch.setattr(frames_module, "sine_modes", rotated_modes)
    monkeypatch.setattr(frames_module, "FRAME_SINE_MAX", np.inf)
    cfg = LayeredConfig(stacking, layers, 1.2, "qwz", 0.5)
    kx, ky = np.random.default_rng(0).uniform(-np.pi, np.pi, size=(2, 50))
    V, sines, gap, E = frames(cfg, kx, ky)
    HV = build_layered(kx, ky, cfg) @ V
    pairs = layers // 2 if stacking == "ba" else 0
    M = np.zeros(V.shape[:1] + (layers, layers), dtype=complex)
    ritz = dagger(V) @ HV
    for r in range(pairs):
        M[:, 2 * r:2 * r + 2, 2 * r:2 * r + 2] = ritz[:, 2 * r:2 * r + 2, 2 * r:2 * r + 2]
    single = np.arange(2 * pairs, layers)
    M[:, single, single] = -E[:, pairs:layers - pairs]
    residual = np.linalg.norm(HV - V @ M, axis=(-2, -1))
    sep = E.min(axis=-1) - np.linalg.eigvalsh(M)[:, -1]
    ok = sep > 0
    assert ok.sum() > 10 and np.all(residual > 1e-3)
    assert np.all(sines[ok] >= residual[ok] / sep[ok] * (1 - 1e-9))
    assert np.all(np.isinf(sines[~ok]))


@pytest.mark.parametrize("t", [0.4, 1.2, 2.5, -1.2])
@pytest.mark.parametrize("m", [-3.0, -1.0, 0.5, 1.0])
def test_ba_levels_coinciding_at_the_zone_centre(t, m):
    # h1 = h2 = 0 at k = 0, so the two modes with cos(theta_r) <= 0 share E = |m - 2|
    cfg = LayeredConfig("ba", 3, t, m=m)
    V, sines, gap, E = frames(cfg, 0.0, 0.0)
    assert np.ptp(np.sort(E[0])[:2]) < 1e-15
    assert orthonormality_error(V)[0] <= 1e-12
    assert projector_error(V, eigh_frames(cfg, 0.0, 0.0))[0] <= 1e-10
    assert sines[0] <= FRAME_SINE_MAX


@pytest.mark.parametrize("t", [0.4, 1.2])
@pytest.mark.parametrize("m", [-1.0, 0.5, 1.0])
def test_abba_levels_coinciding_on_the_kx0_line(t, m):
    # h1 = 0 at kx = 0, where h1 + t and h1 - t give the two modes one level
    cfg = LayeredConfig("abba", 2, t, m=m)
    ky = np.linspace(-np.pi, np.pi, 9)
    kx = np.zeros_like(ky)
    V, sines, gap, E = frames(cfg, kx, ky)
    assert np.all(np.abs(E[:, 0] - E[:, 1]) < 1e-15)
    assert np.all(orthonormality_error(V) <= 1e-12)
    assert np.all(projector_error(V, eigh_frames(cfg, kx, ky)) <= 1e-10)
    assert np.all(sines <= FRAME_SINE_MAX)


@pytest.mark.parametrize("t", [1.0, 2.5])
@pytest.mark.parametrize("dm", [1e-5, 1e-3])
def test_uncertified_frames_fall_back_to_eigh(t, dm, monkeypatch):
    # at m = 2 + dm a level of about dm sits at the zone centre, a grid
    # node, where the bilayer projector of its mode pair loses accuracy;
    # the bound flags it, the node takes the eigh frame, and the integer is
    # the eigh frames' one
    cfg = LayeredConfig("ba", 3, t, m=2 + dm)
    V, sines, gap, E = frames(cfg, 0.0, 0.0)
    assert sines[0] > FRAME_SINE_MAX
    assert projector_error(V, eigh_frames(cfg, 0.0, 0.0))[0] <= 1e-10
    projected = chern_fhs(cfg, grid_n=40)
    monkeypatch.setattr(frames_module, "FRAME_SINE_MAX", -1.0)
    assert projected == chern_fhs(cfg, grid_n=40) == 0


def test_half_filling_evaluates_the_field_once(monkeypatch):
    # the levels and the frame certification share one evaluation of the
    # monolayer field on the grid: each component once, on the whole lattice
    calls = []
    component = LatticeField.component

    def counted(self, i, m, at=None):
        calls.append((self.kx.shape, i, at))
        return component(self, i, m, at)

    def no_field(*args):
        raise AssertionError("monolayer field evaluated again")

    monkeypatch.setattr(LatticeField, "component", counted)
    monkeypatch.setattr(topology, "monolayer_field", no_field)
    monkeypatch.setattr(spectra, "monolayer_field", no_field)
    monkeypatch.setattr(frames_module, "build_layered", no_field)
    for stacking in ("abba", "ba"):
        for model in ("qwz", "haldane"):
            chern_fhs(LayeredConfig(stacking, 3, 0.4, model, 0.5), grid_n=16)
    assert calls == 4 * [((16, 16), i, None) for i in range(3)]


def test_eigh_is_reached_only_off_half_filling(monkeypatch):
    # certified frames everywhere on these grids, so the fallback stays
    # idle: both stackings of any depth take the sine-mode block frames
    def no_eigh(*args):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for stacking in ("abba", "ba"):
        for layers in range(1, 7):
            chern_fhs(LayeredConfig(stacking, layers, 0.4), grid_n=16)
    for cfg, filled in [(LayeredConfig("ba", 2, 0.4), 1), (LayeredConfig("abba", 4, 0.4), 3),
                        (LayeredConfig("ba", 4, 0.4), 3)]:
        with pytest.raises(AssertionError, match="eigh called"):
            chern_fhs(cfg, filled, grid_n=16)


def plaquettes(U1, U2):
    U1, U2 = U1 / np.abs(U1), U2 / np.abs(U2)
    return U1 * np.roll(U2, -1, axis=0) * np.conj(np.roll(U1, -1, axis=1)) * np.conj(U2)


def chern_or_error(cfg, grid):
    try:
        return chern_fhs(cfg, grid_n=grid)
    except (GaplessError, NonQuantizedWindingError) as exc:
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(stacking=st.sampled_from(["abba", "ba"]), model=st.sampled_from(["qwz", "haldane"]),
       layers=st.integers(1, 6), t=st.floats(-2.5, 2.5), m=st.floats(-4.0, 4.0),
       grid=st.integers(16, 40), kept=st.floats(0.0, 1.0))
def test_block_links_give_the_full_determinant_phases(stacking, model, layers, t, m, grid, kept):
    # the links of chern_fhs are products of block determinants, and full
    # determinants where a link touches an eigh frame; both give the
    # plaquette phases of the full determinants of the same frames.  A
    # sine bound at a quantile of the node bounds sends a random share of
    # the nodes to eigh, which mixes both kinds of link in one plaquette
    cfg = LayeredConfig(stacking, layers, t, model, m)
    KX, KY = sampling_cell(model).nodes(grid, grid)
    h = monolayer_field(cfg, KX, KY)
    E = spectra.positive_levels(h, cfg)
    assume(2.0 * E.min() > topology.GAP_TOL_DEFAULT)
    want = chern_or_error(cfg, grid)
    sines = sine_mode_frames(cfg, KX, KY, h, E).sines
    for bound in (FRAME_SINE_MAX, np.quantile(sines, kept)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(frames_module, "FRAME_SINE_MAX", bound)
            F = sine_mode_frames(cfg, KX, KY, h, E)
            assert chern_or_error(cfg, grid) == want
        U = F.links()
        V = F.frames()
        full = [frames_module.overlap_det(V, np.roll(V, -1, axis=axis)) for axis in (2, 3)]
        if min(np.abs(u).min() for u in full) < topology.LINK_FLOOR:
            continue
        assert np.abs(plaquettes(*U) - plaquettes(*full)).max() <= 1e-12
        if isinstance(want, int):
            total = topology.FHS_ORIENTATION * np.angle(plaquettes(*full)).sum() / (2 * np.pi)
            assert np.rint(total) == want


BATTERY_MASSES = {"qwz": (-3.0, -1.0, 0.5, 1.0, 2.0),
                  "haldane": (-4.0, -1.0, 0.5, 1.0, 2 * np.sqrt(3))}


@pytest.mark.parametrize("stacking, layers", [
    pytest.param(stacking, layers, id=f"{layers}-{stacking}")
    for stacking, layers in [("abba", 1), ("abba", 2), ("abba", 3), ("abba", 4), ("abba", 5),
                             ("ba", 1), ("ba", 2), ("ba", 3), ("ba", 4), ("ba", 5)]])
def test_integer_battery_matches_the_eigh_frames(stacking, layers):
    # tests/golden/fhs_battery.json holds the integers (or "gapless") that
    # chern_fhs gave with eigh frames, over 1200 configurations: the abba
    # N = 4, 5 entries were taken at commit f5b59c9 and the ba N = 4, 5
    # ones at commit 924f98a, where those stacks still took every frame
    # from eigh
    golden = json.loads(GOLDEN.read_text())
    seen = 0
    for model, masses in BATTERY_MASSES.items():
        for t in (0.0, 0.4, 1.2, 2.5):
            for m in masses:
                cfg = LayeredConfig(stacking, layers, t, model, m)
                for grid in (16, 40, 60):
                    try:
                        got = chern_fhs(cfg, grid_n=grid)
                    except GaplessError:
                        got = "gapless"
                    except NonQuantizedWindingError:
                        got = "nonquantized"
                    assert got == golden[f"{stacking} {layers} {model} {t} {m} {grid}"], \
                        (cfg, grid)
                    seen += 1
    assert seen == 120
