"""Acceptance battery.

Each criterion prints one PASS/FAIL line on the real stdout (bypassing
pytest capture) so a plain ``pytest -v`` run always shows the full
scoreboard, then asserts.  Tolerances are part of the criteria and must
not be loosened.
"""

import contextlib
import json
import sys
import time

import numpy as np

from layerquench import (
    LayeredConfig,
    analytic_levels,
    analytic_positive_levels,
    ba_reference_magnitudes,
    build_layered,
    characterize,
    chern_fhs,
    chern_two_band,
    dynamical_field,
    eigvec_identities,
    estimate_t_abba,
    estimate_t_ba,
    extract_bis,
    global_observable,
    gtasp_abba,
    mixed_state,
    monolayer_field,
    numeric_levels,
    numeric_spectrum,
    phase_diagram,
    polarization_profile,
    pure_state,
    pure_state_check,
    sample_grid,
    segment_crosses_transition,
    subspace_observable,
    subsystem_field_fn,
    tasp_closed_form,
    time_averaged_expectation,
    time_integrated_expectation,
    winding,
)
from layerquench.cli import main as cli_main


class _Score:
    def __init__(self):
        self.ok = True
        self.notes = []

    def check(self, cond, note_on_fail=""):
        if not cond:
            self.ok = False
            if note_on_fail:
                self.notes.append(note_on_fail)

    def note(self, text):
        self.notes.append(text)


def _emit(line, capsys):
    # capture is suspended so the scoreboard shows up in a plain
    # ``pytest -v`` run, not only on failures
    if capsys is not None:
        with capsys.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


@contextlib.contextmanager
def scoreboard(num, desc, capsys=None):
    sb = _Score()
    try:
        yield sb
    except BaseException:
        _emit(f"ACCEPTANCE {num}: FAIL - {desc} (exception)", capsys)
        raise
    line = f"ACCEPTANCE {num}: {'PASS' if sb.ok else 'FAIL'} - {desc}"
    if sb.notes:
        line += " [" + "; ".join(sb.notes) + "]"
    _emit(line, capsys)
    assert sb.ok, line


def winding_residual(contour):
    a = contour.gfield
    b = np.roll(a, -1, axis=0)
    ang = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0],
                     np.sum(a * b, axis=1))
    s = np.sum(ang) / (2.0 * np.pi)
    return abs(s - round(s))


def test_01_spectra_equivalence(capsys):
    with scoreboard(1, capsys=capsys, desc="analytic and numeric spectra agree on a 64x64 grid "
                       "for N=1..6, both stackings") as sb:
        ks = np.linspace(-np.pi, np.pi, 64, endpoint=False)
        KX, KY = np.meshgrid(ks, ks, indexing="ij")
        start = time.perf_counter()
        dev = 0.0
        for stacking in ("abba", "ba"):
            for layers in range(1, 7):
                for t in (0.7, 1.3):
                    cfg = LayeredConfig(stacking, layers, t)
                    ana = np.sort(analytic_levels(KX, KY, cfg), axis=-1)
                    num = numeric_levels(KX, KY, cfg)
                    dev = max(dev, float(np.max(np.abs(ana - num))))
        elapsed = time.perf_counter() - start
        sb.check(dev <= 1e-10, f"max deviation {dev:.2e}")
        sb.check(elapsed < 10.0, f"runtime {elapsed:.1f}s")
        sb.note(f"dev {dev:.1e}, {elapsed:.2f}s")


def _draw_nondegenerate(rng, n, layer_choices, min_gap=5e-3):
    """Random (cfg, kx, ky) with all levels separated and away from zero."""
    out = []
    while len(out) < n:
        stacking = "abba" if rng.random() < 0.5 else "ba"
        layers = int(rng.choice(layer_choices))
        cfg = LayeredConfig(stacking, layers, float(rng.uniform(0.0, 2.0)),
                            m=float(rng.uniform(-3.0, 3.0)))
        kx, ky = rng.uniform(-np.pi, np.pi, 2)
        ep = np.sort(analytic_positive_levels(kx, ky, cfg))
        if ep[0] < min_gap:
            continue
        if len(ep) > 1 and np.min(np.diff(ep)) < min_gap:
            continue
        out.append((cfg, float(kx), float(ky)))
    return out


def test_02_quench_oracles(capsys):
    with scoreboard(2, capsys=capsys, desc="closed-form averages match the spectral projector "
                       "and direct time integration") as sb:
        rng = np.random.default_rng(20260825)
        samples = _draw_nondegenerate(rng, 1000, (1, 2, 3, 4))
        dev_proj = 0.0
        for cfg, kx, ky in samples:
            j = int(rng.integers(1, 4))
            N = cfg.layers
            H = build_layered(kx, ky, cfg)
            rho = mixed_state(N, j)
            closed = tasp_closed_form(kx, ky, cfg, j)
            proj = np.array([time_averaged_expectation(H, rho, global_observable(N, i))
                             for i in (1, 2, 3)])
            dev_proj = max(dev_proj, float(np.max(np.abs(closed - proj))))
            if cfg.stacking == "abba":
                r = int(rng.integers(1, N + 1))
                g = gtasp_abba(kx, ky, cfg, j, r)
                gp = np.array([time_averaged_expectation(H, rho, subspace_observable(N, r, i))
                               for i in (1, 2, 3)])
                dev_proj = max(dev_proj, float(np.max(np.abs(g - gp))))
        sb.check(dev_proj <= 1e-10, f"projector deviation {dev_proj:.2e}")

        dev_time = 0.0
        for cfg, kx, ky in samples[:20]:
            j = int(rng.integers(1, 4))
            H = build_layered(kx, ky, cfg)
            rho = mixed_state(cfg.layers, j)
            closed = tasp_closed_form(kx, ky, cfg, j)
            ti = np.array([time_integrated_expectation(H, rho, global_observable(cfg.layers, i),
                                                       T=2000.0)
                           for i in (1, 2, 3)])
            dev_time = max(dev_time, float(np.max(np.abs(closed - ti))))
        sb.check(dev_time <= 2e-3, f"time-integration deviation {dev_time:.2e}")
        sb.note(f"projector {dev_proj:.1e}, T=2000 {dev_time:.1e}")


def test_03_common_ring_identity(capsys):
    with scoreboard(3, capsys=capsys, desc="eigenvector s3 identity and the -h3 profile "
                       "proportionality hold; a pure product state breaks "
                       "the fit") as sb:
        rng = np.random.default_rng(777)
        samples = _draw_nondegenerate(rng, 500, (2, 3, 4))
        dev = 0.0
        for cfg, kx, ky in samples:
            sample = numeric_spectrum(kx, ky, cfg)
            h = monolayer_field(cfg, kx, ky)
            res = eigvec_identities(sample, h, cfg.stacking)
            dev = max(dev, res["s3"])
            prof = polarization_profile(build_layered(kx, ky, cfg), cfg.layers)
            closed = tasp_closed_form(kx, ky, cfg, 3)
            dev = max(dev, float(np.max(np.abs(closed - (-h[2]) * prof))))
        sb.check(dev <= 1e-10, f"identity deviation {dev:.2e}")

        cfg = LayeredConfig("ba", 2, 0.4)
        line = np.stack([np.linspace(0.2, 2.2, 21), np.zeros(21)], axis=1)
        pure = pure_state_check(line, cfg, pure_state([1.0, 0.0], 3))
        sb.check(pure["residual"] > 0.01,
                 f"pure-state residual {pure['residual']:.3f} not above 0.01")
        sb.note(f"identities {dev:.1e}, pure residual {pure['residual']:.3f}")


def test_04_bilayer_mode_windings(capsys):
    with scoreboard(4, capsys=capsys, desc="both bilayer mode rings wind -1 for a total of -2 "
                       "at 256^2") as sb:
        res = characterize(LayeredConfig("abba", 2, 0.4), resolution=256)
        sb.check(res["total_w"] == -2, f"total {res['total_w']}")
        sb.check(sorted(c.w for c in res["contours"]) == [-1, -1])
        for c in res["contours"]:
            sb.check(winding_residual(c) < 0.05,
                     f"pre-rounding residual {winding_residual(c):.3f}")


def test_05_alternating_stack_winding_and_chern(capsys):
    with scoreboard(5, capsys=capsys, desc="alternating bilayer: winding with layer factor 2 "
                       "and lattice Chern number both equal -2") as sb:
        cfg = LayeredConfig("ba", 2, 0.4)
        res = characterize(cfg, resolution=256)
        sb.check(res["total_w"] == -2, f"total {res['total_w']}")
        sb.check(res["layer_factor"] == 2)
        sb.check(chern_fhs(cfg) == -2, "chern mismatch")


def test_06_reference_magnitudes_and_round_trips(capsys):
    with scoreboard(6, capsys=capsys, desc="bilayer reference magnitudes are rational in t and "
                       "hopping estimates round-trip") as sb:
        for t in (0.0, 0.4, 1.0, 2.0):
            mags = ba_reference_magnitudes(t)
            sb.check(abs(mags["s1"] - 1.0 / (2.0 + t * t)) <= 1e-12,
                     f"s1 off at t={t}")
            sb.check(abs(mags["s3"] - (2.0 + t * t) / (2.0 + 2.0 * t * t)) <= 1e-12,
                     f"s3 off at t={t}")
            est = estimate_t_ba(mags)
            sb.check(abs(est.t_hat - t) <= 1e-6, f"ba round trip off at t={t}")
        for t in (0.0, 0.4):
            est = estimate_t_abba(LayeredConfig("abba", 2, t), resolution=256)
            sb.check(abs(est.t_hat - t) <= 1e-6,
                     f"abba round trip off at t={t}: {est.t_hat}")


def test_07_phase_structure(capsys):
    with scoreboard(7, capsys=capsys, desc="strong-coupling parity, layer multiplication and a "
                       "64x64 scan whose jumps all cross analytic curves") as sb:
        parity = [chern_fhs(LayeredConfig("abba", n, 2.5)) for n in (2, 3, 4, 5)]
        sb.check(parity == [0, -1, 0, -1], f"parity sequence {parity}")

        mono = chern_fhs(LayeredConfig("abba", 1, 0.0))
        sb.check(mono == -1)
        for layers in (2, 3):
            for t in (0.1, 0.4, 1.0):
                c = chern_fhs(LayeredConfig("ba", layers, t))
                sb.check(c == layers * mono, f"ba N={layers} t={t}: {c}")

        pd = phase_diagram("abba", 2, (0.0, 2.0), (-1.0, 3.0), 64)
        jumps = 0
        violations = 0
        for i in range(64):
            for l in range(64):
                if pd.boundary[i, l]:
                    continue
                for i2, l2 in ((i + 1, l), (i, l + 1)):
                    if i2 >= 64 or l2 >= 64 or pd.boundary[i2, l2]:
                        continue
                    if pd.chern[i, l] == pd.chern[i2, l2]:
                        continue
                    jumps += 1
                    if not segment_crosses_transition(
                            2, (pd.ts[i], pd.ms[l]), (pd.ts[i2], pd.ms[l2])):
                        violations += 1
        sb.check(jumps > 0, "no jumps found; scan degenerate")
        sb.check(violations == 0, f"{violations} interior jump(s)")
        sb.note(f"{jumps} boundary-crossing jumps, {int(pd.boundary.sum())} "
                f"flagged cells, 0 interior jumps" if violations == 0 else
                f"{violations} interior jumps")


def test_08_triangular_lattice_stack(capsys):
    with scoreboard(8, capsys=capsys, desc="triangular-lattice bilayer shows exactly three rings "
                       "and its doubled winding matches twice the monolayer "
                       "Chern number") as sb:
        m = 2.0 * np.sqrt(3.0)
        res = characterize(LayeredConfig("ba", 2, 0.4, model="haldane", m=m),
                           resolution=256)
        sb.check(len(res["contours"]) == 3,
                 f"{len(res['contours'])} ring(s)")
        mono = chern_fhs(LayeredConfig("abba", 1, 0.0, model="haldane", m=m))
        sb.check(res["total_w"] == 2 * mono,
                 f"total {res['total_w']} vs 2x monolayer {2 * mono}")
        sb.note(f"3 rings, total {res['total_w']}, monolayer chern {mono}")


def test_09_trivial_regime(capsys):
    with scoreboard(9, capsys=capsys, desc="at t=1.2 the in-plane response never crosses zero "
                       "along the ring and the total invariant is 0") as sb:
        cfg = LayeredConfig("abba", 2, 1.2)
        grid = sample_grid(cfg, 3, ("subspace", 1), 256)
        ring = extract_bis(grid)[0]
        k = ring.points
        grad = np.stack([np.sin(k[:, 0]), np.sin(k[:, 1])], axis=1)
        n = grad / np.linalg.norm(grad, axis=1, keepdims=True)
        delta = 0.01
        outside = gtasp_abba(k[:, 0] + delta * n[:, 0], k[:, 1] + delta * n[:, 1],
                             cfg, 3, 1)[:, 0]
        inside = gtasp_abba(k[:, 0] - delta * n[:, 0], k[:, 1] - delta * n[:, 1],
                            cfg, 3, 1)[:, 0]
        sb.check(np.all(outside < 0.0), "s1 changes sign on the outer side")
        sb.check(np.all(inside > 0.0), "s1 changes sign on the inner side")
        res = characterize(cfg, resolution=256)
        sb.check(res["total_w"] == 0, f"total {res['total_w']}")
        sb.note(f"s1 range off-ring [{outside.min():.1e}, {outside.max():.1e}]")


def test_10_robustness_and_determinism(tmp_path, capsys):
    with scoreboard(10, capsys=capsys, desc="integers survive grid doubling and delta "
                        "refinement; CLI reruns are byte-identical") as sb:
        ab = LayeredConfig("abba", 2, 0.4)
        ba = LayeredConfig("ba", 2, 0.4)
        sb.check(characterize(ab, resolution=256)["total_w"]
                 == characterize(ab, resolution=512)["total_w"] == -2,
                 "abba winding drifts under grid doubling")
        sb.check(characterize(ba, resolution=256)["total_w"]
                 == characterize(ba, resolution=512)["total_w"] == -2,
                 "ba winding drifts under grid doubling")
        sb.check(characterize(ab, resolution=256, delta=1e-5)["total_w"] == -2,
                 "winding drifts under delta refinement")
        mono = LayeredConfig("abba", 1, 0.0)
        sb.check(chern_fhs(mono, grid_n=60) == chern_fhs(mono, grid_n=120) == -1,
                 "lattice Chern drifts under grid doubling")
        fn = subsystem_field_fn(mono, 1)
        sb.check(chern_two_band(fn, 48) == chern_two_band(fn, 96) == -1,
                 "unit-field degree drifts under grid doubling")
        sb.check(chern_fhs(ab, grid_n=60) == chern_fhs(ab, grid_n=120) == -2,
                 "stacked Chern drifts under grid doubling")

        paths = [tmp_path / name for name in ("a", "b", "c")]
        for extra, out in zip(([], [], ["--threads", "3"]), paths):
            rc = cli_main(["tasp", "--grid", "64", "--out", str(out)] + extra)
            sb.check(rc == 0, f"tasp exited {rc}")
            rc = cli_main(["winding", "--grid", "128", "--out", str(out)] + extra)
            sb.check(rc == 0, f"winding exited {rc}")
        names = ["tasp_s1.csv", "tasp_s2.csv", "tasp_s3.csv",
                 "tasp_manifest.json", "winding.json"]
        for name in names:
            blobs = {(p / name).read_bytes() for p in paths}
            sb.check(len(blobs) == 1, f"{name} differs between runs")
        with open(paths[0] / "winding.json", "r", encoding="utf-8") as f:
            sb.check(json.load(f)["total_w"] == -2)
