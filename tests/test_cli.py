"""End-to-end tests of the command line driver (in-process, no subprocess)."""

import json

import pytest

from layerquench import LayeredConfig, estimate_t_abba, models, tasp_closed_form
from layerquench.cli import main, parse_grid, parse_observable
from layerquench.errors import UsageError


def run(*args):
    return main([str(a) for a in args])


def read_bytes(path):
    return path.read_bytes()


def load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


class TestParsers:
    def test_grid_specs(self):
        assert parse_grid("256") == (256, 256)
        assert parse_grid("256x128") == (256, 128)
        with pytest.raises(UsageError):
            parse_grid("12q")

    def test_observable_specs(self):
        assert parse_observable("global") == ("global",)
        assert parse_observable("subspace:2") == ("subspace", 2)
        with pytest.raises(UsageError):
            parse_observable("subspace")
        with pytest.raises(UsageError):
            parse_observable("orbit:1")
        # bilayer:W, once an alias of subspace:W, is an unknown kind
        for spec in ("bilayer:1", "bilayer:3"):
            with pytest.raises(UsageError, match="unknown observable kind 'bilayer'"):
                parse_observable(spec)


class TestTasp:
    def test_outputs(self, tmp_path):
        assert run("tasp", "--grid", "32x20", "--out", tmp_path) == 0
        manifest = load_json(tmp_path / "tasp_manifest.json")
        assert manifest["command"] == "tasp"
        assert manifest["rows"] == 640
        assert "threads" not in manifest["config"]
        for comp in (1, 2, 3):
            lines = (tmp_path / f"tasp_s{comp}.csv").read_text().splitlines()
            assert lines[0] == "kx,ky,value"
            assert len(lines) == 641

    def test_reruns_and_threads_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("tasp", "--grid", "32", "--out", a) == 0
        assert run("tasp", "--grid", "32", "--out", b, "--threads", "3") == 0
        for name in ("tasp_s1.csv", "tasp_s2.csv", "tasp_s3.csv",
                     "tasp_manifest.json"):
            assert read_bytes(a / name) == read_bytes(b / name)

    def test_qt_threads_env_is_honoured(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("tasp", "--grid", "32", "--out", a) == 0
        monkeypatch.setenv("QT_THREADS", "3")
        assert run("tasp", "--grid", "32", "--out", b) == 0
        assert read_bytes(a / "tasp_s3.csv") == read_bytes(b / "tasp_s3.csv")
        monkeypatch.setenv("QT_THREADS", "many")
        assert run("tasp", "--grid", "32", "--out", tmp_path) == 2

    def test_nudged_node_rows_give_the_sampled_momentum(self, tmp_path):
        # m=2 closes the single-layer gap at node (16, 16) of the 32^2
        # grid, k=(0, 0); that node is sampled half a step away
        assert run("tasp", "--layers", "1", "--t", "0", "--m", "2", "--grid", "32",
                   "--out", tmp_path) == 0
        cfg = LayeredConfig("abba", 1, 0.0, m=2.0)
        for comp in (1, 2, 3):
            rows = (tmp_path / f"tasp_s{comp}.csv").read_text().splitlines()
            kx, ky, value = rows[1 + 16 * 32 + 16].split(",")
            assert kx == ky == "0.098174770424681146"
            assert float(value) == tasp_closed_form(float(kx), float(ky), cfg, 3)[comp - 1]


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfgfile = tmp_path / "run.conf"
        cfgfile.write_text("t = 0.7\ngrid = 32   # coarse\n")
        assert run("tasp", "--config", cfgfile, "--t", "0.4",
                   "--out", tmp_path) == 0
        manifest = load_json(tmp_path / "tasp_manifest.json")
        assert manifest["config"]["t"] == 0.4
        assert manifest["config"]["grid"] == "32"

    def test_unknown_key_is_a_usage_error(self, tmp_path):
        cfgfile = tmp_path / "run.conf"
        cfgfile.write_text("bogus = 1\n")
        assert run("tasp", "--config", cfgfile, "--out", tmp_path) == 2

    def test_tol_deg_is_not_an_option(self, tmp_path):
        cfgfile = tmp_path / "run.conf"
        cfgfile.write_text("tol_deg = 1e-9\n")
        assert run("tasp", "--config", cfgfile, "--out", tmp_path) == 2
        with pytest.raises(SystemExit) as exc:
            run("tasp", "--tol-deg", "1e-9")
        assert exc.value.code == 2

    def test_bad_flag_value_exits_via_argparse(self):
        with pytest.raises(SystemExit) as exc:
            run("tasp", "--stacking", "zz")
        assert exc.value.code == 2


class TestModeIndex:
    @pytest.mark.parametrize("command, observable", [
        ("tasp", "subspace:0"),
        ("tasp", "subspace:3"),
        ("bis", "bilayer:5"),
    ])
    def test_out_of_range_mode_is_a_usage_error(self, tmp_path, capsys, command, observable):
        assert run(command, "--layers", "2", "--observable", observable, "--grid", "32",
                   "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        if observable.startswith("bilayer"):
            assert "unknown observable kind 'bilayer'" in err
        else:
            assert "outside 1..2" in err
        assert list(tmp_path.iterdir()) == []


class TestBisAndWinding:
    def test_winding_report(self, tmp_path):
        assert run("winding", "--grid", "128", "--out", tmp_path) == 0
        rep = load_json(tmp_path / "winding.json")
        assert rep["total_w"] == -2
        assert rep["layer_factor"] == 1
        assert sorted(e["winding"] for e in rep["contours"]) == [-1, -1]

    def test_bis_contour_files(self, tmp_path):
        assert run("bis", "--stacking", "ba", "--grid", "128",
                   "--out", tmp_path) == 0
        rep = load_json(tmp_path / "bis_summary.json")
        assert rep["total_w"] == -2
        assert rep["layer_factor"] == 2
        assert len(rep["contours"]) == 1
        entry = rep["contours"][0]
        lines = (tmp_path / entry["file"]).read_text().splitlines()
        assert lines[0] == "kx,ky,g1,g2,source"
        assert len(lines) == entry["points"] + 1
        assert lines[1].endswith(",s3")


    def test_too_coarse_contour_is_a_numerical_failure(self, tmp_path, capsys):
        # near m = 2 the BIS is a 4-point ring at grid 64: valid input, but
        # no winding can be read off it
        assert run("winding", "--m", "2.0", "--grid", "64", "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: contour has only 4 points")
        assert "--grid" in err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


class TestChern:
    def test_half_filling_report(self, tmp_path):
        assert run("chern", "--grid", "60", "--out", tmp_path) == 0
        rep = load_json(tmp_path / "chern.json")
        assert rep["chern_fhs"] == -2
        assert rep["filled"] == 2
        assert rep["mode_degree_sum"] == -2

    @pytest.mark.parametrize("model, m, layers, want", [
        ("qwz", 1.0, 2, -2), ("qwz", 1.0, 3, -3), ("haldane", 1.5, 2, -6)])
    def test_ba_half_filling_is_checked_by_the_monolayer_degree(self, tmp_path, capsys, model,
                                                                m, layers, want):
        # the ba integer takes N times the monolayer degree as its oracle,
        # under its own key; stdout keeps the link-variable line
        assert run("chern", "--stacking", "ba", "--layers", str(layers), "--model", model,
                   "--m", str(m), "--grid", "64", "--out", tmp_path) == 0
        rep = load_json(tmp_path / "chern.json")
        assert rep["chern_fhs"] == rep["layers_times_monolayer_degree"] == want
        assert "mode_degree_sum" not in rep
        assert capsys.readouterr().out == f"chern = {want}\n"

    def test_all_bands_filled(self, tmp_path):
        assert run("chern", "--grid", "60", "--filled", "4",
                   "--out", tmp_path) == 0
        rep = load_json(tmp_path / "chern.json")
        assert rep["chern_fhs"] == 0
        assert "mode_degree_sum" not in rep


class TestPhaseDiagram:
    def test_scan_outputs(self, tmp_path):
        assert run("phase-diagram", "--steps", "6", "--grid", "32",
                   "--out", tmp_path) == 0
        rows = (tmp_path / "phase_diagram.csv").read_text().splitlines()
        assert rows[0] == "t,m,chern,gap_min"
        assert len(rows) == 37
        matrix = (tmp_path / "phase_matrix.dat").read_text().splitlines()
        assert len(matrix) == 6
        assert all(len(line.split()) == 6 for line in matrix)
        manifest = load_json(tmp_path / "phase_manifest.json")
        assert manifest["steps"] == 6
        assert isinstance(manifest["boundary_cells"], int)
        # cells near a gap closing plus one per gapped region, never all 36
        assert 0 < manifest["cells_computed"] < 36
        assert manifest["scan_grid"] == 32
        assert "fhs_grid" not in manifest
        # cell centred on (1/6, 4/3) lies inside the doubly inverted phase
        hit = [r for r in rows[1:]
               if r.split(",")[2] == "-2"
               and abs(float(r.split(",")[0]) - 1 / 6) < 1e-12
               and abs(float(r.split(",")[1]) - 4 / 3) < 1e-12]
        assert len(hit) == 1

    def test_manifest_records_the_ba_resolutions(self, tmp_path):
        # the scan is capped at 64 whatever --grid was typed; ba Chern
        # numbers are N monolayer degrees on that grid, with no grid of their own
        assert run("phase-diagram", "--stacking", "ba", "--steps", "2",
                   "--out", tmp_path) == 0
        manifest = load_json(tmp_path / "phase_manifest.json")
        assert manifest["config"]["grid"] == "256"
        assert manifest["scan_grid"] == 64
        assert "fhs_grid" not in manifest

    def test_ba_cell_near_a_line_is_n_monolayer_degrees(self, tmp_path):
        # link variables at 40^2 gave -1 for this N = 3 cell within 0.005 of
        # m = -2; chern_fhs at 80^2-640^2 and 3 x the monolayer degree give 3
        t, m = -2.6484617753548463, -1.9955393691757681
        assert run("phase-diagram", "--stacking", "ba", "--layers", "3", "--steps", "1",
                   "--t-min", repr(t), "--t-max", repr(t), "--m-min", repr(m),
                   "--m-max", repr(m), "--out", tmp_path) == 0
        rows = (tmp_path / "phase_diagram.csv").read_text().splitlines()
        assert rows[1].split(",")[:3] == [repr(t), repr(m), "3"]
        manifest = load_json(tmp_path / "phase_manifest.json")
        assert manifest["boundary_cells"] == 0
        assert manifest["cells_computed"] == 1


class TestEstimateT:
    def test_from_measured_samples(self, tmp_path):
        assert run("estimate-t", "--stacking", "ba",
                   "--sample", "s1=%.17g" % (1 / 2.16),
                   "--sample", "s3=%.17g" % (2.16 / 2.32),
                   "--out", tmp_path) == 0
        rep = load_json(tmp_path / "estimate.json")
        assert rep["method"] == "ba-rational"
        assert abs(rep["t_hat"] - 0.4) < 1e-9
        assert set(rep["samples"]) == {"s1", "s3"}

    def test_self_generated_round_trip(self, tmp_path):
        assert run("estimate-t", "--true-t", "0.4", "--grid", "96",
                   "--out", tmp_path) == 0
        rep = load_json(tmp_path / "estimate.json")
        assert rep["method"] == "abba-zero-line"
        assert rep["true_t"] == 0.4
        assert rep["error"] < 1e-6

    def test_rectangular_grid_reaches_the_estimator(self, tmp_path):
        assert run("estimate-t", "--true-t", "0.4", "--grid", "64x48",
                   "--out", tmp_path) == 0
        rep = load_json(tmp_path / "estimate.json")
        cfg = LayeredConfig("abba", 2, 0.4)
        assert rep["t_hat"] == estimate_t_abba(cfg, (64, 48)).t_hat != \
            estimate_t_abba(cfg, 64).t_hat

    def test_trivial_regime_is_a_numerical_failure(self, tmp_path):
        assert run("estimate-t", "--true-t", "1.2", "--grid", "96",
                   "--out", tmp_path) == 1

    @pytest.mark.parametrize("axis", ["1", "2"])
    def test_ba_round_trip_along_in_plane_axes(self, tmp_path, axis):
        assert run("estimate-t", "--stacking", "ba", "--true-t", "0.4", "--axis", axis,
                   "--out", tmp_path) == 0
        rep = load_json(tmp_path / "estimate.json")
        assert rep["method"] == "ba-numeric"
        assert rep["error"] < 1e-9

    def test_requires_some_input(self, tmp_path):
        assert run("estimate-t", "--out", tmp_path) == 2


class TestRejectedInputs:
    @pytest.mark.parametrize("argv, message", [
        (["chern", "--grid", "2"], "error: grid resolution must be at least 16"),
        (["phase-diagram", "--grid", "8"], "error: grid resolution must be at least 16"),
        (["phase-diagram", "--steps", "-1"], "error: steps must be at least 1"),
        (["phase-diagram", "--steps", "0"], "error: steps must be at least 1"),
    ])
    def test_usage_errors(self, tmp_path, capsys, argv, message):
        assert run(*argv, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_oversized_hamiltonian_stack(self, tmp_path, capsys, monkeypatch):
        # about 10 GB; the bound must fire before the field is even evaluated
        def no_field(*args):
            raise AssertionError("build_layered went past its memory check")

        monkeypatch.setattr(models, "monolayer_field", no_field)
        assert run("chern", "--layers", "50", "--grid", "256", "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 65536 momenta x 100x100 Hamiltonians need 10.5 GB")
        assert len(err.splitlines()) == 1

    def test_oversized_degree_sums(self, tmp_path, capsys, monkeypatch):
        # the link variables of one layer at 3900^2 pass their own bound;
        # the mode-degree sums are refused before any node exists
        def no_nodes(*args):
            raise AssertionError("nodes allocated before the memory check")

        monkeypatch.setattr(models.Cell, "nodes", no_nodes)
        assert run("chern", "--layers", "1", "--grid", "3900", "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a 3900 x 3900 lattice needs 3.0 GB for its mode-degree sums")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("stacking, layers, message", [
        pytest.param("ba", 3, "1960000 momenta x 6x6 Hamiltonians need 1.1 GB", id="ba-3"),
        pytest.param("ba", 4, "1960000 momenta x 8x8 Hamiltonians need 2.0 GB", id="ba-4"),
        pytest.param("abba", 4, "1960000 momenta x 8x8 Hamiltonians need 2.0 GB", id="abba-4"),
    ])
    def test_oversized_block_frames(self, tmp_path, capsys, monkeypatch, stacking, layers,
                                    message):
        # half filling takes the eigh-free block frames at any depth, which
        # never build the whole stack; the same bound still fires before any
        # field is evaluated
        def no_field(*args):
            raise AssertionError("chern_fhs went past its memory check")

        monkeypatch.setattr(models.LatticeField, "component", no_field)
        assert run("chern", "--stacking", stacking, "--layers", str(layers), "--grid", "1400",
                   "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("case", ["out-is-a-file", "out-below-a-file", "csv-is-a-directory",
                                      "second-csv-is-a-directory"])
    def test_unwritable_output(self, tmp_path, capsys, case):
        # --out is appended by the exit-code sweep, so these cases live here
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = {"out-is-a-file": blocker, "out-below-a-file": blocker / "sub"}.get(
            case, tmp_path / "out")
        failing = out
        if case.endswith("csv-is-a-directory"):
            failing = out / ("tasp_s2.csv" if case.startswith("second") else "tasp_s1.csv")
            failing.mkdir(parents=True)
        assert run("tasp", "--grid", "16", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {failing}: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        if failing != out:
            # every target is checked before the first file is opened
            assert list(out.iterdir()) == [failing]


# (expected exit code, argv): every input main accepts ends in 0, 1
# (numerical failure) or 2 (usage error) and never in a traceback
EXIT_SWEEP = [
    (0, ["bis", "--grid", "64"]),
    # bilayer:W is no longer an alias of subspace:W
    (2, ["winding", "--observable", "bilayer:2", "--grid", "64"]),
    (0, ["chern", "--filled", "4", "--grid", "32"]),
    (1, ["winding", "--m", "2.0", "--grid", "64"]),
    (2, ["bis", "--tol-bis", "-1", "--grid", "64"]),
    (2, ["bis", "--tol-bis", "nan", "--grid", "64"]),
    (2, ["bis", "--delta", "0", "--grid", "64"]),
    (2, ["winding", "--delta", "nan", "--grid", "64"]),
    # m = 3 has no band-inversion surface: refused before any contour exists
    (2, ["bis", "--m", "3", "--delta", "0", "--grid", "64"]),
    (2, ["winding", "--m", "3", "--delta", "nan", "--grid", "64"]),
    # steps at or above the node spacing (0.049 at 128^2) gave clean wrong windings
    (2, ["winding", "--delta", "3", "--grid", "128"]),
    (2, ["winding", "--delta", "10", "--grid", "128"]),
    (2, ["winding", "--delta", "1e9", "--grid", "128"]),
    (2, ["chern", "--filled", "9", "--grid", "32"]),
    (2, ["chern", "--filled", "0", "--grid", "32"]),
    (2, ["tasp", "--observable", "orbit:1", "--grid", "16"]),
    (2, ["tasp", "--observable", "global:1", "--grid", "16"]),
    (2, ["tasp", "--observable", "subspace", "--grid", "16"]),
    (2, ["tasp", "--observable", "subspace:x", "--grid", "16"]),
    (2, ["tasp", "--observable", "subspace:0", "--grid", "16"]),
    (2, ["bis", "--observable", "subspace:3", "--grid", "16"]),
    (2, ["bis", "--observable", "bilayer:3", "--grid", "16"]),
    (2, ["bis", "--observable", "bilayer:1", "--layers", "3", "--grid", "16"]),
    (2, ["winding", "--stacking", "ba", "--observable", "subspace:1", "--grid", "16"]),
    (2, ["tasp", "--grid", "8"]),
    (2, ["bis", "--grid", "15x32"]),
    (2, ["chern", "--grid", "2"]),
    (2, ["phase-diagram", "--grid", "8"]),
    (2, ["phase-diagram", "--steps", "0"]),
    # the Chern sums take one resolution for both axes
    (2, ["chern", "--grid", "40x80"]),
    (2, ["phase-diagram", "--grid", "16x2", "--steps", "2"]),
    (2, ["tasp", "--t", "nan", "--grid", "16"]),
    (2, ["bis", "--t", "inf", "--grid", "16"]),
    (2, ["phase-diagram", "--t-min", "nan", "--steps", "2", "--grid", "16"]),
    # beyond |t|, |m| = 1e50 the closed forms overflow and warned on stderr
    (2, ["tasp", "--stacking", "ba", "--t", "1e70", "--grid", "16"]),
    (2, ["chern", "--stacking", "ba", "--m", "1e150", "--grid", "16"]),
    (2, ["phase-diagram", "--stacking", "ba", "--t-min", "1e300", "--t-max", "1e301",
         "--steps", "2", "--grid", "16"]),
    (0, ["tasp", "--stacking", "ba", "--model", "haldane", "--t", "1e50", "--m=-1e50",
         "--grid", "16"]),
    (2, ["tasp", "--threads", "0", "--grid", "16"]),
    (2, ["estimate-t", "--layers", "1", "--true-t", "0.3", "--grid", "32"]),
    (2, ["estimate-t", "--stacking", "ba", "--sample", "s1=nan"]),
    (2, ["estimate-t", "--stacking", "ba", "--sample", "s3=nan"]),
    (2, ["estimate-t", "--stacking", "ba", "--sample", "s1=inf"]),
    (2, ["estimate-t", "--true-t", "0.4", "--axis", "1", "--grid", "64"]),
    # ba magnitudes are even in t, so a negative coupling cannot be recovered
    (2, ["estimate-t", "--stacking", "ba", "--true-t", "-1"]),
    # at m = 2 the s3 reference momentum k = 0 closes the gap, which an s1
    # or s2 sample never evaluates
    (0, ["estimate-t", "--stacking", "ba", "--sample", "s1=0.3", "--m", "2"]),
    (0, ["estimate-t", "--stacking", "ba", "--sample", "s2=0.3", "--m", "2"]),
    (0, ["estimate-t", "--stacking", "ba", "--sample", "s1=0.3", "--m", "2", "--axis", "1"]),
    (1, ["estimate-t", "--stacking", "ba", "--sample", "s3=0.3", "--m", "2"]),
    # synthetic data leaves out the s3 channel there and recovers t from s1 and s2
    (0, ["estimate-t", "--stacking", "ba", "--true-t", "0.4", "--m", "2"]),
    # lattices of 10^11 nodes and more, refused before any node array exists
    (2, ["tasp", "--grid", "99999999999"]),
    (2, ["bis", "--grid", "400000x400000"]),
    (2, ["winding", "--grid", "1000000"]),
    (2, ["estimate-t", "--true-t", "0.4", "--grid", "1000000"]),
    (2, ["chern", "--grid", "1000000"]),
    (2, ["chern", "--filled", "1", "--grid", "1000000"]),
    # the mode-degree sums (3.0 GB) are refused before the link variables run
    (2, ["chern", "--layers", "1", "--grid", "3900"]),
    # chern_fhs gives -1 and the mode-degree sum the exact 0
    (1, ["chern", "--stacking", "abba", "--layers", "2", "--model", "haldane",
         "--t", "0.0844259428061247", "--m", "1.9959446315762408", "--grid", "40"]),
    # chern_fhs gives -4 for the exact -6, and the monolayer degree refuses at 40^2
    (1, ["chern", "--stacking", "ba", "--layers", "2", "--model", "haldane",
         "--t", "0.4", "--m", "1.5", "--grid", "40"]),
    # 10^10 scan cells, and 10^5-layer or 256^2 x 3000-mode arrays,
    # refused before any of them exists
    (2, ["phase-diagram", "--steps", "100000", "--grid", "16"]),
    (2, ["tasp", "--layers", "100000", "--grid", "16"]),
    (2, ["bis", "--layers", "100000", "--grid", "16"]),
    (2, ["phase-diagram", "--layers", "100000", "--grid", "16"]),
    (2, ["phase-diagram", "--layers", "100000", "--model", "haldane", "--grid", "16"]),
    (2, ["tasp", "--layers", "3000", "--grid", "256"]),
]


# a float warning would reach stderr outside pytest
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("code, argv", EXIT_SWEEP,
                         ids=["_".join(argv).replace("--", "") for _, argv in EXIT_SWEEP])
def test_exit_code_sweep(tmp_path, capsys, code, argv):
    assert run(*argv, "--out", tmp_path) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
    else:
        assert err == ""


def test_selftest_battery(tmp_path, capsys):
    assert run("selftest", "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out
