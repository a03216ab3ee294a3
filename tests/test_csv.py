"""The columnar CSV writer of the CLI against the per-row reference
writer it replaced: every file must be byte-identical.  The CSV files of
a fixed CLI sweep are also frozen as sha256 digests in
tests/golden/csv_digests.json, computed with the per-value writer."""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference_csv
from layerquench import cli, models
from layerquench.bisfield import SAMPLE_MODE_BYTES, characterize, sample_grid
from layerquench.cli import (_column, _write_csv, _write_csv_files, build_parser, layered_config,
                             main, parse_grid, parse_observable, resolve_options)
from layerquench.models import LayeredConfig
from layerquench.topology import phase_diagram


def options(argv):
    return resolve_options(build_parser().parse_args(argv))


def run(argv, out):
    assert main(argv + ["--out", str(out)]) == 0
    return options(argv)


@pytest.mark.parametrize("argv", [
    ["tasp", "--grid", "32x20"],
    ["tasp", "--model", "haldane", "--m", "0.5", "--grid", "48"],
    # m=2 closes the single-layer gap at k=(0, 0): that row holds a nudged node
    ["tasp", "--layers", "1", "--t", "0", "--m", "2", "--grid", "32"],
    ["tasp", "--observable", "subspace:1", "--grid", "40"],
    ["tasp", "--stacking", "ba", "--grid", "40x24"],
])
def test_tasp_files(tmp_path, argv):
    opts = run(argv, tmp_path / "cli")
    grid = sample_grid(layered_config(opts), opts["axis"],
                       parse_observable(opts["observable"]),
                       parse_grid(opts["grid"]))
    for comp in (1, 2, 3):
        name = f"tasp_s{comp}.csv"
        reference_csv.write_csv(tmp_path / name, ["kx", "ky", "value"],
                                reference_csv.tasp_rows(grid.kx, grid.ky, grid.values, comp))
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()


def test_tasp_files_span_many_blocks(tmp_path, monkeypatch):
    # about 13 records of 75 bytes per block: the 640 rows take 49 full
    # blocks and end on a short one of 3
    monkeypatch.setattr(cli, "CSV_BLOCK_BYTES", 1000)
    opts = run(["tasp", "--grid", "32x20"], tmp_path / "cli")
    grid = sample_grid(layered_config(opts), opts["axis"], ("global",), (32, 20))
    for comp in (1, 2, 3):
        name = f"tasp_s{comp}.csv"
        _write_csv(tmp_path / "one.csv", ["kx", "ky", "value"],
                   [grid.kx.ravel(), grid.ky.ravel(), grid.values[..., comp - 1].ravel()])
        reference_csv.write_csv(tmp_path / "ref.csv", ["kx", "ky", "value"],
                                reference_csv.tasp_rows(grid.kx, grid.ky, grid.values, comp))
        written = (tmp_path / "cli" / name).read_bytes()
        assert written == (tmp_path / "one.csv").read_bytes()
        assert written == (tmp_path / "ref.csv").read_bytes()


def test_last_columns_of_different_widths(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "CSV_BLOCK_BYTES", 200)
    rng = np.random.default_rng(5)
    a = rng.standard_normal(23)
    labels = [["x"] * 23, [f"label{i}" for i in range(23)], list(rng.standard_normal(23))]
    lasts = [_column(np.array(labels[2]))] + [_column(col) for col in labels[:2]]
    paths = [tmp_path / f"f{n}.csv" for n in range(3)]
    _write_csv_files(paths, ["a", "last"], [_column(a)], lasts)
    for path, col in zip(paths, [labels[2]] + labels[:2]):
        reference_csv.write_csv(tmp_path / "ref.csv", ["a", "last"], zip(a, col))
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _texts(col):
    """Per-value "%.17g" of a float column, row-major."""
    return [("%.17g" % v).encode() for v in np.ravel(col).tolist()]


def test_momenta_of_a_square_cell_are_keyed_by_axis():
    grid = sample_grid(LayeredConfig("abba", 2, 0.4), 3, ("global",), (24, 17))
    for col, line in ((grid.kx, grid.kx[:, 0]), (grid.ky, grid.ky[0])):
        texts, index = _column(col)
        assert texts[index].tolist() == _texts(col)
        # one text per line, in axis order, which np.unique of the signed
        # bit patterns would not give
        assert texts.tolist() == _texts(line)


@pytest.mark.parametrize("argv", [
    ["tasp", "--model", "haldane", "--m", "1.5", "--grid", "20"],
    # the nudged node at k = (0, 0) breaks the constancy of both axes
    ["tasp", "--layers", "1", "--t", "0", "--m", "2", "--grid", "32"],
])
def test_momenta_off_the_axes_are_keyed_by_value(argv):
    opts = options(argv)
    grid = sample_grid(layered_config(opts), opts["axis"], ("global",),
                       parse_grid(opts["grid"]))
    for col in (grid.kx, grid.ky):
        texts, index = _column(col)
        assert texts[index].tolist() == _texts(col)
        keys = np.unique(col.view(np.uint64))
        assert texts.tolist() == _texts(keys.view(np.float64))
    if grid.nudged[0].size:
        i, l = grid.nudged
        assert (i.tolist(), l.tolist()) == ([16], [16])
        assert len(_column(grid.kx)[0]) == 33


def test_tasp_peak_stays_within_the_mode_bound(tmp_path):
    main(["tasp", "--grid", "256", "--out", str(tmp_path)])
    tracemalloc.start()
    try:
        assert main(["tasp", "--grid", "256", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= models.mode_bytes(256 * 256, 2, SAMPLE_MODE_BYTES["abba"])


def test_bis_files_with_source_column(tmp_path):
    opts = run(["bis", "--layers", "3", "--grid", "96"], tmp_path / "cli")
    contours = characterize(layered_config(opts), opts["axis"], parse_grid(opts["grid"]),
                            opts["delta"], opts["tol_bis"])["contours"]
    assert len(contours) >= 2
    for n, c in enumerate(contours):
        name = f"bis_contour_{n:02d}.csv"
        reference_csv.write_csv(tmp_path / name, ["kx", "ky", "g1", "g2", "source"],
                                reference_csv.bis_rows(c))
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("argv, boundary", [
    (["--layers", "3", "--t-min", "-0.5", "--t-max", "0.5", "--m-min", "-0.5",
      "--m-max", "4.5", "--steps", "5"], 10),
    # the one cell, centred on (1, 1), sits on a gap closing
    (["--steps", "1"], 1),
])
def test_phase_diagram_file(tmp_path, argv, boundary):
    opts = run(["phase-diagram", "--grid", "32"] + argv, tmp_path / "cli")
    pd = phase_diagram(opts["stacking"], opts["layers"], (opts["t_min"], opts["t_max"]),
                       (opts["m_min"], opts["m_max"]), opts["steps"], grid_n=32)
    assert pd.boundary.sum() == boundary
    reference_csv.write_csv(tmp_path / "ref.csv", ["t", "m", "chern", "gap_min"],
                            reference_csv.phase_rows(pd))
    assert ((tmp_path / "cli" / "phase_diagram.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


def test_writer_matches_reference_on_extreme_values(tmp_path):
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-310, 1e300, -1.0 / 3, 0.1]
    a = np.concatenate([special, rng.standard_normal(20) * 10.0 ** rng.integers(-20, 20, 20)])
    b = a[::-1].copy()
    labels = [f"c{i}" for i in range(len(a))]
    _write_csv(tmp_path / "new.csv", ["a", "label", "b"], [a, labels, b])
    reference_csv.write_csv(tmp_path / "ref.csv", ["a", "label", "b"], zip(a, labels, b))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _bits(*patterns):
    return list(np.array(patterns, dtype=np.uint64).view(np.float64))


# values a float column repeats: both zeros, NaNs with the sign bit and
# payload bits set, both infinities, subnormals and extremes
POOL = np.array([0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -1e-310,
                 0.1, -1.0 / 3]
                + _bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF800000000BEEF,
                        0xFFF8000000000001, 0x7FF0000000000001, 0x000FFFFFFFFFFFFF))


@st.composite
def csv_columns(draw):
    """Equal-length columns: str columns, and float columns drawn from POOL
    with a drawn number of fresh values, so the share of distinct values
    ranges from a few to all."""
    rows = draw(st.integers(0, 200))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            columns.append(draw(st.lists(st.sampled_from(["s3", "-2", "boundary"]),
                                         min_size=rows, max_size=rows)))
            continue
        col = POOL[draw(st.lists(st.integers(0, len(POOL) - 1), min_size=rows, max_size=rows))]
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        fresh = draw(st.integers(0, rows))
        col[:fresh] = rng.standard_normal(fresh) * 10.0 ** rng.integers(-300, 300, fresh)
        rng.shuffle(col)
        columns.append(col)
    return columns


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_columns())
def test_writer_matches_reference_on_repeated_values(tmp_path, columns):
    header = [f"c{i}" for i in range(len(columns))]
    _write_csv(tmp_path / "new.csv", header, columns)
    reference_csv.write_csv(tmp_path / "ref.csv", header, zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


GOLDEN = Path(__file__).parent / "golden" / "csv_digests.json"

# every CSV file these commands write is frozen in GOLDEN; the phase
# windows put cell centres on gap closings, so both files hold boundary cells
CSV_SWEEP = {
    "tasp abba 256": ["tasp", "--grid", "256"],
    "tasp ba 256": ["tasp", "--stacking", "ba", "--grid", "256"],
    "tasp haldane 256": ["tasp", "--model", "haldane", "--m", "1.5", "--grid", "256"],
    "tasp subspace:1 256": ["tasp", "--layers", "3", "--observable", "subspace:1",
                            "--grid", "256"],
    "tasp abba 256x96": ["tasp", "--t", "0.7", "--grid", "256x96"],
    "bis ba 128": ["bis", "--stacking", "ba", "--grid", "128"],
    "bis abba 128": ["bis", "--layers", "3", "--grid", "128"],
    "phase-diagram abba 16": ["phase-diagram", "--steps", "16", "--t-min", "-0.0625",
                              "--t-max", "1.9375", "--m-min", "-2.125", "--m-max", "1.875"],
    "phase-diagram ba 12": ["phase-diagram", "--stacking", "ba", "--steps", "12",
                            "--m-min", "-1.5", "--m-max", "2.5"],
    "phase-diagram haldane abba 16": ["phase-diagram", "--model", "haldane", "--steps", "16",
                                      "--t-min", "0.2", "--t-max", "1.6", "--m-min", "-2.5",
                                      "--m-max", "2.5", "--grid", "48"],
    "phase-diagram haldane ba N=3 12": ["phase-diagram", "--model", "haldane", "--stacking",
                                        "ba", "--layers", "3", "--steps", "12", "--t-min", "0",
                                        "--t-max", "2", "--m-min", "-6", "--m-max", "6"],
    "phase-diagram abba N=3 12": ["phase-diagram", "--layers", "3", "--steps", "12"],
    # mass columns -2, 0 and 2 lie exactly on the square-lattice closings
    "phase-diagram ba on closings 5": ["phase-diagram", "--stacking", "ba", "--steps", "5",
                                       "--m-min", "-2.5", "--m-max", "2.5"],
}


def csv_digests(argv, out):
    """sha256 of every CSV file the command writes into out."""
    assert main(argv + ["--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out).glob("*.csv"))}


@pytest.mark.parametrize("case", sorted(CSV_SWEEP))
def test_csv_digests_are_frozen(tmp_path, case):
    golden = json.loads(GOLDEN.read_text())
    assert csv_digests(CSV_SWEEP[case], tmp_path) == golden[case]
