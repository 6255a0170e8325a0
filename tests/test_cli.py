import csv
import importlib.resources
import io
import json
from contextlib import redirect_stdout

import jsonschema
import pytest

from thermalcomm.cli import (CHI2_COLUMNS, RATES_COLUMNS, RunConfig, cmd_chi2,
                             cmd_constellation, cmd_polar, cmd_rates, main)


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def load_schema(name):
    ref = importlib.resources.files("thermalcomm") / "schemas" / name
    return json.loads(ref.read_text())


# --------------------------------------------------------------- rates table

def test_rates_row_count_and_columns():
    rows = cmd_rates(RunConfig(m_max=4, dim=40))
    # 2 reference rows + 4 kinds x 3 m values
    assert len(rows) == 2 + 12
    assert rows[0]["kind"] == "capacity_C"
    assert rows[1]["kind"] == "gaussian_rate_limit"
    for row in rows:
        assert list(row.keys()) == RATES_COLUMNS


def test_rates_classical_rate_below_capacity():
    rows = cmd_rates(RunConfig(m_max=4, dim=40))
    cap = rows[0]["classical_rate_bits"]
    for row in rows[2:]:
        assert row["classical_rate_bits"] <= cap + 1e-9


def test_rates_csv_output():
    code, text = run_cli(["rates", "--m-max", "3", "--dim", "40",
                          "--kinds", "equilattice"])
    assert code == 0
    reader = csv.DictReader(io.StringIO(text))
    assert reader.fieldnames == RATES_COLUMNS
    rows = list(reader)
    assert len(rows) == 4  # 2 reference + m in {2, 3}


def test_rates_json_validates_against_schema():
    code, text = run_cli(["rates", "--m-max", "3", "--dim", "40",
                          "--kinds", "gauss_hermite", "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    jsonschema.validate(doc, load_schema("table.schema.json"))


# ---------------------------------------------------------------- chi2 table

def test_chi2_table_shape_and_s_constant():
    # no dim override: an undersized Fock cutoff overestimates the entropy
    # gap and can push delta_B_actual past its bound
    rows = cmd_chi2(RunConfig(m_max=6))
    assert all(list(r.keys()) == CHI2_COLUMNS for r in rows)
    svals = {r["s"] for r in rows}
    assert len(svals) == 1
    for r in rows:
        assert r["delta_B_actual"] <= r["delta_B_bound"] + 1e-12


def test_chi2_c_decay_matches_channel():
    import math
    from thermalcomm import channel_params
    p = channel_params(0.8, 0.0, 7.0)
    rows = cmd_chi2(RunConfig(m_max=3, dim=40))
    for r in rows:
        assert r["c_decay"] == pytest.approx(p.c_decay, rel=1e-12)
        assert r["c_decay"] == pytest.approx(
            2.0 * math.log((1.0 + p.s) / p.s), rel=1e-12)


# ------------------------------------------------------------- constellation

def test_constellation_dump():
    code, text = run_cli(["constellation", "--kinds", "gauss_hermite",
                          "--m-min", "3", "--m-max", "3"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 3
    assert float(rows[1]["prob"]) == pytest.approx(2 / 3, abs=1e-9)


# ---------------------------------------------------------------- exit codes

def test_usage_error_bad_k():
    code, _ = run_cli(["rates", "--k", "1.5", "--m-max", "3"])
    assert code == 2


def test_usage_error_polar_nonuniform_kind():
    code, _ = run_cli(["polar", "--kinds", "random_walk",
                       "--blocklength", "64", "--trials", "0",
                       "--mc-budget", "100"])
    assert code == 2


def test_truncation_error_exit_code():
    # at dim 5 the B-side state loses almost half its trace
    code, text = run_cli(["rates", "--dim", "5", "--m-max", "3",
                          "--kinds", "equilattice"])
    assert code == 4
    assert text == ""


def test_polar_rejects_csv_format():
    code, _ = run_cli(["polar", "--format", "csv", "--blocklength", "64",
                       "--trials", "0", "--mc-budget", "100"])
    assert code == 2


# ---------------------------------------------------------------- config file

def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nm_max = 3\nkinds = equilattice\ndim = 40\n")
    code, text = run_cli(["rates", "--config", str(cfg)])
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(text)))) == 4
    # explicit flag wins over the file
    code, text = run_cli(["rates", "--config", str(cfg), "--m-max", "4"])
    assert len(list(csv.DictReader(io.StringIO(text)))) == 5


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wibble = 3\n")
    code, _ = run_cli(["rates", "--config", str(cfg)])
    assert code == 2


def test_config_file_rejects_unknown_format(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = xml\n")
    code, text = run_cli(["rates", "--config", str(cfg), "--m-max", "3",
                          "--dim", "40", "--kinds", "equilattice"])
    assert code == 2
    assert text == ""


def test_out_flag_writes_file(tmp_path):
    dest = tmp_path / "table.csv"
    code, text = run_cli(["rates", "--m-max", "3", "--dim", "40",
                          "--kinds", "quantile", "--out", str(dest)])
    assert code == 0
    assert dest.read_text().startswith(RATES_COLUMNS[0])


# -------------------------------------------------------------- polar report

SMALL_POLAR = RunConfig(m_min=2, blocklength=128, trials=40, mc_budget=200,
                        fmt="json")
SMALL_POLAR_16QAM = RunConfig(m_min=4, blocklength=128, trials=40,
                              mc_budget=200, fmt="json")

# fixed-seed fer, level_ber, level_rates and mi_estimate_bits: a change to
# the demapper, the construction or the SC decoder that alters any decision
# moves one of them
GOLDEN_POLAR = [
    (SMALL_POLAR, 0.0, [0.0, 0.0], [0.640625, 0.6640625], 1.8658595295256477),
    (SMALL_POLAR_16QAM, 0.275,
     [0.021323529411764706, 0.02214285714285714, 0.029710144927536233,
      0.019444444444444445],
     [0.53125, 0.2734375, 0.5390625, 0.28125], 2.323828034523765),
]


def test_polar_report_schema_and_determinism():
    rep1 = cmd_polar(SMALL_POLAR)
    rep2 = cmd_polar(SMALL_POLAR)
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    jsonschema.validate(rep1, load_schema("polar_report.schema.json"))
    assert rep1["blocklength"] == 128
    assert rep1["trials"] == 40
    assert 0.0 <= rep1["fer"] <= 1.0


@pytest.mark.parametrize("config, fer, level_ber, level_rates, mi",
                         GOLDEN_POLAR, ids=["m2", "m4"])
def test_polar_report_matches_golden(config, fer, level_ber, level_rates, mi):
    rep = cmd_polar(config)
    assert rep["fer"] == fer
    assert rep["level_ber"] == level_ber
    assert rep["level_rates"] == level_rates
    assert rep["mi_estimate_bits"] == pytest.approx(mi, rel=1e-12, abs=0.0)


def test_polar_construction_only_run():
    cfg = RunConfig(m_min=2, blocklength=64, trials=0, mc_budget=100,
                    fmt="json")
    rep = cmd_polar(cfg)
    assert rep["fer"] is None
    assert rep["level_ber"] is None
    assert rep["level_rates"] is not None
    jsonschema.validate(rep, load_schema("polar_report.schema.json"))


def test_polar_report_rate_recomputes_from_its_own_estimate():
    # the codes are sized from the reported estimate, so the report's own
    # numbers give back its sum rate
    rep = cmd_polar(SMALL_POLAR)
    n = rep["blocklength"]
    assert rep["mi_estimate_bits"] == sum(rep["level_mi_bits"])
    assert rep["sum_rate_bits_per_mode"] == round(
        rep["rate_fraction"] * rep["mi_estimate_bits"] * n) / n
