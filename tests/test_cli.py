import argparse
import csv
import importlib.resources
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from thermalcomm import rates
from thermalcomm.cli import (CHI2_COLUMNS, RATES_COLUMNS, RunConfig,
                             _build_parser, cmd_chi2, cmd_constellation,
                             cmd_polar, cmd_rates, main)
from thermalcomm.errors import SupportError, TruncationWarning


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


# every field of `rates --n0 0.5 --m-max 3`, as printed: the thermal rows
# come from the displaced-thermal Fock build, so any change to its
# arithmetic moves a digit here
GOLDEN_THERMAL_RATES = [
    'kind,m,classical_rate_bits,quantum_rate_bits,delta_B,delta_E,chi2_bound,dim,trace_deficit',
    'capacity_C,,3.0807259223521517,,,,,,',
    'gaussian_rate_limit,,,0.9583519765293684,,,,,',
    'equilattice,2,1.9807630447359803,0.22056216149949348,1.0999628776161714,0.36217306258629645,1.6589495893115107,44,1.709743457922741e-14',
    'equilattice,3,2.7328522273672085,0.7265283617635019,0.34787369498494325,0.1160500802190767,0.5006162467569966,50,1.4876988529977098e-14',
    'quantile,2,1.9807630447359803,0.22056216149949348,1.0999628776161714,0.36217306258629645,1.6589495893115107,44,1.709743457922741e-14',
    'quantile,3,2.7328522273672085,0.7265283617635019,0.34787369498494325,0.1160500802190767,0.5006162467569966,50,1.4876988529977098e-14',
    'random_walk,2,1.9807630447359803,0.22056216149949348,1.0999628776161714,0.36217306258629645,1.6589495893115107,44,1.709743457922741e-14',
    'random_walk,3,2.7402253486988477,0.6787250228619905,0.340500573653304,0.06087361998592611,0.4468621612154752,55,2.4202861936828413e-14',
    'gauss_hermite,2,1.9807630447359803,0.22056216149949348,1.0999628776161714,0.36217306258629645,1.6589495893115107,44,1.709743457922741e-14',
    'gauss_hermite,3,2.426213307191605,0.4365674762955223,0.6545126151605465,0.13272811492670034,0.894499211774789,65,3.164135620181696e-14',
]


def test_thermal_rates_table_matches_golden():
    code, text = run_cli(["rates", "--n0", "0.5", "--m-max", "3"])
    assert code == 0
    assert text.splitlines() == GOLDEN_THERMAL_RATES


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


# every field of `chi2 --m-max 16`, as printed: chi2_classical and
# delta_B_bound come from the mpmath kernel double sum and delta_B_actual
# from the coherent-state Fock build, so a change to the order of either
# sum, or to the coherent columns, moves a digit here
GOLDEN_PURE_LOSS_CHI2 = [
    'kind,m,s,chi2_classical,delta_B_bound,delta_B_actual,c_decay',
    'equilattice,2,9.434836021504655,0.8819172705222774,2.541612613090019,1.2175788233011864,0.20148205453303006',
    'equilattice,3,9.434836021504655,0.3567320013912266,0.8407217235990434,0.45828813954923747,0.20148205453303006',
    'equilattice,4,9.434836021504655,0.1839588612993838,0.40175858524933356,0.20337826831802772,0.20148205453303006',
    'equilattice,5,9.434836021504655,0.139794808750035,0.29913220605352886,0.1555661045833461,0.20148205453303006',
    'equilattice,6,9.434836021504655,0.12501547641136918,0.2656598221651,0.14008263779309213,0.20148205453303006',
    'equilattice,7,9.434836021504655,0.11784360618438101,0.24957432788730152,0.1323202783816186,0.20148205453303006',
    'equilattice,8,9.434836021504655,0.11364048987132319,0.2401951406808407,0.12768027911893046,0.20148205453303006',
    'equilattice,9,9.434836021504655,0.110925689648669,0.23415588792137082,0.1246523463313397,0.20148205453303006',
    'equilattice,10,9.434836021504655,0.10905822914095001,0.23001015562525995,0.12255687763592686,0.20148205453303006',
    'equilattice,11,9.434836021504655,0.10771371845568634,0.22702968205492355,0.12104231293026671,0.20148205453303006',
    'equilattice,12,9.434836021504655,0.10671127165632383,0.2248098388111574,0.11991003775398046,0.20148205453303006',
    'equilattice,13,9.434836021504655,0.10594276333388096,0.22310939577058062,0.11904031307663238,0.20148205453303006',
    'equilattice,14,9.434836021504655,0.10534002660898528,0.2217765744239523,0.11835720206239858,0.20148205453303006',
    'equilattice,15,9.434836021504655,0.10485822252342587,0.22071169187762407,0.11781053946994913,0.20148205453303006',
    'equilattice,16,9.434836021504655,0.10446681196491316,0.21984693873193883,0.11736604778972473,0.20148205453303006',
    'quantile,2,9.434836021504655,0.8819172705222774,2.541612613090019,1.2175788233011864,0.20148205453303006',
    'quantile,3,9.434836021504655,0.3567320013912266,0.8407217235990434,0.45828813954923747,0.20148205453303006',
    'quantile,4,9.434836021504655,0.18166257230736843,0.3963264347920667,0.20040453852536222,0.20148205453303006',
    'quantile,5,9.434836021504655,0.11703900543604726,0.24777613966555362,0.1291939765345273,0.20148205453303006',
    'quantile,6,9.434836021504655,0.084607006682393,0.17637235894454048,0.09528500073103138,0.20148205453303006',
    'quantile,7,9.434836021504655,0.06539736382595276,0.13507154284728956,0.07517086001073023,0.20148205453303006',
    'quantile,8,9.434836021504655,0.05282664131265517,0.10844393665768627,0.061834504183695294,0.20148205453303006',
    'quantile,9,9.434836021504655,0.04402622938344232,0.08999076764060811,0.05235133362944413,0.20148205453303006',
    'quantile,10,9.434836021504655,0.03755711950220538,0.07652477622971371,0.04527200483256058,0.20148205453303006',
    'quantile,11,9.434836021504655,0.03262249101738542,0.06630920895495024,0.03979336892797188,0.20148205453303006',
    'quantile,12,9.434836021504655,0.028747472128501626,0.05832136141078223,0.035433722766677285,0.20148205453303006',
    'quantile,13,9.434836021504655,0.025632476379312014,0.05192197660396001,0.031886473996395395,0.20148205453303006',
    'quantile,14,9.434836021504655,0.02307970660878896,0.04669208607472569,0.028947204601091334,0.20148205453303006',
    'quantile,15,9.434836021504655,0.020953620952839497,0.04234629613671426,0.02647442053140102,0.20148205453303006',
    'quantile,16,9.434836021504655,0.01915841274387154,0.03868387026660762,0.024367110256838964,0.20148205453303006',
    'random_walk,2,9.434836021504655,0.8819172705222774,2.541612613090019,1.2175788233011864,0.20148205453303006',
    'random_walk,3,9.434836021504655,0.35487620845213996,0.8356895402296466,0.540306179450616,0.20148205453303006',
    'random_walk,4,9.434836021504655,0.13927782692137106,0.2979539669146815,0.19114629884334566,0.20148205453303006',
    'random_walk,5,9.434836021504655,0.05561380356478823,0.11432050227651931,0.06281109630448943,0.20148205453303006',
    'random_walk,6,9.434836021504655,0.023188309678716323,0.046914317063188694,0.024714249953634297,0.20148205453303006',
    'random_walk,7,9.434836021504655,0.010364542523091063,0.020836508787895086,0.011081736385618263,0.20148205453303006',
    'random_walk,8,9.434836021504655,0.005123147731407083,0.010272542105491987,0.0055921372257613814,0.20148205453303006',
    'random_walk,9,9.434836021504655,0.0028731193431197027,0.005754493500999214,0.0032055503956699713,0.20148205453303006',
    'random_walk,10,9.434836021504655,0.0018351638550237065,0.003673695536422198,0.0020785390149436365,0.20148205453303006',
    'random_walk,11,9.434836021504655,0.0013073884147391808,0.0026164860939453557,0.0014890276621486174,0.20148205453303006',
    'random_walk,12,9.434836021504655,0.0010066487272523187,0.002014310796164716,0.0011443939475901965,0.20148205453303006',
    'random_walk,13,9.434836021504655,0.0008150925826972079,0.0016308495413127838,0.0009211745013687358,0.20148205453303006',
    'random_walk,14,9.434836021504655,0.0006813805278776943,0.0013632253351791596,0.0007643415332569114,0.20148205453303006',
    'random_walk,15,9.434836021504655,0.0005816640051585324,0.0011636663433319619,0.000647525027532619,0.20148205453303006',
    'random_walk,16,9.434836021504655,0.0005039067366237536,0.001008067395246722,0.0005569437018979572,0.20148205453303006',
    'gauss_hermite,2,9.434836021504655,0.8819172705222774,2.541612613090019,1.2175788233011864,0.20148205453303006',
    'gauss_hermite,3,9.434836021504655,0.5821457785386582,1.5031852645476969,0.8701056747677754,0.20148205453303006',
    'gauss_hermite,4,9.434836021504655,0.3918975215648789,0.9373787105384526,0.6124901232411631,0.20148205453303006',
    'gauss_hermite,5,9.434836021504655,0.2660817241994293,0.6029629323517998,0.41800534894729513,0.20148205453303006',
    'gauss_hermite,6,9.434836021504655,0.18115237310586,0.3951209284936047,0.27196237280721275,0.20148205453303006',
    'gauss_hermite,7,9.434836021504655,0.1234141286425126,0.26205930443361586,0.16741597678565204,0.20148205453303006',
    'gauss_hermite,8,9.434836021504655,0.08408307428452437,0.1752361119501856,0.10048633073980578,0.20148205453303006',
    'gauss_hermite,9,9.434836021504655,0.05728085195541919,0.11784279991157702,0.06214768762265598,0.20148205453303006',
    'gauss_hermite,10,9.434836021504655,0.039017615394295484,0.07955760509964813,0.03974482244428483,0.20148205453303006',
    'gauss_hermite,11,9.434836021504655,0.026574776139547025,0.05385577100596108,0.025989659981198607,0.20148205453303006',
    'gauss_hermite,12,9.434836021504655,0.018098596688269936,0.03652475257862453,0.01725353566159786,0.20148205453303006',
    'gauss_hermite,13,9.434836021504655,0.012325198028095336,0.024802306562622438,0.011565638686238121,0.20148205453303006',
    'gauss_hermite,14,9.434836021504655,0.00839309674970013,0.016856637572450085,0.007796907716650704,0.20148205453303006',
    'gauss_hermite,15,9.434836021504655,0.005715234823881635,0.01146313355685538,0.005271723549507357,0.20148205453303006',
    'gauss_hermite,16,9.434836021504655,0.0038916396815711304,0.00779842422255344,0.0035691863010882488,0.20148205453303006',
]


def test_pure_loss_chi2_table_matches_golden():
    code, text = run_cli(["chi2", "--m-max", "16"])
    assert code == 0
    assert text.splitlines() == GOLDEN_PURE_LOSS_CHI2


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


def test_low_photon_number_gap_below_resolution_is_null():
    # at N = 1e-9 the true gap is below 1.4e-19 nats, far under what the
    # eigensolve resolves; a printed value would be rounding noise
    code, text = run_cli(["chi2", "--n", "1e-9", "--m-max", "4"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 12
    for row in rows:
        if row["delta_B_actual"] != "":
            actual = float(row["delta_B_actual"])
            assert 0.0 <= actual <= float(row["delta_B_bound"])


def test_rates_gaps_below_resolution_are_null():
    # the same input in the rate table: eigensolver noise of either sign,
    # and the classical rate above capacity by that noise
    from thermalcomm.rates import GAP_RESOLUTION
    code, text = run_cli(["rates", "--n", "1e-9", "--m-max", "3",
                          "--kinds", "equilattice"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    capacity = float(rows[0]["classical_rate_bits"])
    assert [row["m"] for row in rows[2:]] == ["2", "3"]
    for row in rows[2:]:
        assert row["delta_B"] == "" and row["delta_E"] == ""
        assert float(row["classical_rate_bits"]) <= capacity + GAP_RESOLUTION


def test_rates_and_chi2_below_resolution_are_null():
    # at N = 1e-300 both rates are rounding noise (-0.0 and 4.8e-16 bits
    # against a capacity of 6.4e-298) and every chi-square underflows to
    # 0.0 in the double conversion, which as a bound would assert a gap <= 0
    argv = ["--n", "1e-300", "--m-max", "3", "--kinds", "equilattice"]
    code, text = run_cli(["rates"] + argv)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [row["m"] for row in rows[2:]] == ["2", "3"]
    for row in rows[2:]:
        assert row["classical_rate_bits"] == ""
        assert row["quantum_rate_bits"] == ""
        assert row["chi2_bound"] == ""
    code, text = run_cli(["chi2", "--format", "json"] + argv)
    assert code == 0
    rows = json.loads(text)["rows"]
    assert len(rows) == 2
    for row in rows:
        assert row["chi2_classical"] is None
        assert row["delta_B_bound"] is None
        assert row["delta_B_actual"] is None


def test_negative_quantum_rate_above_resolution_is_kept():
    # a nearly opaque channel: the quantum rate is legitimately negative,
    # while the classical rate is below resolution
    code, text = run_cli(["rates", "--k", "1e-8", "--m-max", "2",
                          "--kinds", "equilattice"])
    assert code == 0
    row = list(csv.DictReader(io.StringIO(text)))[2]
    assert row["classical_rate_bits"] == ""
    assert float(row["quantum_rate_bits"]) == pytest.approx(-2.0, abs=1e-5)
    assert float(row["chi2_bound"]) > 0.0


@pytest.mark.parametrize("command,expect", [("rates", 4), ("chi2", 4),
                                            ("constellation", 0)])
def test_random_walk_beyond_float_binomials_exits_typed(command, expect):
    # binomial weights C(m - 1, i) beyond m = 1024 do not fit a double; at
    # m = 1,050 every weight is still above the smallest subnormal
    with redirect_stderr(io.StringIO()):
        code, text = run_cli([command, "--kinds", "random_walk",
                              "--m-min", "1050", "--m-max", "1050"])
    assert code == expect
    if expect == 4:
        assert text == ""
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 1050
        assert all(float(row["prob"]) > 0.0 for row in rows)
        assert sum(float(row["prob"]) for row in rows) == pytest.approx(1.0)


@pytest.mark.parametrize("kind, m", [("gauss_hermite", 151),
                                     ("random_walk", 1076)])
def test_constellation_with_an_underflowing_weight_exits_3(kind, m):
    # before, each printed prob 0.0 at its outermost points and exited 0
    code, text, err = run_cli_stderr(["constellation", "--kinds", kind,
                                      "--m-min", str(m), "--m-max", str(m),
                                      "--format", "json"])
    assert (code, text) == (3, "")
    assert err == f"numeric failure: {kind} weights underflow at m = {m}\n"


@settings(max_examples=8, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["equilattice", "quantile", "random_walk",
                             "gauss_hermite"]),
       m=st.integers(1000, 2048))
def test_constellation_at_large_m_prints_finite_distributions(kind, m):
    # a weight that underflows to 0 would drop its point: from m = 151 for
    # gauss_hermite and m = 1,076 for random_walk the run exits 3 instead
    underflows = ((kind == "gauss_hermite" and m > 150)
                  or (kind == "random_walk" and m > 1075))
    code, text, err = run_cli_stderr(["constellation", "--kinds", kind,
                                      "--m-min", str(m), "--m-max", str(m)])
    if underflows:
        assert (code, text) == (3, "")
        assert err == f"numeric failure: {kind} weights underflow at m = {m}\n"
        return
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == m
    points = [float(row["point"]) for row in rows]
    probs = [float(row["prob"]) for row in rows]
    assert all(math.isfinite(x) for x in points)
    assert all(np.diff(points) > 0)
    assert all(q > 0.0 for q in probs)
    assert sum(probs) == pytest.approx(1.0)


def test_truncation_error_exit_code():
    # at dim 5 the B-side state loses almost half its trace
    code, text = run_cli(["rates", "--dim", "5", "--m-max", "3",
                          "--kinds", "equilattice"])
    assert code == 4
    assert text == ""


@pytest.mark.parametrize("argv", [
    ["rates", "--dim", "100000", "--m-max", "3", "--kinds", "equilattice"],
    ["chi2", "--n", "2000", "--m-max", "3", "--kinds", "equilattice"],
], ids=["dim_flag", "photon_number"])
def test_dimension_above_max_dim_exits_4(argv):
    # refused before any dim x dim matrix is allocated
    code, text = run_cli(argv)
    assert code == 4
    assert text == ""


@pytest.mark.parametrize("command", ["rates", "chi2"])
def test_non_finite_average_state_exits_3(command):
    # coherent_state's running product overflows past |z|^2 of about 1,424,
    # inside MAX_DIM; the NaN trace would pass the deficit check, and an
    # eigensolve of a NaN diagonal can return finite garbage.  The typed
    # error is all the run reports: numpy's overflow warnings stay inside
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, text, err = run_cli_stderr([command, "--k", "0.9", "--n",
                                          "1900", "--m-max", "2",
                                          "--kinds", "equilattice"])
    assert code == 3
    assert text == ""
    assert err.splitlines() == [
        "numeric failure: non-finite coherent amplitude at |z|^2 = 1539.0"]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_support_error_exits_3(monkeypatch):
    # no argv is known to reach it; it is a numeric failure, not a usage error
    def refuse(rho, sigma):
        raise SupportError("rho has mass outside sigma's numerical support")
    monkeypatch.setattr(rates, "relative_entropy", refuse)
    code, text, err = run_cli_stderr(["chi2", "--m-max", "2",
                                      "--kinds", "equilattice"])
    assert code == 3
    assert text == ""
    assert err.startswith("numeric failure:")


@pytest.mark.parametrize("command, claim", [
    ("rates", "delta_B in nats <= chi2_bound"),
    ("chi2", "delta_B_actual <= delta_B_bound")])
def test_row_above_its_gap_bound_exits_3_naming_it(command, claim):
    # at dim 40 the row's B state is truncated short enough that its gap,
    # 0.0020528 nats, exceeds the proven bound 0.0020143; both tables
    # printed it with exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        code, text, err = run_cli_stderr([
            command, "--kinds", "random_walk", "--m-min", "12",
            "--m-max", "12", "--dim", "40"])
    assert code == 3
    assert text == ""
    assert err.startswith(
        f"numeric failure: row random_walk m=12 breaks {claim}: 0.00205")


def test_row_above_capacity_exits_3_naming_it(monkeypatch):
    # no argv is known to reach it (the digest argvs' rates stay 7.95e-4
    # bits or more below capacity), so the capacity is lowered instead
    from thermalcomm import cli
    monkeypatch.setattr(cli, "capacity_C", lambda p: 0.5)
    code, text, err = run_cli_stderr(["rates", "--m-max", "3",
                                      "--kinds", "equilattice"])
    assert code == 3
    assert text == ""
    # the first row, at m = 2, carries about 2 bits
    assert re.fullmatch(r"numeric failure: row equilattice m=2 breaks "
                        r"classical_rate_bits <= capacity_C: \S+ > 0\.5\n",
                        err), err


@pytest.mark.parametrize("dim", ["0", "-3"])
@pytest.mark.parametrize("n0", ["0", "0.5"])
@pytest.mark.parametrize("command", ["rates", "chi2"])
def test_dimension_below_one_exits_2_naming_dim(command, n0, dim):
    code, text, err = run_cli_stderr([command, "--n0", n0, "--dim", dim,
                                      "--m-max", "2"])
    assert code == 2
    assert text == ""
    assert "dim must be >= 1" in err


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats was over half of the CLI's import time
    import thermalcomm
    src = Path(thermalcomm.__file__).parent.parent
    probe = "import sys, thermalcomm.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "False"


def test_polar_run_loads_neither_scipy_nor_mpmath():
    # importing scipy was most of the polar command's set-up time; only the
    # rates, chi2 and non-uniform constellation paths need scipy or mpmath
    import thermalcomm
    src = Path(thermalcomm.__file__).parent.parent
    probe = ("import io, sys, contextlib, thermalcomm.cli as cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = cli.main(['polar', '--kinds', 'equilattice',\n"
             "                     '--blocklength', '64', '--trials', '8',\n"
             "                     '--mc-budget', '100'])\n"
             "print(code, sorted({k.split('.')[0] for k in sys.modules}\n"
             "                   & {'scipy', 'mpmath'}))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "0 []"


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_dimension_above_max_dim_builds_no_state(monkeypatch):
    # the m = 2 row fits within MAX_DIM, the m = 3 row does not; every row's
    # dimension is resolved before the first state is built
    from thermalcomm import rates
    built = _count_calls(monkeypatch, rates, "ensemble_average_state")
    for command in ("rates", "chi2"):
        code, text = run_cli([command, "--n", "2000", "--m-max", "3",
                              "--kinds", "equilattice"])
        assert (code, text) == (4, "")
    assert built == []


def test_cli_imports_no_private_rates_name():
    # the table pre-check sizes every row through the public
    # rates.ensemble_dim, the one home of the truncation rule
    import ast
    import inspect

    from thermalcomm import cli
    tree = ast.parse(inspect.getsource(cli))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "rates"
                for alias in node.names]
    assert "ensemble_dim" in imported
    assert [name for name in imported if name.startswith("_")] == []


def test_chi2_table_evaluates_each_kernel_once(monkeypatch):
    from thermalcomm import chi2, cli
    from thermalcomm.channel import channel_params
    from thermalcomm.constellations import make_constellation

    # cmd_chi2 looks the kernel up in cli, delta_B_bound in chi2
    direct = _count_calls(monkeypatch, cli, "classical_chi2_kernel")
    in_bound = _count_calls(monkeypatch, chi2, "classical_chi2_kernel")
    rows = cmd_chi2(RunConfig(m_max=4, kinds=["quantile"]))
    assert len(rows) == 3
    assert len(direct) + len(in_bound) == 3
    monkeypatch.undo()
    p = channel_params(0.8, 0.0, 7.0)
    for row in rows:
        bound = chi2.delta_B_bound(p, make_constellation("quantile", row["m"]))
        assert row["delta_B_bound"] == bound


def test_polar_rejects_csv_format():
    code, _ = run_cli(["polar", "--format", "csv", "--blocklength", "64",
                       "--trials", "0", "--mc-budget", "100"])
    assert code == 2


_PHOTONS = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324,
                            1e-300, 1e-9, 1e6, 1e17, 1e300])
_MODERATE = {"k": st.floats(0.05, 1.0), "n0": st.floats(0.0, 3.0),
             "n": st.floats(1e-12, 20.0), "m-max": st.integers(2, 3),
             "dim": st.none() | st.integers(20, 120)}
_EXTREME = {"k": st.sampled_from([0.0, -0.5, 1.5, 1e-300, 1e-160, math.nan]),
            "n0": _PHOTONS, "n": _PHOTONS, "m-max": st.integers(-1, 1),
            "dim": st.sampled_from([-3, 0, 1, 5, 100_000])}


@st.composite
def _table_argv(draw):
    """A rates or chi2 argv; in half the draws one flag takes an extreme
    value."""
    wild = draw(st.sampled_from([None] * len(_MODERATE) + list(_MODERATE)))
    argv = [draw(st.sampled_from(["rates", "chi2"])),
            "--format=" + draw(st.sampled_from(["csv", "json"]))]
    for flag, moderate in _MODERATE.items():
        value = draw(_EXTREME[flag] if flag == wild else moderate)
        if value is not None:
            argv.append(f"--{flag}={value!r}")
    return argv


@settings(max_examples=40, deadline=None, derandomize=True)
@given(argv=_table_argv())
def test_cli_fuzz_exits_typed_with_finite_numbers(argv):
    with redirect_stderr(io.StringIO()):
        code, text = run_cli(argv)
    event(f"exit {code}")
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert text == ""
        return
    if "--format=csv" in argv:
        rows = list(csv.DictReader(io.StringIO(text)))
        cells = [v for row in rows for key, v in row.items()
                 if key != "kind" and v != ""]
        numbers = [float(v) for v in cells]
    else:
        rows = json.loads(text)["rows"]
        numbers = [v for row in rows for v in row.values()
                   if isinstance(v, float)]
    assert rows
    assert all(math.isfinite(x) for x in numbers), argv


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


def run_cli_stderr(argv):
    err = io.StringIO()
    with redirect_stderr(err):
        code, text = run_cli(argv)
    return code, text, err.getvalue()


@pytest.mark.parametrize("which", ["missing", "directory"])
def test_config_file_unreadable_exits_2(tmp_path, which):
    path = tmp_path / "no_such.cfg" if which == "missing" else tmp_path
    code, text, err = run_cli_stderr(["constellation", "--config", str(path)])
    assert code == 2
    assert text == ""
    assert err.startswith("error:") and str(path) in err


def test_config_file_rejects_duplicate_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m_max = 3\n# the later line must not silently win\n"
                   "m-max = 2\n")
    code, text, err = run_cli_stderr(["constellation", "--config", str(cfg)])
    assert code == 2
    assert text == ""
    assert "'m_max'" in err and ":3:" in err and "line 1" in err


@pytest.mark.parametrize("command, line, key", [
    ("constellation", "m_max = x", "m_max"),
    ("rates", "k = 0.8.1", "k"),
    ("constellation", "kinds = equilattice,bogus", "kinds"),
], ids=["int", "float", "kind"])
def test_config_value_of_wrong_type_exits_2_naming_key(tmp_path, command,
                                                       line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, text, err = run_cli_stderr([command, "--config", str(cfg)])
    assert (code, text) == (2, "")
    assert err.startswith("error:") and repr(key) in err
    assert repr(line.partition("=")[2].strip()) in err


def test_out_flag_writes_file(tmp_path):
    dest = tmp_path / "table.csv"
    code, text = run_cli(["rates", "--m-max", "3", "--dim", "40",
                          "--kinds", "quantile", "--out", str(dest)])
    assert code == 0
    assert dest.read_text().startswith(RATES_COLUMNS[0])


def test_out_flag_unwritable_exits_2(tmp_path):
    dest = tmp_path / "no_such_dir" / "x.csv"
    code, text, err = run_cli_stderr(["constellation", "--m-max", "2",
                                      "--out", str(dest)])
    assert code == 2
    assert text == ""
    assert err.startswith("error:") and str(dest) in err
    assert not dest.parent.exists()


# Config-file lines per subcommand: values every key it reads accepts, and
# the kinds of bad line, each drawn on its own so one file can hold exactly
# one of them: a value its flag refuses (wrong type or out of range), a key
# the subcommand does not read (an unknown key, seed, and for constellation
# the keys only the tables read), a line without '=', and a repeated key.
# Good lines use each key at most once.
_TABLE_GOOD = {
    "k": ["0.8", "0.75"], "n0": ["0", "0.5"], "n": ["7", "1e-9"],
    "m_min": ["2"], "m_max": ["2", "3"], "dim": ["40", "5"],
    "kinds": ["equilattice", "quantile,gauss_hermite"],
    "format": ["csv", "json"],
}
_GOOD_VALUES = {
    "rates": _TABLE_GOOD,
    "constellation": {key: _TABLE_GOOD[key]
                      for key in ("m_min", "m_max", "kinds", "format")},
}
_BAD_VALUES = {
    "k": ["1.5", "nan", "high"], "n0": ["-1"], "n": ["0"], "m_min": ["2.5"],
    "m_max": ["x"], "dim": ["0"], "kinds": ["bogus"], "format": ["xml"],
}


def _unread_values(command):
    """Keys the subcommand does not read, each with values its flag would
    accept, so the key alone is wrong."""
    return {"seed": ["-", "7"], "wibble": ["3"],
            **{key: values for key, values in _TABLE_GOOD.items()
               if key not in _GOOD_VALUES[command]}}


def _config_line(key, values):
    return st.tuples(st.sampled_from([key, key.replace("_", "-")]),
                     st.sampled_from(values)).map(
        lambda kv: f"{kv[0]} = {kv[1]}")


@st.composite
def _config_case(draw):
    """A config file and an argv that reads it; the argv always sets
    --m-max, and may set --kinds and --format.  The file often gives a
    flag's key another value, which the flag must override."""
    command = draw(st.sampled_from(["constellation", "rates"]))
    good = _GOOD_VALUES[command]
    keys = draw(st.lists(st.sampled_from(sorted(good)), unique=True,
                         max_size=4))
    lines = [draw(_config_line(key, good[key])) for key in keys]

    def one_in_four():
        return draw(st.sampled_from([False, False, False, True]))

    def insert(line):
        lines.insert(draw(st.integers(0, len(lines))), line)

    unset = sorted(set(good) - set(keys))
    if unset and one_in_four():
        key = draw(st.sampled_from(unset))
        insert(draw(_config_line(key, _BAD_VALUES[key])))
    if one_in_four():
        unread = _unread_values(command)
        key = draw(st.sampled_from(sorted(unread)))
        insert(draw(_config_line(key, unread[key])))
    if one_in_four():
        insert(draw(st.sampled_from(["no equals sign", "m_max 3"])))
    for _ in range(draw(st.integers(0, 2))):
        insert(draw(st.sampled_from(["", "# comment only", "   "])))
    flags = {"--m-max": draw(st.sampled_from(["2", "3"]))}
    if command == "rates" or draw(st.booleans()):
        # one kind keeps a rates run small
        flags["--kinds"] = "equilattice"
    if draw(st.booleans()):
        flags["--format"] = draw(st.sampled_from(["csv", "json"]))
    keys = {line.partition("=")[0].strip().replace("-", "_") for line in lines}
    others = {"m_max": {"2": "3", "3": "2"}, "kinds": {"equilattice": "quantile"},
              "format": {"csv": "json", "json": "csv"}}
    for flag, value in flags.items():
        key = flag[2:].replace("-", "_")
        if key not in keys and draw(st.booleans()):
            insert(f"{key} = {others[key][value]}")
    keyed = [line for line in lines if "=" in line]
    if keyed and one_in_four():
        insert(draw(st.sampled_from(keyed)))  # the same key twice
    return "\n".join(lines) + "\n", command, flags


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_config_case())
def test_config_file_fuzz_exits_typed_and_flags_win(case):
    text_in, command, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write(text_in)
        argv = [command, "--config", cfg]
        for flag, value in flags.items():
            argv += [flag, value]
        code, text, err = run_cli_stderr(argv)
    event(f"exit {code}")
    assert code in (0, 2, 3, 4)
    content = [line.split("#", 1)[0].strip() for line in text_in.splitlines()]
    content = [line for line in content if line]
    keys = [line.partition("=")[0].strip().replace("-", "_")
            for line in content]
    # which kinds of bad line the file holds, and which check stopped it
    reads = _GOOD_VALUES[command]
    keyed = [(key, line.partition("=")[2].strip())
             for key, line in zip(keys, content) if "=" in line]
    held = {"no '='": len(keyed) < len(content),
            "unread key": any(key not in reads for key, _ in keyed),
            "repeated key": len(set(keys)) < len(keys),
            "bad value": any(key in reads and value in _BAD_VALUES[key]
                             for key, value in keyed)}
    event("bad lines: " + (", ".join(k for k, v in held.items() if v)
                           or "none"))
    event("stopped at " + (
        "parse" if "expected 'key = value'" in err or "already set" in err
        else "unread key" if "reads no config key" in err
        else "value" if code == 2 else f"exit {code}"))
    if (any("=" not in line for line in content)
            or set(keys) - set(_GOOD_VALUES[command])
            or len(set(keys)) < len(keys)):
        assert code == 2
    if code != 0:
        assert text == ""
        return
    # without a --format flag the file may set either format
    fmt = flags.get("--format", "json" if text.startswith("{") else "csv")
    rows = (json.loads(text)["rows"] if fmt == "json"
            else list(csv.DictReader(io.StringIO(text))))
    rows = [row for row in rows if row["m"] not in (None, "")]
    assert max(int(row["m"]) for row in rows) == int(flags["--m-max"])
    if "--kinds" in flags:
        assert {row["kind"] for row in rows} == {flags["--kinds"]}


# -------------------------------------------------------------- flag contract

_TABLE_FLAGS = {"--config", "--k", "--n0", "--n", "--kinds", "--m-min",
                "--m-max", "--dim", "--out", "--format"}
FLAGS = {
    "rates": _TABLE_FLAGS,
    "chi2": _TABLE_FLAGS,
    "constellation": {"--config", "--kinds", "--m-min", "--m-max", "--out",
                      "--format"},
    "polar": {"--config", "--k", "--n0", "--n", "--kinds", "--m-min",
              "--seed", "--out", "--blocklength", "--trials", "--mc-budget",
              "--rate-fraction"},
}
# a valid value for each flag that some subcommand does not read
_UNREAD_VALUE = {"--k": "0.8", "--n0": "0", "--n": "7", "--m-max": "2",
                 "--dim": "40", "--seed": "1", "--format": "json",
                 "--blocklength": "16", "--trials": "0", "--mc-budget": "100",
                 "--rate-fraction": "0.5"}
# a cheap run of each subcommand, which exits 0
_BASE_ARGV = {
    "rates": ["--m-max", "2", "--kinds", "equilattice"],
    "chi2": ["--m-max", "2", "--kinds", "equilattice"],
    "constellation": ["--m-max", "2"],
    "polar": ["--blocklength", "16", "--trials", "0", "--mc-budget", "100"],
}


def _registered_flags():
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in sp._actions for s in a.option_strings}
            - {"-h", "--help"} for name, sp in sub.choices.items()}


def test_each_subcommand_registers_only_the_flags_it_reads():
    assert _registered_flags() == FLAGS
    assert sum(len(flags) for flags in FLAGS.values()) == 38


def test_public_dataclasses_take_only_their_inputs():
    # every field a constructor takes is one the object cannot work out
    # for itself; derived values are properties or computed on
    # construction, so a new init field here needs a reason
    import dataclasses

    import thermalcomm as tc
    init_fields = {
        cls.__name__: [f.name for f in dataclasses.fields(cls) if f.init]
        for cls in (tc.ChannelParams, tc.RealConstellation,
                    tc.ComplexConstellation, tc.DensityOperator, tc.Ensemble,
                    tc.EnsembleRates, tc.PolarCode, tc.InducedChannel,
                    RunConfig)}
    assert init_fields == {
        "ChannelParams": ["k", "N0", "N"],
        "RealConstellation": ["points", "probs", "kind"],
        "ComplexConstellation": ["points", "probs"],
        "DensityOperator": ["matrix"],
        "Ensemble": ["probs", "centers", "width"],
        "EnsembleRates": ["classical", "quantum", "delta_B", "delta_E",
                          "dim", "trace_deficit"],
        "PolarCode": ["n", "frozen"],
        "InducedChannel": ["params", "amplitudes"],
        "RunConfig": ["k", "n0", "n", "kinds", "m_min", "m_max", "dim",
                      "seed", "out", "format", "blocklength", "trials",
                      "mc_budget", "rate_fraction"],
    }
    assert sum(len(names) for names in init_fields.values()) == 36


def test_array_dataclasses_compare_and_hash_by_identity():
    # a generated field-wise == would take the truth value of an array,
    # and hash() would hash one; the classes holding arrays go by identity
    import thermalcomm as tc
    from thermalcomm.polar import InducedChannel, PolarCode

    p = tc.channel_params(0.8, 0.5, 7.0)

    def builds():
        R = tc.make_constellation("quantile", 4)
        Q = tc.product_constellation(R, p.N)
        return (R, Q, tc.thermal_state(0.5, 4), tc.build_ensemble(p, Q, "B"),
                PolarCode(n=4, frozen=np.array([0])),
                InducedChannel(p, np.array([-1.0, 1.0])))

    for a, b in zip(builds(), builds()):
        assert a == a and a != b
        assert len({a, b}) == 2
    assert p == tc.channel_params(0.8, 0.5, 7.0)
    assert hash(p) == hash(tc.channel_params(0.8, 0.5, 7.0))


def _unread(command):
    return sorted(set().union(*FLAGS.values()) - FLAGS[command])


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_unread_flag_exits_2(command):
    assert run_cli([command] + _BASE_ARGV[command])[0] == 0
    for flag in _unread(command):
        code, text, _ = run_cli_stderr(
            [command] + _BASE_ARGV[command] + [flag, _UNREAD_VALUE[flag]])
        assert (code, text) == (2, ""), flag


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_unread_config_key_exits_2_naming_it(tmp_path, command):
    cfg = tmp_path / "run.cfg"
    for flag in _unread(command):
        key = flag[2:].replace("-", "_")
        cfg.write_text(f"{key} = {_UNREAD_VALUE[flag]}\n")
        code, text, err = run_cli_stderr(
            [command, "--config", str(cfg)] + _BASE_ARGV[command])
        assert (code, text) == (2, ""), key
        assert repr(key) in err


@pytest.mark.parametrize("argv", [
    ["rates", "--kind", "quantile", "--m-max", "2"],
    ["chi2", "--form=json", "--m-max", "2", "--kinds", "equilattice"],
    ["polar", "--block", "16", "--mc", "100", "--trials", "0"],
    ["constellation", "--k", "5"],  # was read as --kinds 5
], ids=["rates", "chi2", "polar", "constellation"])
def test_flag_abbreviations_exit_2(argv):
    code, text, _ = run_cli_stderr(argv)
    assert (code, text) == (2, "")


def test_polar_reads_one_kind(tmp_path):
    argv = ["polar"] + _BASE_ARGV["polar"]
    code, text, err = run_cli_stderr(argv + ["--kinds", "quantile",
                                             "random_walk"])
    assert (code, text) == (2, "")
    assert "--kinds" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kinds = quantile,random_walk\n")
    code, text, err = run_cli_stderr(argv + ["--config", str(cfg)])
    assert (code, text) == (2, "")
    assert "--kinds" in err


def test_main_returns_usage_code_instead_of_raising():
    code, _, err = run_cli_stderr(["constellation", "--m-m", "3"])
    assert code == 2 and "--m-m" in err
    code, text, _ = run_cli_stderr(["rates", "--help"])
    assert code == 0 and "--m-max" in text


def test_readme_lists_each_subcommand_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.findall(r"^- `(\w+)`: `([^`]*)`$", readme, re.M)
    assert {name: set(flags.split()) for name, flags in listed} == \
        _registered_flags()


# -------------------------------------------------------------- polar report

SMALL_POLAR = RunConfig(m_min=2, blocklength=128, trials=40, mc_budget=200)
SMALL_POLAR_16QAM = RunConfig(m_min=4, blocklength=128, trials=40,
                              mc_budget=200)

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
    cfg = RunConfig(m_min=2, blocklength=64, trials=0, mc_budget=100)
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


_POLAR_MODERATE = {
    "k": st.floats(0.3, 1.0), "n0": st.floats(0.0, 2.0),
    "n": st.floats(0.5, 20.0),
    "kinds": st.sampled_from(["equilattice", "quantile"]),
    "m-min": st.sampled_from([2, 4]),
    "blocklength": st.sampled_from([16, 32, 64]),
    "trials": st.integers(1, 16), "mc-budget": st.integers(100, 200),
    "rate-fraction": st.floats(0.05, 0.95),
    "seed": st.integers(0, 10_000)}
_POLAR_EXTREME = {
    "k": st.sampled_from([1e-300, 1e-3, math.nan]),
    "n0": _PHOTONS, "n": _PHOTONS,
    "kinds": st.sampled_from(["random_walk", "gauss_hermite"]),
    "m-min": st.sampled_from([3, 8]),
    "blocklength": st.sampled_from([0, 1, 2, 48]),
    "trials": st.sampled_from([-5, -1, 0]),
    "mc-budget": st.sampled_from([-1, 0, 99]),
    "rate-fraction": st.sampled_from([math.nan, -0.1, 0.0, 1.0, 2.0]),
    "seed": st.sampled_from([-1, 2 ** 63])}


@st.composite
def _polar_argv(draw):
    """A small polar argv; in half the draws one flag takes an extreme
    value."""
    wild = draw(st.sampled_from([None] * len(_POLAR_MODERATE)
                                + list(_POLAR_MODERATE)))
    argv = ["polar"]
    for flag, moderate in _POLAR_MODERATE.items():
        value = draw(_POLAR_EXTREME[flag] if flag == wild else moderate)
        argv.append(f"--{flag}={value}")
    return argv


def _numbers(doc):
    if isinstance(doc, dict):
        return [x for v in doc.values() for x in _numbers(v)]
    if isinstance(doc, list):
        return [x for v in doc for x in _numbers(v)]
    return [doc] if isinstance(doc, float) else []


def _run_polar(argv):
    """Run a polar argv; on exit 0, check the report against the schema and
    that every number in it is finite.  Returns the exit code and stderr."""
    err = io.StringIO()
    with redirect_stderr(err):
        code, text = run_cli(argv)
    assert code in (0, 2, 3, 4), argv
    if code != 0:
        assert text == ""
    else:
        report = json.loads(text)
        jsonschema.validate(report, load_schema("polar_report.schema.json"))
        assert all(math.isfinite(x) for x in _numbers(report)), argv
    return code, err.getvalue()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(argv=_polar_argv())
def test_polar_fuzz_exits_typed_with_valid_report(argv):
    code, _ = _run_polar(argv)
    event(f"exit {code}")


@pytest.mark.parametrize("flag, value, code, named", [
    ("trials", "-1", 2, "trials"),
    ("trials", "0", 0, None),
    ("seed", "-1", 2, "seed"),
    ("blocklength", "0", 2, "blocklength"),
    ("blocklength", "1", 0, None),
    ("blocklength", "48", 2, "blocklength"),
    ("m-min", "3", 2, "m"),
    ("m-min", "16", 0, None),  # above the default m_max; polar reads none
    ("rate-fraction", "nan", 2, "rate"),
    ("rate-fraction", "0", 0, None),
    ("rate-fraction", "2", 2, "rate"),
    ("kinds", "random_walk", 2, "kind"),
    ("n0", "1e6", 0, None),
    ("n0", "1e300", 2, "N0"),
])
def test_polar_extreme_flag(flag, value, code, named):
    got, err = _run_polar(["polar", "--blocklength", "32", "--trials", "8",
                           "--mc-budget", "100", f"--{flag}", value])
    assert got == code, err
    if named:
        assert named in err


@pytest.mark.parametrize("value", ["nan", "-0.1", "inf", "-inf"])
def test_polar_rate_fraction_refused_before_estimate(monkeypatch, value):
    from thermalcomm import cli
    estimates = _count_calls(monkeypatch, cli, "estimate_level_mi")
    code, err = _run_polar(["polar", "--blocklength", "32", "--trials", "8",
                            "--mc-budget", "100", f"--rate-fraction={value}"])
    assert code == 2
    assert "--rate-fraction" in err
    assert estimates == []


@pytest.mark.parametrize("flag, value", [
    ("--blocklength", "48"), ("--blocklength", "0"), ("--mc-budget", "99")])
def test_polar_construction_flags_refused_before_estimate(monkeypatch, flag,
                                                          value):
    from thermalcomm import cli
    estimates = _count_calls(monkeypatch, cli, "estimate_level_mi")
    code, err = _run_polar(["polar", "--blocklength", "32", "--trials", "8",
                            "--mc-budget", "100", f"{flag}={value}"])
    assert code == 2
    assert flag in err
    assert estimates == []


def test_polar_rate_fraction_too_large_names_flag():
    # the sum rate it gives is only known after the estimate
    code, err = _run_polar(["polar", "--blocklength", "32", "--trials", "8",
                            "--mc-budget", "100", "--rate-fraction", "2"])
    assert code == 2
    assert "--rate-fraction" in err
