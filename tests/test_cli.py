import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import openblas_core
from digest_oracle import digest_inputs

from dualnorm import cli, dualmodel, duality, inequalities, interpolation, matcore
from dualnorm.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    SUITES,
    ConfigError,
    SuiteConfig,
    emit_report,
    main,
    run_suite,
)
from dualnorm.dualmodel import (
    decode_field,
    mix_seed,
    parse_dual_arg,
    preset_dual,
    random_field,
    random_stacks,
)
from dualnorm.norms import ExponentP, field_norms
from dualnorm.report import (
    TOL_REL,
    CheckReport,
    check_report,
    equality_report,
    inequality_report,
    reports_from_json,
    reports_to_csv,
    reports_to_json,
    tolerance,
)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def small_config(suite="clarkson", **kw):
    base = dict(
        suite=suite,
        dual=preset_dual("s3"),
        p_list=(ExponentP(1.5),),
        family="sch",
        trials=5,
        seed=1,
    )
    base.update(kw)
    return SuiteConfig(**base)


def test_run_suite_clarkson_counts_and_passes():
    reports = run_suite(small_config(trials=10))
    assert len(reports) == 10
    assert all(r.passed for r in reports)


def test_run_suite_is_deterministic():
    a = reports_to_json(run_suite(small_config(suite="duality", trials=3)))
    b = reports_to_json(run_suite(small_config(suite="duality", trials=3)))
    assert a == b


def test_run_suite_all_is_stable_and_sorted():
    cfg = small_config(suite="all", trials=2, p_list=(ExponentP(1.5), ExponentP(2.0)))
    reports = run_suite(cfg)
    keys = [(r.suite, r.case_id) for r in reports]
    assert keys == sorted(keys)
    assert {r.suite for r in reports} == set(SUITES)
    again = run_suite(cfg)
    assert reports_to_json(reports) == reports_to_json(again)


def test_run_suite_unknown_name():
    with pytest.raises(ConfigError):
        run_suite(small_config(suite="nonsense"))


def test_suite_config_validation():
    with pytest.raises(ConfigError):
        small_config(trials=0)
    with pytest.raises(ConfigError):
        small_config(p_list=())
    with pytest.raises(ConfigError):
        small_config(family="weird")


@pytest.mark.parametrize(
    "kw",
    [dict(trials=True), dict(seed=True), dict(seed=1.5), dict(trials=2.5), dict(seed="7"),
     dict(p_list=(True,)),
     # text is not a list of exponents, a bool is not a tolerance, a name is not a model
     dict(p_list="23"), dict(p_list="1.5"), dict(p_list=b"2"), dict(p_list=1.5),
     dict(tol_override=True), dict(tol_override="1e-6"), dict(tol_override=[1e-6]),
     dict(tol_override=1 + 0j), dict(dual="s3"), dict(dual=None)],
)
def test_suite_config_rejects_numbers_of_the_wrong_kind(kw):
    with pytest.raises(ConfigError):
        small_config(**kw)


def test_suite_config_keeps_integral_trials_and_seed_as_ints():
    cfg = small_config(trials=np.int64(2), seed=np.int32(3))
    assert (cfg.trials, cfg.seed) == (2, 3) and type(cfg.trials) is type(cfg.seed) is int


@pytest.mark.parametrize("p", ["1e400", "abc", "0.5"])
def test_suite_config_malformed_exponent_is_config_error(p, capsys):
    with pytest.raises(ConfigError, match="exponent"):
        SuiteConfig(suite="norms", dual=parse_dual_arg("s3"), p_list=(p,))
    assert main(["verify", "norms", "--dual", "s3", "--p", p, "--trials", "1"]) == EXIT_CONFIG_ERROR
    assert "Traceback" not in capsys.readouterr().err


def test_report_invariant_passed_iff_slack_above_tol():
    reports = run_suite(small_config(suite="all", trials=2))
    for r in reports:
        assert r.passed == (r.slack >= -r.tol)


def test_report_json_roundtrip(tmp_path):
    reports = run_suite(small_config(trials=4))
    path = tmp_path / "rep.json"
    emit_report(reports, "json", str(path))
    back = reports_from_json(path.read_text())
    assert back == reports


def test_report_inf_exponent_serialization():
    rep = inequality_report("s", "c", math.inf, 1.0, 2.0, ("ab",), "x")
    d = rep.as_dict()
    assert d["p"] == "inf"
    assert CheckReport.from_dict(json.loads(json.dumps(d))) == rep


def test_digest_encodes_fields_in_wire_format():
    h1, h2 = random_field(preset_dual("s3"), 1), random_field(preset_dual("s3"), 2)
    assert digest_inputs(h1) != digest_inputs(h2)
    assert digest_inputs([h1, h2]) != digest_inputs(h1, h2)
    with pytest.raises(TypeError):
        digest_inputs(object())


def test_digest_of_a_batch_raises_every_time():
    batch = random_stacks(preset_dual("s3"), 1, rows=2)
    for _ in range(2):
        with pytest.raises(ValueError, match="batch"):
            digest_inputs(batch)
        with pytest.raises(ValueError, match="batch"):
            digest_inputs([random_field(preset_dual("s3"), 1), batch])


def test_only_field_random_encodes_fields(tmp_path, monkeypatch):
    encoded = []
    encode = dualmodel.encode_field
    counting = lambda f: encoded.append(f) or encode(f)
    monkeypatch.setattr(dualmodel, "encode_field", counting)
    monkeypatch.setattr(cli, "encode_field", counting)
    argv = ["verify", "all", "--dual", "custom(16,32)", "--p", "1.5,2,3", "--family", "both",
            "--trials", "2", "--out", str(tmp_path / "r.json")]
    assert main(argv) == EXIT_OK
    assert len(encoded) == 0  # digests hash block bytes
    path = tmp_path / "f.json"
    assert main(["field", "random", "--dual", "s3", "--out", str(path)]) == EXIT_OK
    assert len(encoded) == 1
    # the written field digests exactly like the field that was drawn
    doc = json.loads(path.read_text())
    assert digest_inputs(decode_field(doc["field"], preset_dual("s3"))) == digest_inputs(encoded[0])


def test_constructors_derive_tolerance_and_digest():
    assert tolerance(0.5) == TOL_REL
    assert tolerance(-3.0, 1e-6) == tolerance(3.0, 1e-6) == 3e-6
    h = random_field(preset_dual("s3"), 1)
    rep = inequality_report("s", "c", 2.0, 4.0, 3.0, (h, 2.0), "x")
    assert rep.tol == 3.0 * TOL_REL and rep.inputs_digest == digest_inputs(h, 2.0)
    assert not rep.passed
    rep = equality_report("s", "c", 2.0, 1.0, -5.0, (), "x", rel=1e-3, scale=-20.0)
    assert rep.tol == tolerance(20.0, 1e-3) and rep.inputs_digest == digest_inputs()
    rep = check_report("s", "c", 2.0, 1.0, -5.0, -1e-3, (h,), "x", rel=1e-3)
    assert rep.tol == 5e-3 and rep.passed and rep.inputs_digest == digest_inputs(h)


def test_emit_csv_empty_and_failing(tmp_path):
    path = tmp_path / "rep.csv"
    emit_report([], "csv", str(path))
    text = path.read_text()
    assert text.splitlines()[0].startswith("suite,case_id,p,")
    assert len(text.splitlines()) == 1

    failing = equality_report("s", "c", 2.0, 1.0, 5.0, ("ab",), "x")
    assert not failing.passed
    emit_report([failing], "csv", str(path))
    rows = path.read_text().splitlines()
    assert len(rows) == 2 and "False" in rows[1]


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ConfigError):
        emit_report([], "xml", str(tmp_path / "rep.xml"))


def test_byte_identical_report_files(tmp_path):
    cfg = small_config(suite="two_point", trials=6)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(run_suite(cfg), "json", str(p1))
    emit_report(run_suite(cfg), "json", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# -- command line ----------------------------------------------------------------


def test_main_verify_ok(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(
        [
            "verify", "clarkson", "--dual", "s3", "--p", "1.5", "--trials", "5",
            "--seed", "1", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert "checks passed" in capsys.readouterr().out
    assert out.exists() and reports_from_json(out.read_text())


def test_main_verify_fraction_and_inf_exponents(tmp_path):
    out = tmp_path / "rep.json"
    code = main(
        [
            "verify", "holder", "--dual", "torus(4)", "--p", "3/2,inf",
            "--trials", "2", "--seed", "0", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert any(r.p == math.inf for r in reports_from_json(out.read_text()))


def test_main_verify_holder_where_conjugate_reciprocals_round_above_one():
    # 1/p + 1/p.conjugate() rounds to 1 + 2^-52 at p = 10.8 (and r to just below 1)
    assert main(["verify", "holder", "--dual", "s3", "--p", "10.8", "--trials", "2"]) == EXIT_OK


def test_main_bad_preset_is_config_error(capsys):
    code = main(["verify", "clarkson", "--dual", "torus(zero)", "--trials", "2"])
    assert code == EXIT_CONFIG_ERROR
    assert "error:" in capsys.readouterr().err
    assert main(["verify", "clarkson", "--dual", "torus", "--trials", "2"]) == EXIT_CONFIG_ERROR
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["1/0", "2,0/0"])
def test_main_exponent_with_zero_denominator_is_config_error(p, capsys):
    code = main(["verify", "norms", "--dual", "s3", "--p", p, "--trials", "1"])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# Every exponent in [1, inf] the paper covers, from just above 1 to far beyond
# the 1024 at which a raw 2^p or v^p overflows binary64.
GATE_EXPONENTS = "1,1.0001,1.001,1.01,200,400,1100,1e6,inf"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dual", ["s3", "torus(3)", "su2_trunc(4)", "custom(1,3)"])
def test_every_valid_exponent_passes_without_overflow(dual, tmp_path, capsys):
    out = tmp_path / "rep.json"
    argv = ["verify", "all", "--dual", dual, "--p", GATE_EXPONENTS, "--trials", "2"]
    argv += ["--out", str(out)]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err and "FAIL" not in captured.out
    reports = reports_from_json(out.read_text())
    assert reports and all(r.passed for r in reports)
    assert {r.p for r in reports} >= {1.0001, 1100.0, 1e6, math.inf}


@pytest.mark.parametrize(
    "suite, dual, p",
    [("duality", "s3", "4503599627370496"), ("interpolation", "custom(1,2)", "1.0000000000000002")],
)
def test_extreme_finite_exponents_pass(suite, dual, p, capsys):
    # 2^52 and 1 + 2^-52: the extremizer and the witness raise singular values to
    # powers near 2^52, and every check still passes at its pinned tolerance
    assert main(["verify", suite, "--dual", dual, "--p", p, "--trials", "1"]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("p", ["1e17", "1.5,9007199254740994", "4503599627370497", "1e400"])
def test_main_exponent_above_2_pow_52_is_config_error(p, capsys):
    # p - 1 rounds to p above 2^53, so p would have conjugate 1; interpolation takes 2p
    code = main(["verify", "interpolation", "--dual", "s3", "--p", p, "--trials", "1"])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "inf" in err and "Traceback" not in err
    with pytest.raises(ConfigError):
        small_config(p_list=(ExponentP(1e17),))
    assert small_config(p_list=(ExponentP(2.0**52), math.inf)).p_list[-1].is_inf


def test_repeated_exponents_run_once(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "norms", "--dual", "s3", "--trials", "1", "--out"]
    assert main([*argv, str(a), "--p", "1.5,3/2,2"]) == EXIT_OK
    assert main([*argv, str(b), "--p", "1.5,2"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    ids = [r.case_id for r in reports_from_json(a.read_text())]
    assert len(ids) == len(set(ids))
    repeated = small_config(p_list=("2", 2.0, "4/2", "3", "2"))
    assert repeated.p_list == (ExponentP(2.0), ExponentP(3.0))


def test_main_unwritable_output_is_config_error(tmp_path):
    code = main(
        [
            "verify", "clarkson", "--dual", "s3", "--p", "1.5", "--trials", "2",
            "--out", str(tmp_path / "no" / "such" / "dir" / "rep.json"),
        ]
    )
    assert code == EXIT_CONFIG_ERROR


def test_main_tol_override_can_force_failures(capsys):
    # a tolerance far below binary64 rounding rejects inexact equalities: exit code 1
    code = main(
        ["verify", "adjoint", "--dual", "s3", "--p", "2", "--trials", "2", "--tol", "1e-300"]
    )
    assert code == EXIT_CHECK_FAILED
    assert "FAIL" in capsys.readouterr().out


# --tol scales each tolerance by TOL / 1e-10: above about 1.8e298 that factor is
# inf, and an exact check's tolerance (rel=0, as convexity_bins) would be 0 * inf = nan
@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "2e298"])
def test_main_rejects_bad_tolerance(tol, capsys):
    code = main(["verify", "adjoint", "--dual", "s3", "--p", "2", "--trials", "2", "--tol", tol])
    assert code == EXIT_CONFIG_ERROR
    assert "error:" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        small_config(tol_override=float(tol))


def test_main_calls_share_one_parser_but_not_its_arguments(tmp_path, monkeypatch, capsys):
    assert cli._build_parser() is cli._build_parser()
    argv = ["verify", "norms", "--dual", "s3", "--p", "2", "--trials", "1"]

    def report(seed):
        cfg = SuiteConfig(suite="norms", dual=preset_dual("s3"), p_list=("2",), family="both",
                          trials=1, seed=seed)
        return reports_to_json(run_suite(cfg)).encode()

    first, second, third = (tmp_path / f"{name}.json" for name in ("first", "second", "third"))
    monkeypatch.setenv("DUALNORM_SEED", "6")
    assert main([*argv, "--seed", "5", "--out", str(first)]) == EXIT_OK
    # no --seed: the seed falls back to DUALNORM_SEED, not to the last call's 5
    assert main([*argv, "--out", str(second)]) == EXIT_OK
    # no --out: nothing is written, neither to the last call's file nor anywhere else
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(argv) == EXIT_OK
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    monkeypatch.delenv("DUALNORM_SEED")
    assert main([*argv, "--out", str(third)]) == EXIT_OK
    assert first.read_bytes() == report(5)
    assert second.read_bytes() == report(6)
    assert third.read_bytes() == report(0)
    assert len({first.read_bytes(), second.read_bytes(), third.read_bytes()}) == 3

    # help text: the cached parser prints what a freshly built one prints, every time
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli._build_parser.__wrapped__().parse_args(["verify", "--help"])
    fresh = capsys.readouterr().out
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0 and capsys.readouterr().out == fresh


def test_main_field_random_and_show(tmp_path, capsys):
    path = tmp_path / "field.json"
    assert main(["field", "random", "--dual", "su2_trunc(3)", "--seed", "9", "--out", str(path)]) == EXIT_OK
    doc = json.loads(path.read_text())
    assert doc["dual"]["name"] == "su2_trunc(3)"
    assert len(doc["field"]["blocks"]) == 3
    assert main(["field", "show", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "su2_trunc(3)" in out and "sch-2 norm" in out


@pytest.mark.parametrize("seed", ["-3", str(2**128)])
def test_main_field_random_seed_outside_keys_is_config_error(seed, capsys):
    # stream keys lie in [0, 2^128)
    assert main(["field", "random", "--dual", "s3", "--seed", seed]) == EXIT_CONFIG_ERROR
    assert "error:" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(*args):
        argv = [sys.executable, "-m", "dualnorm", "verify", "norms", "--trials", "1", *args]
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)

    ok = run("--dual", "s3")
    assert ok.returncode == EXIT_OK, ok.stderr
    assert "checks passed" in ok.stdout
    bad = run("--dual", "nosuch(3)")
    assert bad.returncode == EXIT_CONFIG_ERROR
    assert "error:" in bad.stderr and "Traceback" not in bad.stderr


def test_main_env_seed_default(tmp_path, monkeypatch):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("DUALNORM_SEED", "77")
    main(["field", "random", "--dual", "s3", "--out", str(p1)])
    monkeypatch.delenv("DUALNORM_SEED")
    main(["field", "random", "--dual", "s3", "--seed", "77", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_main_field_show_wrong_block_shape_is_config_error(tmp_path, capsys):
    path = tmp_path / "field.json"
    assert main(["field", "random", "--dual", "s3", "--seed", "3", "--out", str(path)]) == EXIT_OK
    doc = json.loads(path.read_text())
    doc["field"]["blocks"][2] = [[[1.0, 0.0]]]  # the std entry has dim 2
    path.write_text(json.dumps(doc))
    assert main(["field", "show", str(path)]) == EXIT_CONFIG_ERROR
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    ["[1, 2]", "5", '"dual"', '{"dual": {"name": "s3", "entries": [{"label": "triv", "dim": 1}, '
     '{"label": "sgn", "dim": 1}, {"label": "std", "dim": 2}]}, "field": [1]}'],
    ids=["list", "number", "string", "field_list"],
)
def test_main_field_show_non_object_is_config_error(doc, tmp_path, capsys):
    path = tmp_path / "field.json"
    path.write_text(doc)
    assert main(["field", "show", str(path), "--dual", "s3"]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.fixture
def no_draw(monkeypatch):
    """Make every draw the CLI can reach fail: a rejected model must not reach one."""

    def draw(*args):
        raise AssertionError("a rejected model must not reach a draw")

    for name in ("random_field", "random_stacks"):
        monkeypatch.setattr(cli, name, draw)


def test_main_oversized_block_is_config_error(no_draw, capsys):
    big = "custom(1,300)"
    assert main(["verify", "norms", "--dual", big, "--trials", "1"]) == EXIT_CONFIG_ERROR
    assert main(["field", "random", "--dual", big]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.count("error:") == 2


@pytest.mark.parametrize("dual", ["s3(1)", "s3()"])
def test_main_s3_with_an_argument_is_config_error(dual, no_draw, capsys):
    assert main(["field", "random", "--dual", dual]) == EXIT_CONFIG_ERROR
    assert main(["verify", "norms", "--dual", dual, "--trials", "1"]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "no argument" in err


@pytest.mark.parametrize(
    "option",
    [
        ("--dual", "custom(1,,2)"), ("--dual", "custom(1,2,)"), ("--dual", "custom(,1)"),
        ("--dual", "torus(1_0)"), ("--dual", "su2_trunc(0_3)"), ("--dual", "torus(\u0663)"),
        ("--p", "1.5,,2"), ("--p", "1.5,2,"), ("--p", ",2"), ("--p", ""),
    ],
    ids=lambda option: f"{option[0][2:]}={option[1]}",
)
def test_main_malformed_list_item_is_config_error(option, no_draw, capsys):
    assert main(["verify", "norms", "--trials", "1", *option]) == EXIT_CONFIG_ERROR
    if option[0] == "--dual":
        assert main(["field", "random", *option]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "doc",
    [
        {"name": "x", "entries": [{"label": 1, "dim": 1}, {"label": "1", "dim": 2}]},
        {"name": None, "entries": [{"label": "a", "dim": 1}]},
    ],
    ids=["int_label", "null_name"],
)
def test_main_model_with_a_non_string_name_or_label_is_config_error(doc, no_draw, tmp_path, capsys):
    dual = tmp_path / "model.json"
    dual.write_text(json.dumps(doc))
    assert main(["verify", "norms", "--dual", str(dual), "--trials", "1"]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "not a JSON string" in err and "Traceback" not in err


def test_main_field_random_out_holds_the_printed_bytes(tmp_path, capsys):
    argv = ["field", "random", "--dual", "su2_trunc(3)", "--seed", "4"]
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out
    path = tmp_path / "f.json"
    assert main([*argv, "--out", str(path)]) == EXIT_OK
    assert path.read_bytes() == printed.encode("utf-8")
    assert main([*argv, "--out", str(tmp_path / "no" / "f.json")]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("error: cannot write a field to ")


def test_main_oversized_entry_count_is_config_error(capsys):
    start = time.perf_counter()
    assert main(["verify", "norms", "--dual", "torus(100000000)", "--trials", "1"]) == EXIT_CONFIG_ERROR
    assert time.perf_counter() - start < 1.0  # rejected before any entry is built
    assert capsys.readouterr().err.startswith("error:")


def test_main_oversized_field_is_config_error(no_draw, tmp_path, capsys):
    # every dim and the entry count are in range, but one field would take 4 GiB
    doc = {"name": "big", "entries": [{"label": f"e{i}", "dim": 256} for i in range(4096)]}
    with pytest.raises(ValueError, match="entries"):
        dualmodel.decode_model(doc)
    dual = tmp_path / "big.json"
    dual.write_text(json.dumps(doc))
    assert main(["verify", "norms", "--dual", str(dual), "--trials", "1"]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("error:")
    assert sum(d * d for d in parse_dual_arg("su2_trunc(256)").dims) == 5_625_216


def test_main_overflowing_model_dim_is_config_error(tmp_path, capsys):
    model = '{"name": "big", "entries": [{"label": "a", "dim": 1e400}]}'
    dual = tmp_path / "big.json"
    dual.write_text(model)
    assert main(["verify", "norms", "--dual", str(dual), "--trials", "1"]) == EXIT_CONFIG_ERROR
    field = tmp_path / "field.json"
    field.write_text('{"dual": %s, "field": {"model": "big", "blocks": []}}' % model)
    assert main(["field", "show", str(field)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.count("error:") == 2


S3_ENTRIES = '[{"label": "triv", "dim": 1}, {"label": "sgn", "dim": 1}, {"label": "std", "dim": %s}]'


@pytest.mark.parametrize("dim", ["2.5", '"2"', "true"], ids=["float", "string", "bool"])
def test_main_malformed_model_dim_is_config_error(dim, tmp_path, capsys):
    model = '{"name": "s3", "entries": %s}' % (S3_ENTRIES % dim)
    dual = tmp_path / "model.json"
    dual.write_text(model)
    assert main(["verify", "norms", "--dual", str(dual), "--trials", "1"]) == EXIT_CONFIG_ERROR
    field = tmp_path / "field.json"
    field.write_text('{"dual": %s, "field": {"model": "s3", "blocks": []}}' % model)
    assert main(["field", "show", str(field)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "Traceback" not in err


@pytest.mark.parametrize("entry", ["[true, 0.0]", "[Infinity, 0.0]", "[0.0, NaN]"])
def test_main_field_show_bad_entry_is_config_error(entry, tmp_path):
    model = '{"name": "s3", "entries": %s}' % (S3_ENTRIES % 2)
    blocks = '[[[%s]], [[[1.0, 0.0]]], [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]' % entry
    path = tmp_path / "field.json"
    path.write_text('{"dual": %s, "field": {"model": "s3", "blocks": %s}}' % (model, blocks))
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, "-m", "dualnorm", "field", "show", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == EXIT_CONFIG_ERROR
    assert run.stderr.startswith("error:") and "Traceback" not in run.stderr


DEEP = "[" * 200000  # nested past the JSON decoder's recursion limit
DEEP_FIELD = '{"dual": {"name": "s3", "entries": %s}, "field": %s}' % (S3_ENTRIES % 2, DEEP)


@pytest.mark.parametrize(
    "content,argv",
    [
        (b"\xff\xfe{}", ["field", "show"]),
        (DEEP.encode(), ["field", "show"]),
        (DEEP.encode(), ["verify", "norms", "--dual"]),
        (DEEP_FIELD.encode(), ["field", "show"]),
    ],
    ids=["show-not-utf8", "show-deep", "dual-deep", "show-deep-field"],
)
def test_main_malformed_json_is_config_error(content, argv, tmp_path):
    path = tmp_path / "f.json"
    path.write_bytes(content)
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, "-m", "dualnorm", *argv, str(path)],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == EXIT_CONFIG_ERROR
    assert run.stderr.startswith("error:") and "Traceback" not in run.stderr


@pytest.mark.parametrize("seed", [2**127, -(2**127) - 1])
def test_main_verify_seed_outside_mix_range_is_config_error(seed, monkeypatch, capsys):
    # mix_seed encodes a seed in 16 signed bytes
    argv = ["verify", "norms", "--dual", "s3", "--trials", "1"]
    assert main([*argv, "--seed", str(seed)]) == EXIT_CONFIG_ERROR
    monkeypatch.setenv("DUALNORM_SEED", str(seed))
    assert main(argv) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "Traceback" not in err


def test_main_verify_accepts_seeds_at_mix_range_ends(capsys):
    for seed in (-(2**127), 2**127 - 1):
        argv = ["verify", "norms", "--dual", "s3", "--trials", "1", "--seed", str(seed)]
        assert main(argv) == EXIT_OK


# int(), float() and Fraction() take underscores and non-ASCII digits, so each
# of these once ran silently with a number nobody wrote ("1_5" as 15, "٣" as 3)
@pytest.mark.parametrize(
    "argv,env_seed",
    [
        (["verify", "norms", "--p", "1_5"], None),
        (["verify", "norms", "--p", "\u0663"], None),
        (["verify", "norms", "--p", "\uff11.\uff15"], None),
        (["verify", "norms", "--p", "30/2_0"], None),
        (["verify", "norms", "--trials", "1_0"], None),
        (["verify", "norms", "--trials", "\u0662"], None),
        (["verify", "norms", "--seed", "\u0663"], None),
        (["verify", "norms", "--tol", "1_0e-10"], None),
        (["verify", "norms"], "\u0661"),
        (["field", "random", "--seed", "\u0663"], None),
        (["field", "random"], "\u0661"),
    ],
)
def test_main_numbers_take_only_ascii_digits_without_underscores(argv, env_seed, no_draw,
                                                                 monkeypatch, capsys):
    if env_seed is not None:
        monkeypatch.setenv("DUALNORM_SEED", env_seed)
    try:
        code = main(argv)
    except SystemExit as exc:  # a usage error from the parser
        code = exc.code
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,kind",
    [
        (["verify", "norms", "--trials", "1_0"], "int"),
        (["verify", "norms", "--seed", "1_0"], "int"),
        (["verify", "norms", "--tol", "1_0"], "float"),
        (["field", "random", "--seed", "\u0663"], "int"),
    ],
)
def test_main_malformed_numbers_name_the_builtin_type(argv, kind, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG_ERROR
    option, value = argv[-2:]
    assert f"argument {option}: invalid {kind} value: {value!r}\n" in capsys.readouterr().err


def test_main_numbers_keep_their_ascii_spellings():
    args = cli._build_parser().parse_args(
        ["verify", "norms", "--trials", " +2 ", "--seed", "-1", "--tol", "2.50e-10"]
    )
    assert (args.trials, args.seed, args.tol) == (2, -1, 2.5e-10)
    assert cli._build_parser().parse_args(["field", "random", "--seed", "07"]).seed == 7


def test_main_malformed_env_seed_is_config_error(monkeypatch, capsys):
    monkeypatch.setenv("DUALNORM_SEED", "abc")
    assert main(["field", "random", "--dual", "s3"]) == EXIT_CONFIG_ERROR
    assert main(["verify", "norms", "--dual", "s3", "--trials", "1"]) == EXIT_CONFIG_ERROR
    assert "DUALNORM_SEED" in capsys.readouterr().err


def test_tol_override_loosens(tmp_path):
    # every check keeps its own rule (rel=, scale=); --tol scales it by T / TOL_REL
    base = run_suite(small_config(suite="norms", trials=2))
    loose = run_suite(small_config(suite="norms", trials=2, tol_override=1e-6))
    assert [r.case_id for r in loose] == [r.case_id for r in base]
    for b, r in zip(base, loose):
        assert r.tol == pytest.approx(b.tol * 1e4) and r.tol > b.tol


def test_default_tol_override_leaves_report_bytes_unchanged(tmp_path):
    args = ["verify", "all", "--dual", "su2_trunc(4)", "--p", "1.5,2,3", "--trials", "3"]
    assert main([*args, "--out", str(tmp_path / "plain.json")]) == EXIT_OK
    assert main([*args, "--tol", "1e-10", "--out", str(tmp_path / "tol.json")]) == EXIT_OK
    assert (tmp_path / "tol.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_interpolation_trial_builds_each_witness_once(monkeypatch):
    svds, witnesses, composed = [], [], []
    svd, witness_f, products = matcore.svd, interpolation.witness_f, duality._products
    monkeypatch.setattr(matcore, "svd", lambda a: svds.append(a.shape) or svd(a))
    monkeypatch.setattr(
        interpolation, "witness_f", lambda h, spec: witnesses.append(h) or witness_f(h, spec)
    )

    def count_products(model, lefts, rights):  # the blocks composed, one per entry and point
        out = products(model, lefts, rights)
        composed.append(len(lefts) * math.prod(out.batch))
        return out

    monkeypatch.setattr(duality, "_products", count_products)
    reports = run_suite(small_config(suite="interpolation", trials=1))
    assert len(reports) == 3 and all(r.passed for r in reports)
    # h's witness on the two boundary lines serves all three reports, and the
    # three-lines check pairs it with f's dual witness on the same lines; every
    # witness and the dual extremizer read the factors h and f memoize: one
    # SVD per entry each
    assert len(witnesses) == 1
    entries = len(preset_dual("s3").entries)
    assert len(svds) == 2 * entries
    # per entry: 18 boundary points for each of f and g, and one extremizer
    assert sum(composed) == 37 * entries


def test_interpolation_reduces_each_boundary_line_once(monkeypatch):
    # the line whose exponent is 2 takes the Frobenius route, which keeps no memo: the
    # boundary-norm and consistency checks share the line norms their suite reduces once
    calls = []
    hs_norm = matcore.hs_norm
    monkeypatch.setattr(matcore, "hs_norm", lambda a: calls.append(1) or hs_norm(a))
    model = preset_dual("su2_trunc", 4)
    reports = run_suite(small_config(suite="interpolation", dual=model, trials=10))
    assert len(reports) == 30 and all(r.passed for r in reports)
    assert len(calls) == len(model.dims)  # one chunk: each block of the p = 2 line once


def test_interpolation_reports_carry_the_exponent_asked_for(tmp_path):
    # theta's rounding moves the exponent derived from it by an ulp or two at
    # these p; each report names the p of its case id, bit for bit
    path = tmp_path / "interp.json"
    argv = ["verify", "interpolation", "--dual", "s3", "--p", "1.46,5,7.1", "--trials", "2"]
    assert main([*argv, "--out", str(path)]) == EXIT_OK
    doc = json.loads(path.read_text())
    assert len(doc) == 18
    for report in doc:
        case_p = report["case_id"].split("[p=")[1].split("]")[0]
        assert report["p"] == float(case_p), report["case_id"]


def test_holder_chunk_factors_each_field_once(monkeypatch):
    calls = []
    kernel = matcore.singular_values
    monkeypatch.setattr(matcore, "singular_values", lambda a: calls.append(a.shape) or kernel(a))
    cfg = small_config(suite="holder", dual=preset_dual("su2_trunc", 4), trials=3)
    reports = run_suite(cfg)
    assert len(reports) == 3 * cfg.trials and all(r.passed for r in reports)
    # h1, h2 and the product h1 h2 each memoize one values-only factorization
    # per entry, which the conjugate, inf_both and inf_left cases share
    assert len(calls) == 3 * len(cfg.dual.entries)


def test_duality_trial_factors_h_once_per_entry(monkeypatch):
    cfg = small_config(suite="duality", trials=1)
    h = random_stacks(cfg.dual, mix_seed(cfg.seed, "duality", "a"))
    seen = {"singular_values": [], "svd": []}
    for name, arrays in seen.items():
        kernel = getattr(matcore, name)
        monkeypatch.setattr(matcore, name, lambda a, k=kernel, got=arrays: got.append(a) or k(a))
    reports = run_suite(cfg)
    assert len(reports) == 4 and all(r.passed for r in reports)
    # the norm, the extremizer and the search bound share h's memo (the direct
    # sum reduces h in one stack with the other field): one values-only and
    # one full SVD of h's own blocks per entry
    for arrays in seen.values():
        assert [sum(np.array_equal(a, b) for a in arrays) for b in h.blocks] == [1, 1, 1]


def test_p2_coincidence_fails_when_the_frobenius_route_is_off(monkeypatch, capsys):
    args = dict(suite="norms", p_list=tuple(map(ExponentP, (1.5, 2.0, 3.0))), family="both", trials=3)
    good = run_suite(small_config(**args))
    hs_norm = matcore.hs_norm
    monkeypatch.setattr(matcore, "hs_norm", lambda a: (1 + 1e-9) * hs_norm(a))
    bad = run_suite(small_config(**args))
    assert [r.case_id for r in bad] == [r.case_id for r in good] and all(r.passed for r in good)
    # every other record still passes, and the Schatten family away from p = 2,
    # which takes no Frobenius sum, keeps its bytes
    for g, b in zip(good, bad):
        assert b.passed != g.case_id.startswith("p2_coincidence"), g.case_id
        if g.case_id.startswith(("triangle.sch", "homogeneity.sch")) and "[p=2.0]" not in g.case_id:
            assert b == g
    capsys.readouterr()
    assert main(["verify", "norms", "--dual", "s3", "--trials", "2"]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "FAIL norms/p2_coincidence[0000]", "FAIL norms/p2_coincidence[0001]"
    ]


def test_type_cotype_at_p2_computes_each_sign_average_once(monkeypatch):
    calls = []
    averages = inequalities._rademacher_averages
    monkeypatch.setattr(inequalities, "_rademacher_averages",
                        lambda *a, **kw: calls.append(a[1]) or averages(*a, **kw))
    cfg = small_config(suite="type_cotype", p_list=(ExponentP(2.0),), family="both", trials=1)
    reports = run_suite(cfg)
    assert len(reports) == 4 and all(r.passed for r in reports)
    # one walk over the sign table reduces each run at both (p, family) pairs
    assert calls == [[(2.0, "sch"), (2.0, "hs")]]
    fields = [random_field(cfg.dual, mix_seed(cfg.seed, "type_cotype", j)) for j in range(5)]
    for family in ("sch", "hs"):
        (shared,) = [r for r in reports if r.case_id == f"{family}[p=2.0][0000]"]
        norms = field_norms(fields, 2.0, family)
        avg2 = inequalities.rademacher_average(fields, 2.0, family)
        assert shared == inequalities.type_cotype_check(
            fields, 2.0, family, norms, avg2, case_id=shared.case_id
        )


def test_tol_override_keeps_exact_counts_exact():
    for tol in (1e-6, 1e298):  # up to the largest accepted tolerances
        reports = run_suite(small_config(suite="moduli", trials=50, tol_override=tol))
        bins = [r for r in reports if r.case_id.startswith("convexity_bins")]
        assert bins and all(r.tol == 0.0 for r in bins)


# -- golden report bytes ---------------------------------------------------------

# sha256 prefixes of the JSON and CSV of `verify all` (seed 11, 3 trials).  They
# pin the report bytes: a refactor of the suites must leave them unchanged, and
# a deliberate change to the numbers (a new draw layout) updates them here.  The
# next two columns see no digest: the JSON hash with every `inputs_digest` blank,
# and the number of distinct digests, so a change to how inputs are digested
# moves only the first two hashes.  The last column hashes the ordered
# (suite, case_id, anchor) list alone; it moves only with the numbers that pick
# the cases, as when each moduli pair came to mix its draw with its neighbour's,
# or each coordinate came to take one Box-Muller pair, which changed the convexity
# bins that 3 trials occupy.  That last move kept the bytes of torus(3), whose
# 1 x 1 blocks already took one pair each.  The Schatten norm at p = 2 becoming the
# Hilbert-Schmidt one moved the values of s3 and torus(3), through their 1 x 1
# blocks, and kept their layout and digest counts.  The hashes hold for one numpy and
# OpenBLAS build on the kernel they were pinned on (GOLDEN_CORE): LAPACK's SVDs
# and BLAS's zgemm products round differently on another, while the layout,
# the counts and every pass flag hold on any kernel (test_golden_case_layout).
GOLDEN_CORE = "SkylakeX"
GOLDEN = [
    ("s3", "1,1.5,2,3,inf", "both", None, 345, "e1c84e3ae58a3bcd", "50bb0a8e679b76e0",
     "cd7bb7c25f98a036", 298, "013bc74dd8f00ba5"),
    ("su2_trunc(4)", "1.5,2,3", "both", None, 280, "47f12d7ef0e0018f", "b05927f70474697a",
     "516967254311c1e2", 247, "b8b17374f604bf1b"),
    ("torus(3)", "4/3,2,5", "sch", 1e-6, 195, "53b5944a1ac66234", "5cd6c322582b3d19",
     "68d12b8134374a02", 167, "f5ea4790354ceaa8"),
    ("custom(1,3)", "1.5,2.5", "hs", None, 127, "0d9a97df81a54f84", "20e0b12defda592f",
     "1aef1380f5465abc", 110, "5cae59af955de0c5"),
    # blocks of 16 x 16 and 32 x 32; matcore.svd sends 2 x 2 blocks to LAPACK too, and a
    # product through @ is BLAS zgemm: only torus(3)'s 1 x 1 rows kept their bytes on Haswell
    ("custom(16,32)", "1.5,3", "both", None, 180, "3e6ebef7780aa1a0", "47e9020a2c9d9d1e",
     "30c9944281b6e743", 161, "c22860dcbae14f1f"),
]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _golden_reports(dual, p, family, tol):
    cfg = SuiteConfig(
        suite="all",
        dual=parse_dual_arg(dual),
        p_list=tuple(p.split(",")),
        family=family,
        trials=3,
        seed=11,
        tol_override=tol,
    )
    return run_suite(cfg)


@pytest.mark.parametrize(
    "dual,p,family,tol,count,json_sha,csv_sha,blind_sha,digests,layout_sha", GOLDEN,
    ids=[g[0] for g in GOLDEN],
)
def test_golden_report_bytes(dual, p, family, tol, count, json_sha, csv_sha, blind_sha, digests,
                             layout_sha):
    reports = _golden_reports(dual, p, family, tol)
    assert len(reports) == count
    kernel = f"pinned on {GOLDEN_CORE}, running on {openblas_core()}"
    blind = [replace(r, inputs_digest="") for r in reports]
    assert _sha(reports_to_json(blind)) == blind_sha, kernel
    assert len({r.inputs_digest for r in reports}) == digests, kernel
    assert _sha(reports_to_json(reports)) == json_sha, kernel
    assert _sha(reports_to_csv(reports)) == csv_sha, kernel


@pytest.mark.parametrize(
    "dual,p,family,tol,count,json_sha,csv_sha,blind_sha,digests,layout_sha", GOLDEN,
    ids=[g[0] for g in GOLDEN],
)
def test_golden_case_layout(dual, p, family, tol, count, json_sha, csv_sha, blind_sha, digests,
                            layout_sha):
    reports = _golden_reports(dual, p, family, tol)
    layout = [[r.suite, r.case_id, r.anchor] for r in reports]
    assert len(reports) == count and _sha(json.dumps(layout)) == layout_sha
    assert all(r.passed for r in reports)


# What holds on any kernel, checked against a second one that OPENBLAS_CORETYPE selects
# for one process: the cases and pass flags, and every value within 1e-12 relative
# (digests are left out: a computed field's bytes move with the kernel).
_GOLDEN_ROWS = """
import json
from test_cli import GOLDEN, _golden_reports, _golden_rows
print(json.dumps([_golden_rows(_golden_reports(*g[:4])) for g in GOLDEN]))
"""


def _golden_rows(reports):
    return [[r.case_id, r.anchor, r.passed, r.lhs, r.rhs] for r in reports]


def test_golden_reports_hold_on_a_second_blas_kernel():
    core = openblas_core()
    with open("/proc/cpuinfo") as f:
        avx2 = "avx2" in f.read()
    if core == "unknown" or not avx2:
        pytest.skip(f"needs a known OpenBLAS kernel and AVX2, got {core!r}")
    other = "Sandybridge" if core == "Haswell" else "Haswell"
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE=other, PYTHONPATH=os.pathsep.join([SRC, tests]))
    run = subprocess.run([sys.executable, "-c", _GOLDEN_ROWS], env=env, cwd=tests,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    for g, theirs in zip(GOLDEN, json.loads(run.stdout), strict=True):
        ours = _golden_rows(_golden_reports(*g[:4]))
        assert [r[:3] for r in ours] == [r[:3] for r in theirs], (g[0], other)
        for a, b in zip(ours, theirs):
            for x, y in zip(a[3:], b[3:]):
                assert x == y or abs(x - y) <= 1e-12 * max(1.0, abs(x)), (g[0], a[0], other)


def test_cli_report_files_hold_the_bytes_of_the_stdlib_writers(tmp_path):
    argv = ["verify", "all", "--dual", "s3", "--p", "1.5,2,3", "--family", "both", "--trials", "3"]
    path = tmp_path / "x.json"
    assert main([*argv, "--out", str(path)]) == EXIT_OK
    text = path.read_bytes().decode("utf-8")
    reports = reports_from_json(text)
    assert text == json.dumps([r.as_dict() for r in reports], indent=2) + "\n"
    csv_path = tmp_path / "x.csv"
    assert main([*argv, "--out", str(csv_path), "--format", "csv"]) == EXIT_OK
    assert csv_path.read_bytes().decode("utf-8") == reports_to_csv(reports)
