import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from udcvqkd import (
    ChannelParams,
    ProtocolParams,
    ReconciliationDirection,
    asymptotic_key_rate_dr,
    asymptotic_key_rate_rr,
    key_rate,
    mutual_information,
    symmetric_vpB,
)
from udcvqkd import cli, sweeps
from udcvqkd.cli import _COMMANDS, _OPTIONS, _Choice, main

# every option with choices, on every subcommand that takes it
CHOICE_OPTIONS = [("keyrate", "dir"), ("region", "mode"), ("sweep-loss", "dir"),
                  ("sweep-loss", "format"), ("max-noise", "dir")]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKeyrateCommand:
    def test_identity_channel_returns_all_mutual_information(self, capsys):
        code, out, err = run(
            capsys, "keyrate", "--vs", "1", "--vm", "100",
            "--eta-db", "0", "--eps", "0", "--dir", "rr",
        )
        assert code == 0
        obj = json.loads(out)
        params = ProtocolParams(V_S=1.0, V_M=100.0)
        mi = mutual_information(params, ChannelParams.symmetric(1.0, 0.0))
        assert obj["mutual_info_bits"] == mi
        assert obj["holevo_bits"] <= 1e-9
        assert obj["key_rate_bits"] == pytest.approx(mi, abs=1e-9)

    def test_bit_identical_to_library_call(self, capsys):
        code, out, _ = run(
            capsys, "keyrate", "--vs", "2", "--vm", "100",
            "--eta-db", "0.5", "--eps", "0.03", "--dir", "dr",
        )
        assert code == 0
        obj = json.loads(out)
        eta = 10 ** (-0.5 / 10)
        params = ProtocolParams(V_S=2.0, V_M=100.0)
        chan = ChannelParams.symmetric(eta, 0.03)
        v_p_b = symmetric_vpB(params, eta, 0.03)
        a = key_rate(params, chan, v_p_b, ReconciliationDirection.DIRECT)
        assert obj["key_rate_bits"] == a.key_rate
        assert obj["holevo_bits"] == a.holevo
        assert obj["worst_Cp"] == a.worst_Cp
        assert obj["Cp_interval"] == list(a.Cp_interval)

    def test_linear_transmittance_flag(self, capsys):
        code, out, _ = run(
            capsys, "keyrate", "--vs", "1", "--vm", "10",
            "--eta", "0.9", "--eps", "0.03", "--dir", "dr",
        )
        assert code == 0
        assert json.loads(out)["params"]["eta"] == 0.9

    def test_domain_error_exit_code_and_name(self, capsys):
        code, out, err = run(
            capsys, "keyrate", "--vs", "1", "--vm", "10", "--eta-db", "1",
            "--eps", "0", "--dir", "dr", "--strict-paper-vpb",
        )
        assert code == 1
        assert out == ""
        assert "UnphysicalObservation" in err


    @pytest.mark.parametrize("flag", ["--vs", "--vm", "--eps"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_input_is_a_domain_error(self, capsys, flag, value):
        opts = {"--vs": "1", "--vm": "10", "--eps": "0", flag: value}
        argv = ["keyrate", "--eta-db", "1", "--dir", "dr"]
        for name, text in opts.items():
            argv += [name, text]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("DomainError:")
        assert "Traceback" not in err


    @pytest.mark.parametrize("argv", [
        ["keyrate", "--vs", "1e300", "--vm", "10", "--eta", "0.5", "--dir", "rr"],
        ["keyrate", "--vs", "1", "--vm", "1e300", "--eta", "0.5", "--dir", "rr"],
        ["keyrate", "--vs", "1", "--vm", "10", "--eps", "1e300", "--eta", "0.5", "--dir", "rr"],
        ["keyrate", "--vs", "1e-300", "--vm", "1", "--eta", "0.5", "--dir", "dr"],
        ["max-noise", "--vs", "1", "--vm", "1e300", "--dir", "rr", "--eta", "0.9"],
        ["sweep-loss", "--vs", "1", "--vm", "10", "--eps", "1e300", "--dir", "rr",
         "--db", "0:1:0.5"],
    ])
    def test_finite_input_with_non_finite_result_is_a_domain_error(self, capsys, argv):
        # intermediate values overflow: an error, not NaN or Infinity with exit 0
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("DomainError:")
        assert "Traceback" not in err


class TestArgumentErrors:
    @pytest.mark.parametrize("argv,flag", [
        (["keyrate", "--vs", "1", "--vm", "10", "--eta-db", "1"], "--dir"),
        (["asymptotic", "--eta", "0.5"], "--vs"),
    ])
    def test_missing_required_option(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage: udcvqkd {argv[0]} ")
        assert f"ConfigError: missing required option(s): {flag}\n" in err

    def test_eta_flags_are_mutually_exclusive(self, capsys):
        code, _, err = run(
            capsys, "keyrate", "--vs", "1", "--vm", "10",
            "--eta", "0.9", "--eta-db", "1", "--dir", "dr",
        )
        assert code == 2
        assert "exactly one" in err

    # a grid whose span, or span over step, overflows is not finite either
    @pytest.mark.parametrize("argv", [
        ["sweep-loss", "--dir", "dr", "--db", "0:inf:1"],
        ["sweep-loss", "--dir", "dr", "--db", "0:3:5e-324"],
        ["sweep-loss", "--dir", "dr", "--db=-1e308:1e308:1"],
        ["region", "--eta", "0.9", "--mode", "vpb", "--x-range", "1:2:4",
         "--cp-range=-1e308:1e308:3"],
        ["region", "--eta", "0.9", "--mode", "vpb", "--x-range=-1e308:1e308:3",
         "--cp-range=-3:0:4"],
    ])
    def test_non_finite_grid_is_a_config_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--vs", "1", "--vm", "10")
        assert code == 2
        assert out == ""
        assert "ConfigError:" in err
        assert "Traceback" not in err

    def test_oversized_grid_is_a_config_error(self, capsys, monkeypatch):
        # 1e14 cells, 745 GiB of axis, is refused before the scan runs
        def no_scan(*args):
            raise AssertionError("scan_region ran")

        monkeypatch.setattr(cli, "scan_region", no_scan)
        code, out, err = run(capsys, "region", "--vs", "1", "--vm", "10", "--eta", "0.9",
                             "--mode", "vpb", "--x-range", "1:2:1000",
                             "--cp-range=-3:0:100000000000")
        assert code == 2
        assert out == ""
        assert "ConfigError: region grid must hold at most 100000000 cells\n" in err
        assert "Traceback" not in err

    def test_overlong_axis_is_a_config_error(self, capsys, monkeypatch):
        # 4e5 cells, under the cell cap, but 2e5 rows
        def no_scan(*args):
            raise AssertionError("scan_region ran")

        monkeypatch.setattr(cli, "scan_region", no_scan)
        code, out, err = run(capsys, "region", "--vs", "1", "--vm", "10", "--eta", "0.9",
                             "--mode", "vpb", "--x-range", "1:2:200000",
                             "--cp-range=-3:0:2")
        assert code == 2
        assert out == ""
        assert "ConfigError: region axes must hold at most 100000 points\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["max-noise", "--vs", "1", "--vm", "10", "--dir", "rr", "--eta", "0"],
        ["max-noise", "--vs", "1", "--vm", "10", "--dir", "rr", "--eta", "-0.5"],
        ["asymptotic", "--vs", "1", "--eta", "0"],
    ])
    def test_non_positive_transmittance_is_a_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("DomainError:")
        assert "Traceback" not in err

    # every sweep runs on the calling thread, and keeps the channel's
    # vacuum term: only keyrate takes --strict-paper-vpb
    @pytest.mark.parametrize("flag", [["--threads", "2"], ["--strict-paper-vpb"]])
    @pytest.mark.parametrize("argv", [
        ["region", "--vs", "1", "--vm", "10", "--eta", "0.9", "--mode", "vpb",
         "--x-range", "0.9:1.6:8", "--cp-range=-2.2:-1.0:8"],
        ["sweep-loss", "--vs", "1", "--vm", "10", "--dir", "rr", "--db", "0:1:0.5"],
        ["max-noise", "--vs", "2", "--vm", "100", "--eta-db", "0.2", "--dir", "dr"],
    ])
    def test_threads_flag_is_rejected(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv, *flag)
        assert code == 2
        assert out == ""
        assert flag[0] in err

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize("text", ["0-3-1", "0:3"])
    def test_malformed_db_grid(self, capsys, text):
        code, out, err = run(
            capsys, "sweep-loss", "--vs", "1", "--vm", "10",
            "--dir", "dr", "--db", text,
        )
        assert code == 2
        assert out == ""
        assert f"ConfigError: --db: expected start:stop:step, got {text!r}" in err

    # a directory that does not exist, and a path that is a directory
    @pytest.mark.parametrize("path", ["missing/result.json", "."])
    @pytest.mark.parametrize("argv", [
        ["keyrate", "--vs", "1", "--vm", "10", "--eta", "0.9", "--dir", "dr"],
        ["region", "--vs", "1", "--vm", "10", "--eta", "0.9", "--mode", "vpb",
         "--x-range", "1:2:4", "--cp-range=-3:0:4"],
    ])
    def test_unwritable_output_is_a_config_error(self, capsys, tmp_path, argv, path):
        code, out, err = run(capsys, *argv, "--output", str(tmp_path / path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage: udcvqkd {argv[0]} ")
        assert "\nConfigError: cannot write output file: [Errno " in err
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == []

    @pytest.mark.parametrize("argv", [
        ["region", "--vs", "1", "--vm", "10", "--eta", "0.9", "--mode", "vpb",
         "--x-range", "1:2:x", "--cp-range=-2:-1:8"],
        ["region", "--vs", "1", "--vm", "10", "--eta", "0.9", "--mode", "vpb",
         "--x-range", "1", "--cp-range=-2:-1:8"],
        ["sweep-loss", "--vs", "1", "--vm", "10", "--dir", "dr", "--db", "0:x:1"],
    ])
    def test_unparsable_range_is_a_config_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "ConfigError:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (["keyrate", "--vs", "abc"], "--vs: could not convert string to float: 'abc'"),
        (["keyrate", "--dir", "xx"], "--dir: invalid choice 'xx' (choose from dr, rr)"),
        (["region", "--x-range", "1:2:x"], "--x-range: bad axis range '1:2:x'"),
        (["sweep-loss", "--db", "0:inf:1"], "--db: dB grid bounds and step must be finite"),
    ])
    def test_bad_flag_value_names_the_flag(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage: udcvqkd {argv[0]} ")
        assert f"\nConfigError: {message}" in err

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0


class TestAsymptoticCommand:
    def test_coherent_reference_values(self, capsys):
        code, out, _ = run(capsys, "asymptotic", "--vs", "1", "--eta", "0.5")
        assert code == 0
        obj = json.loads(out)
        assert obj["dr"] == pytest.approx(-0.44270, abs=1e-4)
        assert obj["rr"] == pytest.approx(0.35556, abs=1e-4)
        assert obj["dr"] == asymptotic_key_rate_dr(1.0, 0.5)
        assert obj["rr"] == asymptotic_key_rate_rr(1.0, 0.5)
        assert obj["dr_coherent"] == obj["dr"]
        assert obj["rr_coherent"] == obj["rr"]

    def test_unit_signal_variance_follows_the_nearby_domain(self, capsys):
        # V_S = 1 and V_S = 1 + 1e-9 take the same form, so near eta = 1
        # both return the diverging reverse rate; 24.47234245838989 is
        # (atanh(sqrt(eta)) / sqrt(eta) - 1) / ln 2 to 60 digits
        rates = {}
        for v_s in ("1", "1.000000001"):
            code, out, err = run(capsys, "asymptotic", "--vs", v_s,
                                 "--eta", "0.999999999999999")
            assert code == 0, err
            rates[v_s] = json.loads(out)["rr"]
        assert rates["1.000000001"] == pytest.approx(rates["1"], rel=1e-9, abs=0.0)
        assert rates["1"] == pytest.approx(24.47234245838989, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("v_s,eta", [("0.5", "1e-300"), ("1e-300", "1e-17"),
                                         ("2", "5e-324"), ("1e-300", "0.9999999999999999")])
    def test_extreme_inputs_give_finite_rates(self, capsys, v_s, eta):
        code, out, err = run(capsys, "asymptotic", "--vs", v_s, "--eta", eta)
        assert code == 0, err
        obj = json.loads(out)
        for key in ("dr", "rr", "dr_coherent", "rr_coherent"):
            assert math.isfinite(obj[key])

    def test_squeezed_uses_general_forms(self, capsys):
        code, out, _ = run(capsys, "asymptotic", "--vs", "2", "--eta", "0.9")
        obj = json.loads(out)
        assert code == 0
        assert obj["dr"] != obj["dr_coherent"]
        assert obj["rr"] != obj["rr_coherent"]


class TestSweepLossCommand:
    def test_csv_zero_crossing_near_published_anchor(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys, "sweep-loss", "--vs", "2", "--vm", "100", "--eps", "0.03",
            "--dir", "dr", "--db", "1.3:1.7:0.05", "--output", str(out_path),
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in out_path.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("attenuation")
        ]
        dbs = np.array([float(r[0]) for r in rows])
        rates = np.array([float(r[1]) for r in rows])
        signs = np.sign(rates)
        flip = np.where(np.diff(signs) < 0)[0]
        assert len(flip) == 1
        crossing = dbs[flip[0]]
        assert 1.4 <= crossing <= 1.6

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "sweep-loss", "--vs", "1", "--vm", "10", "--eps", "0",
            "--dir", "rr", "--db", "0:1:0.5", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["x_name"] == "attenuation_db"
        assert len(obj["abscissa"]) == 3


class TestMaxNoiseCommand:
    def test_returns_eps_max(self, capsys):
        code, out, _ = run(
            capsys, "max-noise", "--vs", "2", "--vm", "100",
            "--eta-db", "0.2", "--dir", "dr", "--tol", "1e-5",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["eps_max"] == pytest.approx(0.19452, abs=1e-3)

    def test_tolerance_below_float_spacing_returns(self, capsys, monkeypatch):
        calls = []
        probe = sweeps._key_rate

        def counted(*args):
            calls.append(None)
            assert len(calls) <= 2000, "bisection did not terminate"
            return probe(*args)

        monkeypatch.setattr(sweeps, "_key_rate", counted)
        argv = ["max-noise", "--vs", "1", "--vm", "10", "--dir", "rr", "--eta", "0.9"]
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv, "--tol", "1e-300")
        assert time.perf_counter() - start < 10.0
        assert code == 0
        assert len(calls) < 100
        _, coarse, _ = run(capsys, *argv)
        assert json.loads(out)["eps_max"] == pytest.approx(
            json.loads(coarse)["eps_max"], abs=1e-6)

    def test_linear_transmittance_is_searched_as_given(self, capsys, monkeypatch):
        # 0.52 to dB and back is 0.5200000000000001
        assert sweeps.db_to_eta(sweeps.eta_to_db(0.52)) != 0.52
        etas = []
        probe = sweeps._key_rate

        def recorded(params, eta, *args):
            etas.append(eta)
            return probe(params, eta, *args)

        monkeypatch.setattr(sweeps, "_key_rate", recorded)
        code, out, _ = run(capsys, "max-noise", "--vs", "2", "--vm", "100", "--eta", "0.52",
                           "--dir", "rr")
        assert code == 0
        assert etas and set(etas) == {0.52}
        assert json.loads(out)["params"]["attenuation_db"] == sweeps.eta_to_db(0.52)

    def test_no_positive_rate_maps_to_exit_one(self, capsys):
        code, _, err = run(
            capsys, "max-noise", "--vs", "0.5", "--vm", "100",
            "--eta-db", "1.0", "--dir", "dr",
        )
        assert code == 1
        assert "NoPositiveRate" in err


@pytest.mark.parametrize("command,argv", [
    ("keyrate", ["--vm", "100", "--eps", "0.03", "--dir", "dr"]),
    ("max-noise", ["--vm", "100", "--dir", "dr"]),
    ("asymptotic", []),
])
def test_attenuation_is_echoed_as_given(capsys, command, argv):
    # 0.5 dB to eta and back is 0.49999999999999983 dB
    assert sweeps.eta_to_db(sweeps.db_to_eta(0.5)) != 0.5
    code, out, _ = run(capsys, command, "--vs", "2", "--eta-db", "0.5", *argv)
    assert code == 0
    obj = json.loads(out)
    assert obj["params"]["attenuation_db"] == 0.5
    if command == "max-noise":
        params = ProtocolParams(V_S=2.0, V_M=100.0)
        assert obj["eps_max"] == sweeps.max_tolerable_noise(
            params, 0.5, ReconciliationDirection.DIRECT)


def test_lossless_channel_prints_positive_zero_db(capsys):
    code, out, _ = run(capsys, "keyrate", "--vs", "1", "--vm", "10", "--eta", "1",
                       "--dir", "dr")
    assert code == 0
    assert '"attenuation_db": 0.0,' in out


class TestRegionCommand:
    def test_writes_region_json(self, capsys, tmp_path):
        out_path = tmp_path / "region.json"
        code, _, _ = run(
            capsys, "region", "--vs", "1", "--vm", "10", "--eta", "0.9",
            "--eps", "0.03", "--mode", "vpb",
            "--x-range", "0.9:1.6:20", "--cp-range=-2.2:-1.0:20",
            "--output", str(out_path),
        )
        assert code == 0
        obj = json.loads(out_path.read_text())
        assert obj["mode"] == "vpb"
        assert len(obj["cells"]) == 20


class TestConfigFile:
    ARGS = ["keyrate", "--vs", "2", "--vm", "100", "--eta-db", "0.5",
            "--eps", "0.03", "--dir", "dr"]
    REGION_ARGS = ["region", "--vs", "1", "--vm", "10", "--eta", "0.9", "--mode", "vpb",
                   "--x-range", "0.9:1.6:8", "--cp-range=-2.2:-1.0:8"]
    SWEEP_ARGS = ["sweep-loss", "--vs", "1", "--vm", "10", "--dir", "rr", "--db", "0:1:0.5"]

    def test_config_equivalent_to_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# reference point\n"
            "vs = 2\n"
            "vm = 100\n"
            "eta_db = 0.5\n"
            "eps = 0.03\n"
            "dir = dr\n"
        )
        code_flags, out_flags, _ = run(capsys, *self.ARGS)
        code_cfg, out_cfg, _ = run(capsys, "keyrate", "--config", str(cfg))
        assert code_flags == code_cfg == 0
        assert out_flags == out_cfg

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("vs=2\nvm=100\neta_db=0.5\neps=0.03\ndir=dr\n")
        _, out_default, _ = run(capsys, "keyrate", "--config", str(cfg))
        _, out_override, _ = run(capsys, "keyrate", "--config", str(cfg), "--vm", "50")
        assert json.loads(out_default)["params"]["V_M"] == 100.0
        assert json.loads(out_override)["params"]["V_M"] == 50.0

    @pytest.mark.parametrize("line", ["flux_capacitance=1", "threads=1"])
    def test_unknown_key_rejected(self, capsys, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, _, err = run(capsys, "keyrate", "--config", str(cfg))
        assert code == 2
        assert "unknown key" in err

    # tol and format are options of other subcommands, not of keyrate, and
    # strict_paper_vpb is keyrate's alone
    @pytest.mark.parametrize("command,line", [
        ("keyrate", "tol=5"), ("keyrate", "format=xml"), ("region", "strict_paper_vpb=1"),
        ("sweep-loss", "strict_paper_vpb=1"), ("max-noise", "strict_paper_vpb=1"),
    ])
    def test_key_of_another_subcommand_rejected(self, capsys, tmp_path, command, line):
        config = {
            "keyrate": "vs=2\nvm=100\neta_db=0.5\ndir=dr\n",
            "region": "vs=1\nvm=10\neta=0.9\nmode=vpb\nx_range=0.9:1.6:8\ncp_range=-2.2:-1.0:8\n",
            "sweep-loss": "vs=1\nvm=10\ndir=rr\ndb=0:1:0.5\n",
            "max-noise": "vs=2\nvm=100\neta_db=0.2\ndir=dr\n",
        }[command]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config + line + "\n")
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        key, lineno = line.partition("=")[0], config.count("\n") + 1
        assert f"ConfigError: {cfg}:{lineno}: {command} does not take key {key!r}" in err

    @pytest.mark.parametrize("command,name", CHOICE_OPTIONS)
    def test_config_value_outside_choices_rejected(self, capsys, tmp_path, command, name):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{name}=xx\n")
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "ConfigError:" in err
        assert "invalid choice 'xx'" in err
        assert "Traceback" not in err

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "keyrate", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2

    def test_unreadable_file_rejected(self, capsys, tmp_path):
        # a path that exists but cannot be read as a file
        code, out, err = run(capsys, *self.ARGS, "--config", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "ConfigError: cannot read config file: [Errno " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value,flag", [("yes", ["--strict-paper-vpb"]), ("off", [])])
    def test_boolean_config_value_equivalent_to_flag(self, capsys, tmp_path, value, flag):
        # a squeezed source, which stays physical without the vacuum term
        argv = ["keyrate", "--vs", "0.5", "--vm", "100", "--eta-db", "0.5", "--eps", "0.03",
                "--dir", "dr"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"strict_paper_vpb={value}\n")
        code_flags, out_flags, _ = run(capsys, *argv, *flag)
        code_cfg, out_cfg, _ = run(capsys, *argv, "--config", str(cfg))
        assert code_flags == code_cfg == 0
        assert out_flags == out_cfg
        assert json.loads(out_cfg)["params"]["strict_paper_vpb"] is bool(flag)

    # each names the file and the line, as a value that float rejects does
    @pytest.mark.parametrize("line,message", [
        ("strict_paper_vpb=maybe", "not a boolean: 'maybe'"),
        ("vs=abc", "could not convert string to float: 'abc'"),
        ("vs 2", "expected key=value"),
        ("dir=xx", "invalid choice 'xx' (choose from dr, rr)"),
    ])
    def test_bad_config_line_names_file_and_line(self, capsys, tmp_path, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# reference point\nvm=100\n{line}\n")
        code, out, err = run(capsys, *self.ARGS, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"ConfigError: {cfg}:3: {message}" in err
        assert "Traceback" not in err

    # values that parse only as an axis or a dB grid; the flags give a good
    # value of the same option, which does not hide the line
    @pytest.mark.parametrize("argv,line,message", [
        (REGION_ARGS, "x_range=1:2:x",
         "bad axis range '1:2:x': invalid literal for int() with base 10: 'x'"),
        (REGION_ARGS, "cp_range=-2:x", "bad axis range '-2:x': could not convert string "
                                       "to float: 'x'"),
        (SWEEP_ARGS, "db=0:inf:1", "dB grid bounds and step must be finite"),
    ])
    def test_bad_config_value_names_file_and_line(self, capsys, tmp_path, argv, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# reference point\nvs=1\n{line}\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"ConfigError: {cfg}:3: {message}" in err
        assert err.startswith(f"usage: udcvqkd {argv[0]} ")


def test_option_table_has_no_missing_or_dead_rows():
    used = {name for _, _, names in _COMMANDS.values() for name in names}
    assert used - set(_OPTIONS) == set(), "subcommand option without an _OPTIONS row"
    assert set(_OPTIONS) - used == set(), "_OPTIONS row no subcommand uses"
    assert CHOICE_OPTIONS == [(command, name) for command, (_, _, names) in _COMMANDS.items()
                              for name in names if isinstance(_OPTIONS[name][0], _Choice)]


# Run in a fresh interpreter, where only these calls can have loaded numpy.
LAZY_NUMPY_SCRIPT = """
import sys
from udcvqkd import cli
for argv in (
    ["keyrate", "--vs", "0.5", "--vm", "10", "--eta-db", "1", "--eps", "0.01", "--dir", "rr"],
    ["max-noise", "--vs", "0.5", "--vm", "10", "--eta-db", "1", "--dir", "rr"],
    ["sweep-loss", "--vs", "0.5", "--vm", "10", "--dir", "dr", "--db", "0:2:1"],
    ["asymptotic", "--vs", "0.5", "--eta", "0.5"],
):
    assert cli.main(argv) == 0, argv
assert "numpy" not in sys.modules
import udcvqkd
from udcvqkd import *
assert all(name in globals() for name in udcvqkd.__all__)
assert "numpy" not in sys.modules
assert cli.main(["region", "--vs", "1", "--vm", "10", "--eta", "0.9", "--mode", "vpb",
                 "--x-range", "1:2:4", "--cp-range=-3:0:4"]) == 0
assert "numpy" in sys.modules
from udcvqkd import gaussian, protocol
oracle = {name for name, value in vars(gaussian).items()
          if getattr(value, "__module__", None) == gaussian.__name__}
assert "apply_channel" in oracle and "SingularConditioning" in oracle
assert not oracle & set(udcvqkd.__all__), oracle & set(udcvqkd.__all__)
assert gaussian.entropy_g is protocol.entropy_g
"""


def test_package_runs_as_a_module(capsys):
    src = os.path.dirname(os.path.dirname(sweeps.__file__))
    argv = ["keyrate", "--vs", "2", "--vm", "100", "--eta-db", "0.5", "--eps", "0.03",
            "--dir", "dr"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    for args, want in ((argv, out), (["--version"], None)):
        done = subprocess.run([sys.executable, "-m", "udcvqkd", *args],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        if want is not None:
            assert done.stdout == want


def test_scalar_commands_never_load_numpy():
    src = os.path.dirname(os.path.dirname(sweeps.__file__))
    done = subprocess.run([sys.executable, "-c", LAZY_NUMPY_SCRIPT],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
