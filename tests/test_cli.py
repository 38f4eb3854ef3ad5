import json

import numpy as np
import pytest

from udcvqkd import (
    ChannelParams,
    ProtocolParams,
    ReconciliationDirection,
    asymptotic_key_rate_dr_coherent,
    asymptotic_key_rate_rr_coherent,
    key_rate,
    mutual_information,
    symmetric_vpB,
)
from udcvqkd.cli import main


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
        assert obj["physical"] is True

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


class TestArgumentErrors:
    def test_missing_required_option(self, capsys):
        code, _, err = run(capsys, "keyrate", "--vs", "1", "--vm", "10", "--eta-db", "1")
        assert code == 2
        assert "usage:" in err
        assert "--dir" in err

    def test_eta_flags_are_mutually_exclusive(self, capsys):
        code, _, err = run(
            capsys, "keyrate", "--vs", "1", "--vm", "10",
            "--eta", "0.9", "--eta-db", "1", "--dir", "dr",
        )
        assert code == 2
        assert "exactly one" in err

    def test_non_finite_grid_is_a_config_error(self, capsys):
        code, out, err = run(capsys, "sweep-loss", "--vs", "1", "--vm", "10",
                             "--dir", "dr", "--db", "0:inf:1")
        assert code == 2
        assert out == ""
        assert "ConfigError:" in err
        assert "Traceback" not in err

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_malformed_db_grid(self, capsys):
        code, _, err = run(
            capsys, "sweep-loss", "--vs", "1", "--vm", "10",
            "--dir", "dr", "--db", "0-3-1",
        )
        assert code == 2

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
        assert obj["dr"] == asymptotic_key_rate_dr_coherent(0.5)
        assert obj["rr"] == asymptotic_key_rate_rr_coherent(0.5)
        assert obj["dr_coherent"] == obj["dr"]
        assert obj["rr_coherent"] == obj["rr"]

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

    def test_no_positive_rate_maps_to_exit_one(self, capsys):
        code, _, err = run(
            capsys, "max-noise", "--vs", "0.5", "--vm", "100",
            "--eta-db", "1.0", "--dir", "dr",
        )
        assert code == 1
        assert "NoPositiveRate" in err


class TestRegionCommand:
    def test_writes_region_json(self, capsys, tmp_path):
        out_path = tmp_path / "region.json"
        code, _, _ = run(
            capsys, "region", "--vs", "1", "--vm", "10", "--eta", "0.9",
            "--eps", "0.03", "--mode", "vpb",
            "--x-range", "0.9:1.6:20", "--cp-range=-2.2:-1.0:20",
            "--output", str(out_path), "--threads", "2",
        )
        assert code == 0
        obj = json.loads(out_path.read_text())
        assert obj["mode"] == "vpb"
        assert len(obj["cells"]) == 20

    def test_thread_count_does_not_change_output(self, capsys, tmp_path):
        blobs = []
        for threads in ("1", "3"):
            out_path = tmp_path / f"region{threads}.json"
            code, _, _ = run(
                capsys, "region", "--vs", "1", "--vm", "10", "--eta", "0.9",
                "--eps", "0.03", "--mode", "eps-p",
                "--x-range", "0:0.4:16", "--cp-range=-2.2:-1.0:16",
                "--output", str(out_path), "--threads", threads,
            )
            assert code == 0
            blobs.append(out_path.read_bytes())
        assert blobs[0] == blobs[1]


class TestConfigFile:
    ARGS = ["keyrate", "--vs", "2", "--vm", "100", "--eta-db", "0.5",
            "--eps", "0.03", "--dir", "dr"]

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

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("flux_capacitance=1\n")
        code, _, err = run(capsys, "keyrate", "--config", str(cfg))
        assert code == 2
        assert "unknown key" in err

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "keyrate", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2
