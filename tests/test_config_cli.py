import json

import pytest

from lsd.cli import main
from lsd.config import parse_config
from lsd.errors import ConfigurationError

MINIMAL_CIR = """
[experiment]
kind = convergence
model = cir

[params]
k1 = 2
k2 = 2
k3 = 1

[run]
x0 = 4
T = 1
schemes = lsd1
dt = 0.25, 0.125
"""

TINY_CONVERGENCE = """
[experiment]
kind = convergence
model = cir
name = tiny

[params]
k1 = 2
k2 = 2
k3 = 1

[run]
x0 = 4
T = 1
schemes = lsd1, lsd2
dt = 0.125, 0.0625
ref_step = 0.0078125
M = 16
seed = 77
"""

MINIMAL_WF_SIMULATE = """
[experiment]
kind = simulate
model = wf
name = wfsim

[params]
k1 = 1
k2 = 2
k3 = 0.20101

[run]
x0 = 0.5
T = 1
schemes = lsd1, implicit
dt = 0.01
"""

SCAN_STRESSED = """
[experiment]
kind = scan
model = cir
name = stressed

[params]
k1 = 1
k2 = 2
k3 = 20

[run]
x0 = 4
T = 1
schemes = lsd1, lsd2, lsd3, alf, ns
dt = 0.01
M = 40
seed = 5
"""


class TestParse:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL_CIR)
        assert cfg.kind == "convergence" and cfg.model == "cir"
        assert cfg.params == {"k1": 2.0, "k2": 2.0, "k3": 1.0}
        assert cfg.resolved_m_samples() == 1000
        assert cfg.theta == 1.0
        assert cfg.resolved_ref_step() == 0.125 / 8.0
        assert cfg.seed == 0

    def test_empty_text(self):
        with pytest.raises(ConfigurationError, match="missing experiment kind"):
            parse_config("")

    def test_duplicate_key_reports_both_lines(self):
        bad = MINIMAL_CIR.replace("k3 = 1", "k3 = 1\nk3 = 2")
        with pytest.raises(ConfigurationError, match=r"'k3' on lines 9 and 10"):
            parse_config(bad)

    def test_unknown_key_has_line_number(self):
        bad = MINIMAL_CIR + "oops = 1\n"
        with pytest.raises(ConfigurationError, match=r"line \d+: unknown key 'oops'"):
            parse_config(bad)

    def test_unknown_param_for_model(self):
        bad = MINIMAL_CIR.replace("k3 = 1", "k3 = 1\nq = 0.75")
        with pytest.raises(ConfigurationError, match="unknown parameter 'q'"):
            parse_config(bad)

    def test_syntax_error_has_line_and_col(self):
        bad = MINIMAL_CIR.replace("k3 = 1", "what is this")
        with pytest.raises(ConfigurationError, match=r"line 9, col \d+"):
            parse_config(bad)

    def test_scheme_invalid_for_model(self):
        bad = MINIMAL_CIR.replace("schemes = lsd1", "schemes = biss")
        with pytest.raises(ConfigurationError, match="'biss' is not valid"):
            parse_config(bad)

    def test_missing_required_param(self):
        bad = MINIMAL_CIR.replace("k3 = 1\n", "")
        with pytest.raises(ConfigurationError, match=r"missing parameters \['k3'\]"):
            parse_config(bad)

    def test_round_trip(self):
        cfg = parse_config(TINY_CONVERGENCE)
        assert parse_config(cfg.to_text()) == cfg

    @pytest.mark.parametrize("key", ["wf_implicit_sign", "ait_implicit_variant"])
    def test_removed_implicit_key_is_unknown(self, key):
        # a scheme name alone selects its map, so a config that still sets
        # one of these keys fails loudly instead of running another map
        assert parse_config(MINIMAL_WF_SIMULATE).schemes[-1] == "implicit"
        with pytest.raises(ConfigurationError,
                           match=rf"line \d+: unknown key '{key}' in \[run\]"):
            parse_config(MINIMAL_WF_SIMULATE + f"{key} = printed\n")


class TestCli:
    def _write(self, tmp_path, text, name="exp.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self._write(tmp_path, TINY_CONVERGENCE)
        assert main([str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main([str(cfg), "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "tiny.csv").read_bytes()
        b = (tmp_path / "b" / "tiny.csv").read_bytes()
        assert a == b

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = self._write(tmp_path, TINY_CONVERGENCE)
        assert main([str(cfg), "--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
        assert main([str(cfg), "--out", str(tmp_path / "t4"), "--threads", "4"]) == 0
        a = (tmp_path / "t1" / "tiny.csv").read_bytes()
        b = (tmp_path / "t4" / "tiny.csv").read_bytes()
        assert a == b

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self._write(tmp_path, TINY_CONVERGENCE)
        main([str(cfg), "--out", str(tmp_path / "s1")])
        main([str(cfg), "--out", str(tmp_path / "s2"), "--seed", "123"])
        a = (tmp_path / "s1" / "tiny.csv").read_bytes()
        b = (tmp_path / "s2" / "tiny.csv").read_bytes()
        assert a != b

    def test_convergence_schema(self, tmp_path):
        cfg = self._write(tmp_path, TINY_CONVERGENCE)
        main([str(cfg), "--out", str(tmp_path / "o")])
        lines = (tmp_path / "o" / "tiny.csv").read_text().splitlines()
        assert lines[0] == "scheme,dt,rms,stderr"
        assert len(lines) == 1 + 2 * 2  # two schemes, two step sizes
        summary = json.loads((tmp_path / "o" / "tiny.json").read_text())
        assert set(summary["slope"]) == {"lsd1", "lsd2"}
        assert summary["seed"] == 77

    def test_scan_reports_nonreal_for_implicit_competitors(self, tmp_path):
        cfg = self._write(tmp_path, SCAN_STRESSED)
        assert main([str(cfg), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "stressed.json").read_text())
        counters = summary["counters"]
        assert counters["alf"]["0.01"]["non_real_events"] >= 1
        assert counters["ns"]["0.01"]["non_real_events"] >= 1
        for lsd_variant in ("lsd1", "lsd2", "lsd3"):
            assert counters[lsd_variant]["0.01"]["negative_states"] == 0

    def test_error_leaves_no_partial_outputs(self, tmp_path):
        bad = TINY_CONVERGENCE.replace("ref_step = 0.0078125",
                                       "ref_step = 0.03")  # not dyadic
        cfg = self._write(tmp_path, bad)
        out = tmp_path / "o"
        assert main([str(cfg), "--out", str(out)]) == 1
        assert not list(out.glob("*.csv")) and not list(out.glob("*.json"))

    def test_parse_error_exit_code(self, tmp_path):
        cfg = self._write(tmp_path, "nonsense")
        assert main([str(cfg), "--out", str(tmp_path)]) == 1

    def test_simulate_rejects_step_not_dividing_horizon(self, tmp_path):
        text = MINIMAL_WF_SIMULATE.replace("dt = 0.01", "dt = 0.3")
        cfg = self._write(tmp_path, text.replace("lsd1, implicit", "lsd1"))
        out = tmp_path / "o"
        assert main([str(cfg), "--out", str(out)]) == 1
        assert not list(out.glob("*"))

    def test_simulate_kind(self, tmp_path):
        text = """
[experiment]
kind = simulate
model = wf
name = paths

[params]
k1 = 1
k2 = 2
k3 = 0.20101

[run]
x0 = 0.5
T = 1
schemes = lsd1, lsd3, hyb
dt = 0.01
seed = 3
"""
        cfg = self._write(tmp_path, text)
        assert main([str(cfg), "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "paths.csv").read_text().splitlines()
        assert lines[0] == "dt,t,lsd1,lsd3,hyb"
        assert len(lines) == 1 + 101

    def test_simulate_reports_negative_states(self, tmp_path):
        text = """
[experiment]
kind = simulate
model = cir
name = stressed

[params]
k1 = 1
k2 = 2
k3 = 20

[run]
x0 = 4
T = 1
schemes = alf, lsd1
dt = 0.01
seed = 6
"""
        cfg = self._write(tmp_path, text)
        assert main([str(cfg), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "stressed.json").read_text())
        counters = summary["counters_last_dt"]
        assert counters["alf"]["negative"] == 85
        assert counters["lsd1"] == {"non_real": 0, "clamped": 0, "negative": 0}

    def test_compare_kind(self, tmp_path):
        text = """
[experiment]
kind = compare
model = cir
name = diffs

[params]
k1 = 2
k2 = 2
k3 = 1

[run]
x0 = 4
T = 1
schemes = lsd1, lsd2, sd_theta
dt = 0.01, 0.02
seed = 3
"""
        cfg = self._write(tmp_path, text)
        assert main([str(cfg), "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "diffs.csv").read_text().splitlines()
        assert lines[0] == "scheme_a,scheme_b,dt,t,diff"
        summary = json.loads((tmp_path / "o" / "diffs.json").read_text())
        assert set(summary["max_abs_diff"]) == {"lsd2", "sd_theta"}

    def test_exact_cir_kind(self, tmp_path):
        text = """
[experiment]
kind = exact-cir
model = cir
name = coupled

[params]
k1 = 2
k2 = 2
k3 = 2

[run]
x0 = 4
T = 1
schemes = lsd1
dt = 0.01, 0.005
M = 8
seed = 3
"""
        cfg = self._write(tmp_path, text)
        assert main([str(cfg), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "coupled.json").read_text())
        assert summary["identity_max_abs_gap"] == 0.0
        lines = (tmp_path / "o" / "coupled.csv").read_text().splitlines()
        assert lines[0] == "scheme,dt,mean_abs_terminal_diff"
