import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import lsd.cli
import lsd.experiments
from lsd.cli import main
from lsd.config import _DEFAULT_M, _SECTION_KEYS, KINDS, parse_config
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

EXACT_CIR = """
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


COMPARE_CIR = """
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


class TestParse:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL_CIR)
        assert cfg.kind == "convergence" and cfg.model == "cir"
        assert cfg.params == {"k1": 2.0, "k2": 2.0, "k3": 1.0}
        assert cfg.M == 1000
        assert cfg.theta == 1.0
        assert cfg.ref_step == 0.125 / 8.0
        assert cfg.seed == 0

    def test_empty_text(self):
        with pytest.raises(ConfigurationError, match="missing experiment kind"):
            parse_config("")

    def test_duplicate_key_reports_both_lines(self):
        bad = MINIMAL_CIR.replace("k3 = 1", "k3 = 1\nk3 = 2")
        with pytest.raises(ConfigurationError, match=r"'k3' on lines 9 and 10"):
            parse_config(bad)

    def test_repeated_dt_names_its_line(self):
        # 0.125 and 0.1250 are one step size; a scan would draw the repeat
        # from the next dt's seed and overwrite the first one's counters
        bad = MINIMAL_CIR.replace("dt = 0.25, 0.125", "dt = 0.25, 0.125, 0.1250")
        with pytest.raises(ConfigurationError,
                           match=r"^line 15: dt 0\.125 is listed twice$"):
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

    @pytest.mark.parametrize("line, bad", [
        ("T = 1", "T = inf"), ("dt = 0.25, 0.125", "dt = 0.25, nan"),
        ("x0 = 4", "x0 = inf"), ("k1 = 2", "k1 = inf"),
        ("x0 = 4", "x0 = 4\nm = nan"), ("x0 = 4", "x0 = 4\nseed = -3"),
    ])
    def test_non_finite_real_or_negative_seed_names_key_and_line(self, line, bad):
        text = MINIMAL_CIR.replace(line, bad)
        key = bad.splitlines()[-1].split()[0]
        line_no = text.splitlines().index(bad.splitlines()[-1]) + 1
        with pytest.raises(ConfigurationError,
                           match=rf"^line {line_no}: .*\b{key}\b"):
            parse_config(text)

    @pytest.mark.parametrize("old, new, message", [
        ("[params]", "[params", r"^line 6, col 8: unterminated section header$"),
        ("\n[experiment]", "x = 1\n[experiment]",
         r"^line 1: key 'x' appears before any \[section\] header$"),
        ("[run]", "[runs]", r"^line 11: unknown section \[runs\]$"),
        ("x0 = 4", "x0 = abc",
         r"^line 12: key 'x0' needs a finite real number, got 'abc'$"),
        ("dt = 0.25, 0.125", "dt = 0.25, 0.125\nM = 2.5",
         r"^line 16: key 'M' needs an integer, got '2\.5'$"),
        ("kind = convergence", "kind = converge",
         r"^line 3: unknown experiment kind 'converge'; expected one of "),
        ("model = cir\n", "", r"^missing model under \[experiment\]$"),
        ("model = cir", "model = gbm", r"^line 4: unknown model 'gbm'; expected one of "),
        ("model = cir", "model = cir\ncolour = red",
         r"^line 5: unknown key 'colour' in \[experiment\]$"),
        ("T = 1\n", "", r"^missing key 'T' under \[run\]$"),
        ("schemes = lsd1", "schemes = ,", r"^line 14: empty scheme list$"),
        ("schemes = lsd1", "schemes = lsd1, lsd2, lsd1",
         r"^line 14: scheme 'lsd1' is listed twice$"),
        ("x0 = 4", "= 4", r"^line 12, col 1: missing key$"),
        ("dt = 0.25, 0.125", "dt = 0.25, -0.125",
         r"^line 15: dt values must be positive$"),
        ("dt = 0.25, 0.125", "dt = 0.25, 0.125\nreference = lsd9",
         r"^line 16: reference scheme 'lsd9' is not valid for model 'cir'; "
         r"expected one of \('lsd1', "),
        ("T = 1", "T = 0", r"^line 13: T must be positive, got 0\.0$"),
        ("dt = 0.25, 0.125", "dt = 0.25, 0.125\nref_step = 0",
         r"^line 16: ref_step must be positive, got 0\.0$"),
        ("dt = 0.25, 0.125", "dt = 0.25, 0.125\nref_step = -0.001",
         r"^line 16: ref_step must be positive, got -0\.001$"),
        ("dt = 0.25, 0.125", "dt = 0.25, 0.125\nM = 0",
         r"^line 16: M must be >= 1, got 0$"),
        ("dt = 0.25, 0.125", "dt = 0.25, 0.125\nm = 1",
         r"^line 16: m must lie in \(0, 1\), got 1\.0$"),
    ])
    def test_rejects_with_its_message(self, old, new, message):
        assert old in MINIMAL_CIR
        with pytest.raises(ConfigurationError, match=message):
            parse_config(MINIMAL_CIR.replace(old, new, 1))

    @pytest.mark.parametrize("key", ["wf_implicit_sign", "ait_implicit_variant",
                                     "theta"])
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

    def test_convergence_names_levels_dropped_from_fit(self, tmp_path):
        # the finest dt is the reference step, so its error is 0 and the
        # slope comes from the two coarser levels
        cfg = self._write(tmp_path, TINY_CONVERGENCE.replace(
            "dt = 0.125, 0.0625\nref_step = 0.0078125",
            "dt = 0.125, 0.0625, 0.03125\nref_step = 0.03125"))
        assert main([str(cfg), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "tiny.json").read_text())
        assert summary["dropped_from_fit"] == {"lsd1": [0.03125],
                                               "lsd2": [0.03125]}
        assert math.isfinite(summary["slope"]["lsd1"])
        cfg = self._write(tmp_path, TINY_CONVERGENCE)
        assert main([str(cfg), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "tiny.json").read_text())
        assert "dropped_from_fit" not in summary

    def test_scan_reports_nonreal_for_implicit_competitors(self, tmp_path):
        # the paper's LSD maps, which the printed rows run
        printed = ("lsd1_printed", "lsd2_printed", "lsd3_printed")
        cfg = self._write(tmp_path, SCAN_STRESSED.replace("lsd1, lsd2, lsd3",
                                                          ", ".join(printed)))
        assert main([str(cfg), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "stressed.json").read_text())
        counters = summary["counters"]
        assert counters["alf"]["0.01"]["non_real_events"] >= 1
        assert counters["ns"]["0.01"]["non_real_events"] >= 1
        for lsd_variant in printed:
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

    @pytest.mark.parametrize("text, old, new, message", [
        (MINIMAL_WF_SIMULATE, "k1 = 1", "k1 = -1",
         "error: invalid parameters for 'wf': k1 must be positive, got -1.0\n"),
        (COMPARE_CIR, "lsd1, lsd2, sd_theta", "lsd1",
         "error: compare needs at least two schemes\n"),
        (TINY_CONVERGENCE, "ref_step = 0.0078125", "ref_step = 0",
         "error: line 17: ref_step must be positive, got 0.0\n"),
    ])
    def test_rejects_with_its_message(self, tmp_path, capsys, text, old, new,
                                      message):
        assert old in text
        cfg = self._write(tmp_path, text.replace(old, new))
        out = tmp_path / "o"
        assert main([str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_failed_write_leaves_an_empty_directory(self, tmp_path,
                                                    monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(lsd.cli.json, "dump", refuse)
        cfg = self._write(tmp_path, TINY_CONVERGENCE)
        out = tmp_path / "o"
        assert main([str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert list(out.iterdir()) == []

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
schemes = alf, lsd1_printed
dt = 0.01
seed = 6
"""
        cfg = self._write(tmp_path, text)
        assert main([str(cfg), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "stressed.json").read_text())
        counters = summary["counters_last_dt"]
        assert counters["alf"]["negative"] == 85
        assert counters["lsd1_printed"] == {"non_real": 0, "clamped": 0,
                                            "negative": 0}

    def test_compare_kind(self, tmp_path):
        cfg = self._write(tmp_path, COMPARE_CIR)
        assert main([str(cfg), "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "diffs.csv").read_text().splitlines()
        assert lines[0] == "scheme_a,scheme_b,dt,t,diff"
        summary = json.loads((tmp_path / "o" / "diffs.json").read_text())
        assert set(summary["max_abs_diff"]) == {"lsd2", "sd_theta"}

    def test_compare_runs_each_scheme_once_per_dt(self, tmp_path, monkeypatch):
        # each path is too short to chunk, so a run steps in one call
        calls = []
        run_one = lsd.experiments._terminal_batch

        def counted(stepper, state, dt, *args, **kwargs):
            calls.append((str(stepper.scheme_id), dt))
            return run_one(stepper, state, dt, *args, **kwargs)

        monkeypatch.setattr(lsd.experiments, "_terminal_batch", counted)
        cfg = self._write(tmp_path, COMPARE_CIR)
        assert main([str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 3 * 2
        assert set(calls) == {(f"cir:{s}", dt) for s in ("lsd1", "lsd2", "sd_theta")
                              for dt in (0.01, 0.02)}

    @pytest.mark.parametrize("text", [TINY_CONVERGENCE, MINIMAL_WF_SIMULATE,
                                      COMPARE_CIR, EXACT_CIR, SCAN_STRESSED],
                             ids=["convergence", "simulate", "compare",
                                  "exact-cir", "scan"])
    def test_every_kind_draws_through_the_block_engine(self, tmp_path,
                                                        monkeypatch, text):
        # the engine draws each chunk as a tile of per-path generators; no
        # kind draws a lattice of its own from an integer seed
        seeds, draw = [], lsd.experiments.generate_lattice

        def recorded(seed, *args, **kwargs):
            seeds.append(seed)
            return draw(seed, *args, **kwargs)

        monkeypatch.setattr(lsd.experiments, "generate_lattice", recorded)
        cfg = self._write(tmp_path, text)
        assert main([str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert seeds
        for seed in seeds:
            assert isinstance(seed, list)
            assert all(isinstance(g, np.random.Generator) for g in seed)

    def test_compare_diffs_are_simulate_columns_subtracted(self, tmp_path):
        cfg = self._write(tmp_path, COMPARE_CIR)
        sim = self._write(tmp_path, COMPARE_CIR.replace(
            "kind = compare", "kind = simulate").replace("diffs", "paths"),
            "sim.cfg")
        assert main([str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert main([str(sim), "--out", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "paths.csv") as fh:
            columns = {(r["dt"], r["t"]): r for r in csv.DictReader(fh)}
        with open(tmp_path / "o" / "diffs.csv") as fh:
            diffs = list(csv.DictReader(fh))
        assert len(diffs) == 2 * len(columns)
        for r in diffs:
            path = columns[r["dt"], r["t"]]
            expected = float(path[r["scheme_a"]]) - float(path[r["scheme_b"]])
            assert float(r["diff"]) == expected

    def test_compare_reports_a_nan_difference(self, tmp_path, capsys):
        # the overflowed path is not written: the run fails, naming the
        # scheme, dt and the first step whose x is not finite
        text = COMPARE_CIR.replace("x0 = 4", "x0 = 1e308").replace(
            "lsd1, lsd2, sd_theta", "lsd1, lsd2").replace(
            "dt = 0.01, 0.02", "dt = 0.25")
        cfg = self._write(tmp_path, text)
        out = tmp_path / "o"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main([str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: cir:lsd1, dt=0.25, at step 0: x is not finite\n")
        assert not out.exists()

    def test_summary_is_strict_json_with_a_nan_slope(self, tmp_path):
        # one level leaves nothing to fit: the slope is NaN, written as null
        text = TINY_CONVERGENCE.replace("dt = 0.125, 0.0625", "dt = 0.125")
        cfg = self._write(tmp_path, text)
        assert main([str(cfg), "--out", str(tmp_path / "o")]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        raw = (tmp_path / "o" / "tiny.json").read_text()
        summary = json.loads(raw, parse_constant=reject)
        assert summary["slope"] == {"lsd1": None, "lsd2": None}
        assert summary["intercept"] == {"lsd1": None, "lsd2": None}

    def test_compare_accepts_exact_ou(self, tmp_path):
        text = COMPARE_CIR.replace("k3 = 1", "k3 = 2").replace(
            "lsd1, lsd2, sd_theta", "lsd1, exact_ou")
        cfg = self._write(tmp_path, text)
        assert main([str(cfg), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "diffs.json").read_text())
        assert math.isfinite(summary["max_abs_diff"]["exact_ou"])

    @pytest.mark.parametrize("dt", ["1e-12", "1e-300"])
    def test_unrunnable_step_count_fails_cleanly(self, tmp_path, capsys, dt):
        text = MINIMAL_WF_SIMULATE.replace("dt = 0.01", f"dt = {dt}")
        cfg = self._write(tmp_path, text)
        out = tmp_path / "o"
        assert main([str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: step {float(dt)} over the horizon 1.0 gives ")
        assert err.endswith(" steps, more than the 4.29e+09 a run may take\n")
        assert not out.exists()

    def test_step_too_small_for_a_step_count_fails_cleanly(self, tmp_path,
                                                          capsys):
        text = MINIMAL_WF_SIMULATE.replace("dt = 0.01", "dt = 1e-320")
        cfg = self._write(tmp_path, text)
        assert main([str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "no finite step count" in capsys.readouterr().err

    def test_negative_seed_option_is_rejected(self, tmp_path, capsys):
        cfg = self._write(tmp_path, MINIMAL_WF_SIMULATE)
        out = tmp_path / "o"
        assert main([str(cfg), "--out", str(out), "--seed", "-3"]) == 1
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_exact_cir_kind(self, tmp_path):
        cfg = self._write(tmp_path, EXACT_CIR)
        assert main([str(cfg), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "coupled.json").read_text())
        assert summary["identity_max_abs_gap"] == 0.0
        lines = (tmp_path / "o" / "coupled.csv").read_text().splitlines()
        assert lines[0] == "scheme,dt,mean_abs_terminal_diff"

    def test_exact_cir_refuses_its_sample_path_before_any_step(
            self, tmp_path, capsys, monkeypatch):
        # with 1 MiB of memory, the decay's two paths of 2^15 steps fit in
        # chunks, and so does the sample path's block, but not its recorded
        # values beside it: the run is refused before the decay steps at all
        decays = []
        monkeypatch.setattr(lsd.cli, "exact_cir_error_decay",
                            lambda *args, **kwargs: decays.append(args))
        monkeypatch.setattr(lsd.experiments.os, "sysconf",
                            {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}.get)
        text = EXACT_CIR.replace("dt = 0.01, 0.005", "dt = 0.000030517578125")
        cfg = self._write(tmp_path, text.replace("M = 8", "M = 2"))
        out = tmp_path / "o"
        assert main([str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: step 3.0517578125e-05 over the horizon 1.0 gives 3.28e+04 "
            "steps, whose block of 1.23e+04 bytes and 1.31e+06 bytes kept "
            "exceed physical memory (1.05e+06 bytes)\n")
        assert decays == []
        assert not out.exists()


def test_kind_tables_name_the_same_kinds():
    # a kind added to one table and not the others would fail at run time
    assert len(set(KINDS)) == len(KINDS)
    assert set(lsd.cli._RUNNERS) == set(KINDS) == set(_DEFAULT_M)


def test_readme_config_example_and_run_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert parse_config(example).schemes == ["lsd1", "lsd2", "lsd3"]
    run_sentence = re.search(r"`\[run\]` takes (.*?)\n\n", readme, re.S).group(1)
    named = set(re.findall(r"`([^`]+)`", run_sentence))
    assert set(_SECTION_KEYS["run"]) == named
