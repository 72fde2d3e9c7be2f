"""Config parsing, presets, CSV/manifest output, and the CLI."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from spintrio import cli, dynamics, harness, measures, pauli
from spintrio.dynamics import (CouplingConstants, FieldSpec,
                               IntegratorConfig, integrate)
from spintrio.errors import ConfigError
from spintrio.harness import (ScenarioConfig, list_presets, parse_config,
                              preset_configs, run_preset, run_scenario,
                              with_overrides)

from conftest import FIELD_COPIES, turn_z

FAST = dict(tau_max=2.0)


class TestParseConfig:
    def test_empty_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.initial == "GHZ"
        assert cfg.field_kind == "R"
        assert cfg.omega0 == 1.0
        assert cfg.omega1 == 0.3
        assert (cfg.j_ep, cfg.j_en, cfg.j_pn) == (-0.2, -0.1, -0.3)
        assert cfg.multipliers == (1.0, 2.0, 4.0)
        assert cfg.tau_max == 30.0
        assert cfg.dt == 1e-3

    def test_defaults_are_those_of_the_config_classes(self):
        _, _, *built = harness._build(ScenarioConfig())
        assert built == [FieldSpec(), CouplingConstants(), IntegratorConfig()]

    def test_overrides_and_comments(self):
        cfg = parse_config("""
            # comment
            field_kind = NR
            initial = Mix
            x = 0.9
            measures = m_sm, m_b
            oracle_check = on
        """)
        assert cfg.field_kind == "NR"
        assert cfg.x == 0.9
        assert cfg.measures == ("m_sm", "m_b")
        assert cfg.oracle_check is True

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("volume = 11")

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("initial = GHZ\ntau_max = soon")

    def test_x_out_of_range(self):
        with pytest.raises(ConfigError, match="1/3"):
            parse_config("initial = Mix\nx = 0.2")

    def test_mix_requires_x(self):
        with pytest.raises(ConfigError):
            parse_config("initial = Mix")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just words")

    def test_unknown_channel(self):
        with pytest.raises(ConfigError, match="channel"):
            parse_config("measures = m_sm, entropy")

    def test_channel_listed_twice(self):
        # the CSV would hold one column where the manifest names two
        with pytest.raises(ConfigError, match="'b' is listed twice"):
            parse_config("measures = b, m_sm, b")
        with pytest.raises(ConfigError, match="'c3' is listed twice"):
            run_scenario(ScenarioConfig(measures=("c3", "c3"), **FAST))


class TestPresets:
    def test_listing(self):
        names = list_presets()
        for expected in ("figure1", "figure2", "figure3", "rabi-check",
                         "fixed-point"):
            assert expected in names
            assert names[expected]

    def test_figure1_layout(self):
        cfgs = preset_configs("figure1")
        assert len(cfgs) == 10
        assert {c.initial for c in cfgs} == {"S", "BS", "GHZ", "W", "Mix"}
        assert {c.field_kind for c in cfgs} == {"R", "NR"}
        assert all(c.measures == ("m_sm",) for c in cfgs)
        mix = [c for c in cfgs if c.initial == "Mix"]
        assert all(c.x == pytest.approx(2 / 3) for c in mix)

    def test_figure2_layout(self):
        cfgs = preset_configs("figure2")
        assert len(cfgs) == 8
        pairs = {(c.initial, c.measures[0]) for c in cfgs}
        assert pairs == {("S", "m_l"), ("BS", "c3"), ("GHZ", "m_k"),
                         ("W", "m_b")}

    def test_figure3_layout(self):
        coupled, free = preset_configs("figure3")
        assert coupled.initial == free.initial == "Up"
        assert (free.j_en, free.j_pn) == (0.0, 0.0)
        assert coupled.j_en == -0.1 and coupled.j_pn == -0.3

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_configs("figure9")


class TestRunScenario:
    def test_csv_and_manifest(self, tmp_path):
        cfg = ScenarioConfig(name="short", initial="GHZ",
                             measures=("m_sm", "b"), **FAST)
        ts, man = run_scenario(cfg, out_dir=tmp_path)
        csv = tmp_path / "short.csv"
        assert csv.exists()
        lines = csv.read_text().splitlines()
        assert lines[0] == "tau,m_sm,b"
        assert len(lines) == len(ts.taus) + 1
        mtext = (tmp_path / "short.csv.manifest.txt").read_text()
        assert "b_drift" in mtext
        assert "code_version" in mtext
        assert man["method"] == "exact"
        # the manifest records the last sampled tau, as written in the CSV
        assert f"tau_end = {lines[-1].split(',')[0]}" in mtext
        assert float(man["tau_end"]) == pytest.approx(ts.taus[-1])

    def test_tau_end_records_rounded_grid(self, tmp_path):
        cfg = ScenarioConfig(name="rounded", tau_max=0.015,
                             measures=("b",))
        _, man = run_scenario(cfg, out_dir=tmp_path)
        assert man["tau_max"] == 0.015
        assert float(man["tau_end"]) == pytest.approx(0.02)

    def test_rows_satisfy_invariants(self, tmp_path):
        cfg = ScenarioConfig(name="inv", initial="W",
                             measures=("m_b", "m_l"), **FAST)
        run_scenario(cfg, out_dir=tmp_path)
        data = np.genfromtxt(tmp_path / "inv.csv", delimiter=",", names=True)
        assert np.all((data["m_b"] >= 0) & (data["m_b"] <= 1))
        assert np.all((data["m_l"] >= 0) & (data["m_l"] <= 1))
        assert np.abs(data["b"] - np.sqrt(7)).max() < 1e-8

    def test_deterministic_output(self, tmp_path):
        cfg = ScenarioConfig(name="det", initial="BS", **FAST)
        run_scenario(cfg, out_dir=tmp_path / "a")
        run_scenario(cfg, out_dir=tmp_path / "b")
        assert ((tmp_path / "a" / "det.csv").read_bytes()
                == (tmp_path / "b" / "det.csv").read_bytes())

    def test_oracle_check_records_deviation(self, tmp_path):
        cfg = ScenarioConfig(name="orc", initial="GHZ", oracle_check=True,
                             **FAST)
        _, man = run_scenario(cfg, out_dir=tmp_path)
        assert float(man["oracle_max_dev"]) <= 1e-8

    @pytest.mark.parametrize("oracle", [False, True], ids=["off", "on"])
    def test_manifest_records_margins_to_the_gates(self, tmp_path, oracle):
        # each gate's headroom as what it measured over GATE_TOL: an exact
        # run's drift and deviation, some 1e-15, read some 1e-7
        cfg = ScenarioConfig(name="margins", initial="W",
                             oracle_check=oracle, **FAST)
        ts, man = run_scenario(cfg, out_dir=tmp_path)
        b = ts.channels["b"]
        drift = np.abs(b - b[0]).max()
        assert man["drift_gate_ratio"] == f"{drift / 1e-8:.3e}"
        assert ("oracle_gate_ratio" in man) == oracle
        if oracle:   # the run's states, in the field's frame
            dev = np.max(dynamics.oracle_deviation(
                ts, pauli.initial_state("W")[0], FieldSpec(),
                dynamics.CouplingConstants()))
            assert man["oracle_max_dev"] == f"{dev:.3e}"
            assert man["oracle_gate_ratio"] == f"{dev / 1e-8:.3e}"
        assert not any("margin" in key for key in man)
        lines = (tmp_path / "margins.csv.manifest.txt").read_text()
        for key in ("drift_gate_ratio", "oracle_gate_ratio")[:1 + oracle]:
            assert 1e-9 < float(man[key]) < 1e-4, key
            assert f"\n{key} = {man[key]}\n" in lines

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            run_scenario(ScenarioConfig(initial="Nope"))


def percent_form(taus, channels):
    """The CSV text of one "%.11e" % over every value: the writer before
    the vectorized one, kept as the reference."""
    data = np.column_stack([taus, *channels.values()])
    row = ",".join(["%.11e"] * data.shape[1]) + "\n"
    return ("tau," + ",".join(channels) + "\n"
            + (row * len(data)) % tuple(data.ravel()))


def assert_writes_percent_form(path, data):
    # both writers: as the size picks, then the byte pass, whatever the size
    channels = {f"c{i}": data[:, i] for i in range(1, data.shape[1])}
    for most in (harness._PERCENT_MAX, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_PERCENT_MAX", most)
            harness.write_csv(path, data[:, 0], channels)
        assert path.read_bytes() == percent_form(data[:, 0],
                                                 channels).encode()


class TestWriteCsv:
    @pytest.mark.parametrize("rows", [1, 3001])
    @pytest.mark.parametrize("width", [1, 8])
    def test_bytes_match_savetxt(self, tmp_path, rows, width):
        rng = np.random.default_rng(rows * width)
        taus = np.arange(rows) * 0.01
        # exponents up to +-300, then each special value in the first row
        data = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(
            -300, 301, size=(rows, width))
        for value in (np.nan, np.inf, -np.inf, -0.0, 1e300, -1e-300):
            data[0] = value
            channels = {f"c{i}": data[:, i] for i in range(width)}
            harness.write_csv(tmp_path / "a.csv", taus, channels)
            np.savetxt(tmp_path / "b.csv", np.column_stack([taus, data]),
                       fmt="%.11e", delimiter=",", comments="",
                       header="tau," + ",".join(channels))
            assert ((tmp_path / "a.csv").read_bytes()
                    == (tmp_path / "b.csv").read_bytes())

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                   max_side=9),
                      elements=hst.floats()))
    def test_any_floats_match_percent_form(self, data):
        # subnormals, +-0, nan, +-inf and every exponent
        with tempfile.TemporaryDirectory() as tmp:
            assert_writes_percent_form(Path(tmp) / "a.csv", data)

    def test_rounding_boundaries_match_percent_form(self, tmp_path):
        # the doubles next to each rounding tie (n + 1/2) 10^(e - 11), to
        # 9.999999999995 10^e and to 10^e, for every exponent the scaled
        # path can take and a few past it; 3-digit exponents; more rows than
        # SAMPLE_BLOCK, so a block boundary falls inside the file
        rng = np.random.default_rng(19)
        e = np.arange(-40, 16)
        n = np.concatenate([[1e11, 5e11, 1e12 - 1],
                            rng.integers(10 ** 11, 10 ** 12, 12)])
        centres = np.concatenate([
            ((n[:, None] + 0.5) * 10.0 ** (e - 11)).ravel(),
            9.999999999995 * 10.0 ** e, 10.0 ** e,
            [1e100, 1.5e-100, 9.99999999999e99, 1e308, 2.2250738585072014e-308,
             5e-324]])
        values = np.concatenate([np.nextafter(centres, -np.inf), centres,
                                 np.nextafter(centres, np.inf)])
        values = np.concatenate([values, -values])
        data = np.resize(rng.permutation(values),
                         (dynamics.SAMPLE_BLOCK + 7, 6))
        assert data.size >= values.size
        assert_writes_percent_form(tmp_path / "a.csv", data)

    def test_shorter_rewrite_leaves_no_stale_tail(self, tmp_path):
        rng = np.random.default_rng(20)
        for rows in (3001, 5):
            assert_writes_percent_form(tmp_path / "a.csv",
                                       rng.normal(size=(rows, 3)))

    def test_failed_rewrite_leaves_only_the_header(self, tmp_path,
                                                   monkeypatch):
        # a rewrite too large for the % form fails in the byte pass
        path = tmp_path / "a.csv"
        taus = np.arange(3001) * 0.01
        harness.write_csv(path, taus, {"b": taus})
        rows = harness._PERCENT_MAX // 2 + 1

        def fail():
            raise RuntimeError("no table")
        monkeypatch.setattr(harness, "_words", fail)
        with pytest.raises(RuntimeError, match="no table"):
            harness.write_csv(path, taus[:rows], {"m_sm": taus[:rows]})
        assert path.read_bytes() == b"tau,m_sm\n"

    def test_failed_small_rewrite_leaves_only_the_header(self, tmp_path):
        # a small rewrite fails in its one %, on a value it cannot format
        path = tmp_path / "a.csv"
        taus = np.arange(3001) * 0.01
        harness.write_csv(path, taus, {"b": taus})
        with pytest.raises(TypeError, match="real number"):
            harness.write_csv(path, taus[:5],
                              {"m_sm": np.array(["x"] * 5, dtype=object)})
        assert path.read_bytes() == b"tau,m_sm\n"

    def test_writes_to_dev_null(self):
        harness.write_csv("/dev/null", np.arange(3.0), {"b": np.ones(3)})

    def test_rewrite_keeps_csv_and_manifest_inodes(self, tmp_path):
        # in place: neither replaced by a renamed file nor unlinked first
        cfg = ScenarioConfig(name="r", initial="W", tau_max=2.0)
        path = harness.csv_path(tmp_path, "r")
        run_scenario(cfg, tmp_path)
        files = [path, Path(f"{path}.manifest.txt")]
        inodes = [f.stat().st_ino for f in files]
        run_scenario(with_overrides(cfg, tau_max=1.0), tmp_path)
        assert [f.stat().st_ino for f in files] == inodes
        assert len(path.read_text().splitlines()) == 102


class TestRunPreset:
    def test_figure3_merged_csv(self, tmp_path):
        (path,) = run_preset("figure3", tmp_path, tau_max=2.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "tau,p_flip_coupled,p_flip_free"
        mtext = (tmp_path / "figure3.csv.manifest.txt").read_text()
        entries = dict(line.split(" = ", 1) for line in mtext.splitlines())
        # the coupled run's manifest plus what differs in the free run
        assert entries["name"] == "figure3" and entries["j_en"] == "-0.1"
        assert entries["j_en_free"] == entries["j_pn_free"] == "0.0"
        # every entry of the free run is there, suffixed where it differs
        _, man_f = run_scenario(with_overrides(preset_configs("figure3")[1],
                                               tau_max=2.0))
        for k, v in man_f.items():
            if k != "wall_time_s":
                assert entries.get(f"{k}_free", entries[k]) == str(v)

    def test_figure1_with_cold_and_warm_modes_is_byte_identical(self,
                                                                tmp_path):
        # the second run reads every field's modes, every field's oracle
        # eigenbasis and every start state from the caches; each
        # manifest records the bound the exact path's gate checks at tau 30,
        # once, and both gates' ratios, below 1 (NaN fails).  The oracle only
        # checks: the run without it writes the same CSVs.
        caches = (dynamics._modes, dynamics._eigenbasis, pauli._state)
        for cache in caches:
            cache.cache_clear()
        cold = run_preset("figure1", tmp_path / "cold", oracle=True)
        warm = run_preset("figure1", tmp_path / "warm", oracle=True)
        off = run_preset("figure1", tmp_path / "off")
        assert len(list((tmp_path / "cold").glob("*.csv"))) == len(off) == 10
        for a, b, c in zip(cold, warm, off):
            assert a.read_bytes() == b.read_bytes() == c.read_bytes()
            assert _manifest(a) == _manifest(b)
            lines = a.read_text().splitlines()
            assert lines[0] == "tau,m_sm,b" and len(lines) == 3002
            mlines = Path(f"{a}.manifest.txt").read_text().splitlines()
            entries = dict(line.split(" = ", 1) for line in mlines)
            assert len(entries) == len(mlines)   # no key twice
            assert entries["method"] == "exact"
            assert "oracle_max_dev" in entries
            assert float(entries["err_bound"]) <= 3.41e-14
            assert float(entries["drift_gate_ratio"]) < 1
            assert float(entries["oracle_gate_ratio"]) < 1
        assert [c.cache_info().misses for c in caches] == [2, 2, 5]

    def test_oracle_on_writes_the_csvs_of_oracle_off(self, tmp_path):
        # the oracle only checks: all 21 CSVs of the five presets are the
        # same bytes with it off and on
        for name in harness.PRESETS:
            for oracle in ("off", "on"):
                run_preset(name, tmp_path / oracle, oracle=oracle == "on",
                           tau_max=2.0)
        off = sorted((tmp_path / "off").glob("*.csv"))
        assert len(off) == len(list((tmp_path / "on").glob("*.csv"))) == 21
        for path in off:
            assert (path.read_bytes()
                    == (tmp_path / "on" / path.name).read_bytes())

    @pytest.mark.parametrize("name", sorted(harness.PRESETS))
    def test_channels_match_lab_frame_integrate(self, name):
        # the harness reads its states in the field's frame: each column it
        # writes is, cell by cell, the channel of integrate's lab-frame
        # states
        cfgs = [with_overrides(c, tau_max=2.0) for c in preset_configs(name)]
        for cfg, (ts, _) in zip(cfgs, harness._run_group(cfgs)):
            _, r0, spec, coupling, integ = harness._build(cfg)
            lab = integrate(r0, spec, coupling, integ)
            want = measures.evaluate_channels(lab.states, cfg.measures)
            want["b"] = lab.channels["b"]
            assert ts.channels.keys() == want.keys()
            for ch, values in want.items():
                assert np.abs(ts.channels[ch] - values).max() <= 1e-12, ch

    def test_b_comes_from_integrate_alone(self, monkeypatch, tmp_path):
        # b is a channel integrate returns: no run evaluates it again,
        # whether every run of a group lists it, some do or none does
        def refuse(states):
            raise AssertionError("b evaluated a second time")
        monkeypatch.setitem(measures.CHANNELS, "b", refuse)
        lists = {("R", "GHZ"): ("b",), ("R", "W"): ("m_b", "b"),
                 ("NR", "GHZ"): ("b", "m_sm"), ("NR", "W"): ("m_sm",),
                 ("ConstantZ", "Up"): ("rho11", "b")}
        cfgs = [ScenarioConfig(name=f"{st}_{fk}", initial=st, field_kind=fk,
                               measures=chans, **FAST)
                for (fk, st), chans in lists.items()]
        for cfg, (ts, _) in zip(cfgs, harness._run_group(cfgs, tmp_path)):
            _, r0, spec, coupling, integ = harness._build(cfg)
            b = integrate(r0, spec, coupling, integ, lab=False).channels["b"]
            assert ts.channels["b"].tobytes() == b.tobytes()
            header = (tmp_path / f"{cfg.name}.csv").read_text().split("\n")[0]
            assert header == ",".join(dict.fromkeys(("tau", *cfg.measures,
                                                     "b")))

    def test_oracle_check_only_reads_the_run(self, monkeypatch):
        # figure1 runs as two stacked groups of five, and a run's states are
        # a view into its group's stack: the oracle turns its own density
        # matrices into the run's frame, so the states returned are the
        # same bytes either way
        calls = _count_integrate(monkeypatch)
        runs = [harness._run_group([with_overrides(c, oracle, tau_max=2.0)
                                    for c in preset_configs("figure1")])
                for oracle in (False, True)]
        assert calls == [5, 5, 5, 5]
        for (off, _), (on, _) in zip(*runs):
            assert on.states.tobytes() == off.states.tobytes()

    def test_oracle_check_turns_no_state_into_the_lab(self, monkeypatch,
                                                      tmp_path):
        # the oracle check compares in the run's own frame: figure1 with the
        # oracle on asks integrate for the field's frame only and writes the
        # bytes of a run that was not watched
        run_preset("figure1", tmp_path / "plain", oracle=True, tau_max=2.0)
        frames = []

        def watched(*args, **kwargs):
            frames.append(kwargs.get("lab", True))
            return integrate(*args, **kwargs)
        monkeypatch.setattr(harness, "integrate", watched)
        run_preset("figure1", tmp_path / "watched", oracle=True, tau_max=2.0)
        assert frames == [False, False]   # the R group and the NR group
        plain = sorted((tmp_path / "plain").glob("*.csv"))
        assert len(plain) == 10
        for path in plain:
            assert (path.read_bytes()
                    == (tmp_path / "watched" / path.name).read_bytes())

    def test_figure3_records_both_precision_bounds(self, tmp_path):
        run_preset("figure3", tmp_path)
        mtext = (tmp_path / "figure3.csv.manifest.txt").read_text()
        assert "\nerr_bound = 1.612e-14\n" in mtext
        assert "\nerr_bound_free = 1.589e-14\n" in mtext

    @pytest.mark.parametrize("oracle", [False, True], ids=["off", "on"])
    def test_grouped_runs_write_the_files_of_runs_alone(self, tmp_path,
                                                        oracle):
        # figure1 and figure2 run as two stacked groups each; every file
        # must be the one its config writes when run alone (figure3 merges
        # two runs alone: its columns must be theirs)
        def rows(path):
            return [r.split(",") for r in path.read_text().splitlines()]
        for name in harness.PRESETS:
            paths = run_preset(name, tmp_path / "preset", oracle=oracle,
                               tau_max=2.0)
            alone = [run_scenario(with_overrides(c, oracle, tau_max=2.0),
                                  tmp_path / "alone")[1]
                     for c in preset_configs(name)]
            if name == "figure3":
                merged = rows(paths[0])
                coupled, free = (rows(tmp_path / "alone" / f"{m['name']}.csv")
                                 for m in alone)
                assert merged[1:] == [[t, c, f] for (t, c, _), (_, f, _)
                                      in zip(coupled[1:], free[1:])]
                continue
            for path, man in zip(paths, alone):
                assert len(man) == len(_manifest(path)) + 1
                assert (_manifest(path)
                        == _manifest(tmp_path / "alone" / path.name))
                assert (path.read_bytes()
                        == (tmp_path / "alone" / path.name).read_bytes())
            assert ("oracle_max_dev" in man) == oracle

    def test_run_group_splits_interleaved_fields(self, tmp_path,
                                                 monkeypatch):
        # S/R, S/NR, W/R: the two R runs share one integrate, S/NR runs
        # with its own field, and each run comes back in input order with
        # the files its config writes when run alone
        by_name = {c.name: c for c in preset_configs("figure1")}
        cfgs = [with_overrides(by_name[f"figure1_{n}"], tau_max=2.0)
                for n in ("S_R", "S_NR", "W_R")]
        calls = _count_integrate(monkeypatch)
        runs = harness._run_group(cfgs, tmp_path / "group")
        assert calls == [2, 1]
        for cfg, (ts, man) in zip(cfgs, runs):
            alone_ts, alone_man = run_scenario(cfg, tmp_path / "alone")
            assert man["name"] == cfg.name
            assert np.array_equal(ts.states, alone_ts.states)
            group, alone = (harness.csv_path(tmp_path / d, cfg.name)
                            for d in ("group", "alone"))
            assert group.read_bytes() == alone.read_bytes()
            assert _manifest(group) == _manifest(alone)

    @pytest.mark.parametrize("name, stacks", [
        ("figure1", [5, 5]), ("figure2", [4, 4]), ("figure3", [1, 1]),
        ("rabi-check", [1]), ("fixed-point", [1])])
    def test_one_integrate_per_field_coupling_and_grid(self, tmp_path,
                                                       monkeypatch, name,
                                                       stacks):
        calls = _count_integrate(monkeypatch)
        run_preset(name, tmp_path, tau_max=2.0)
        assert calls == stacks

    def test_runs_differing_in_oracle_check_share_one_integrate(
            self, tmp_path, monkeypatch):
        cfgs = [ScenarioConfig(name=n, initial="W", tau_max=2.0,
                               oracle_check=n == "checked")
                for n in ("plain", "checked")]
        monkeypatch.setitem(harness.PRESETS, "pair", ("one field", cfgs))
        calls = _count_integrate(monkeypatch)
        paths = run_preset("pair", tmp_path / "preset")
        assert calls == [2]
        for cfg, path in zip(cfgs, paths):
            _, man = run_scenario(cfg, tmp_path / "alone")
            assert ("oracle_max_dev" in man) == cfg.oracle_check
            alone = tmp_path / "alone" / path.name
            assert path.read_bytes() == alone.read_bytes()
            assert _manifest(path) == _manifest(alone)

    def test_drift_in_one_member_fails_its_group(self, tmp_path, capsys,
                                                 monkeypatch):
        # figure1's R group is S, BS, GHZ, W, Mix: W's Bloch length drifts;
        # the run ends in exit 3 naming it, and its group writes no file
        real = dynamics._rotating_frame

        def drifting(ys, *args):
            states = real(ys, *args)
            states[7:, 3 * 64:4 * 64] *= 1 + 1e-6
            return states
        monkeypatch.setattr(dynamics, "_rotating_frame", drifting)
        assert cli.main(["run", "--preset", "figure1", "--tau-max", "2",
                         "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "scenario 'figure1_W_R': Bloch length drift" in err
        assert "first at tau = 0.07 of stack index 3" in err
        assert list(tmp_path.iterdir()) == []

    def test_rabi_preset(self, tmp_path):
        (path,) = run_preset("rabi-check", tmp_path, tau_max=2.0)
        data = np.genfromtxt(path, delimiter=",", names=True)
        expected = np.sin(0.15 * data["tau"]) ** 2
        assert np.abs(data["p_flip_e"] - expected).max() < 1e-6


def _count_integrate(monkeypatch):
    """The stack size of each integrate call the harness makes from now."""
    calls = []

    def counting(r0, *args, **kwargs):
        calls.append(len(r0))
        return integrate(r0, *args, **kwargs)
    monkeypatch.setattr(harness, "integrate", counting)
    return calls


def _manifest(csv):
    """A CSV's manifest lines but the wall time."""
    return [x for x in Path(f"{csv}.manifest.txt").read_text().splitlines()
            if not x.startswith("wall_time_s")]


class TestCli:
    def test_list_presets(self, capsys):
        assert cli.main(["list-presets"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out and "rabi-check" in out

    def test_module_entry_point(self):
        # python -m spintrio.cli runs main and exits with its code
        src = Path(cli.__file__).parents[1]
        out = subprocess.run([sys.executable, "-m", "spintrio.cli",
                              "list-presets"], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(src)))
        assert out.returncode == 0
        assert ([line.split()[0] for line in out.stdout.splitlines()]
                == list(harness.PRESETS))

    def test_validate_ok(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("initial = W\ntau_max = 1\n")
        assert cli.main(["validate", "--config", str(cfgfile)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_parse_error(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("initial = Mix\nx = 0.1\n")
        assert cli.main(["validate", "--config", str(cfgfile)]) == 2

    def test_run_config(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("name = cli_run\ninitial = S\ntau_max = 1\n")
        code = cli.main(["run", "--config", str(cfgfile),
                         "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "cli_run.csv").exists()

    def test_run_preset_with_overrides(self, tmp_path):
        cfgfile = tmp_path / "long.cfg"
        cfgfile.write_text("name = long\ninitial = S\n")
        for source, name in ((["--preset", "fixed-point"], "fixed_point"),
                             (["--config", str(cfgfile)], "long")):
            code = cli.main(["run", *source, "--out", str(tmp_path),
                             "--tau-max", "1", "--oracle", "off"])
            assert code == 0
            data = np.genfromtxt(tmp_path / f"{name}.csv", delimiter=",",
                                 names=True)
            assert data["tau"][-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("text, message", [
        ("omega1 = nan", "multipliers must be finite"),
        ("multipliers = 1 inf 4", "multipliers must be finite"),
        ("initial = Mix\nx = 0.9\nmeasures = c3", "c3 needs a pure state"),
        ("dt = nan", "dt and tau_max must be finite and positive"),
        ("tau_max = nan", "dt and tau_max must be finite and positive"),
        ("dt = inf", "dt and tau_max must be finite and positive"),
        ("name = ../../escaped", "name must be a plain file name"),
        ("tau_max = 0.05\nsample_every = 100000",
         "tau_max rounds to zero sample intervals"),
        ("name = a\0b", "name must be a plain file name"),
        ("name =", "name must be a plain file name"),
        ("name = \xff", "can't decode byte 0xff"),
        ("output_path = ../../escaped.csv", "unknown key 'output_path'"),
        ("sample_every = 1" + "0" * 400,
         "tau_max rounds to zero sample intervals"),
        ("tau_max = 1e300", "more than 1000000 steps of dt"),
        ("tau_max = 1e7", "more than 1000000 steps of dt"),
        ("field_kind = Custom", "Custom field requires a callable"),
        ("tau_max = 0.05\nomega0 = 1e308",
         "R field at tau = 0: sum |h_i| times the largest |multiplier|"),
        ("tau_max = 0.05\nfield_kind = ConstantZ\nomega0 = 1e308",
         "ConstantZ field at tau = 0: sum |h_i| times"),
        ("tau_max = 0.1\ntau_max = 0.05",
         "line 2: key 'tau_max' already set on line 1"),
        ("measures = m_sm, m_sm", "measure channel 'm_sm' is listed twice"),
    ], ids=["omega1_nan", "multiplier_inf", "mix_c3", "dt_nan",
            "tau_max_nan", "dt_inf", "name_escapes_out",
            "tau_max_below_one_sample", "name_nul", "name_empty", "not_utf8",
            "output_path_escapes_out", "sample_every_past_float",
            "tau_max_past_float_grid", "tau_max_past_step_limit",
            "field_kind_custom", "omega0_overflows_multipliers",
            "constant_z_overflows_multipliers", "duplicate_key",
            "measure_twice"])
    def test_rejected_config_exit_code(self, tmp_path, monkeypatch, capsys,
                                       text, message):
        cfgfile = tmp_path / "bad.cfg"
        # a case that sets no tau_max of its own gets a short one, so a
        # check that lets it through still ends quickly
        if "tau_max" not in text:
            text = f"tau_max = 0.1\n{text}"
        # latin-1 writes each case as its own bytes: all ASCII except the
        # 0xff of not_utf8, which is no valid UTF-8
        cfgfile.write_bytes(f"{text}\n".encode("latin-1"))
        # --out and the working directory two levels below tmp_path, so a
        # path that climbs out of either would still land inside tmp_path
        # and be seen below
        out = tmp_path / "a" / "b"
        out.mkdir(parents=True)
        monkeypatch.chdir(out)
        # validate and run reject the same documents, for the same reason
        assert cli.main(["validate", "--config", str(cfgfile)]) == 2
        assert message in capsys.readouterr().err
        for oracle in ("off", "on"):
            assert cli.main(["run", "--config", str(cfgfile), "--out",
                             str(out), "--oracle", oracle]) == 2
            assert message in capsys.readouterr().err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [cfgfile]

    def test_oracle_gate_names_first_tau(self, tmp_path, capsys,
                                         monkeypatch):
        # RK4 at dt = 0.002 on the Custom copy of R keeps the Bloch length
        # (drift 8.3e-10) but leaves the exact answer by 4.8e-8, first at
        # tau = 7.28 in the field's frame; the run itself would propagate R
        # exactly.  The copy returns its lab-frame states turned into the
        # frame asked for, turning at nu = 1: Z(+tau) is turn_z at -nu
        def rk4_copy(r0, spec, coupling, cfg, *, lab=True):
            assert spec == FieldSpec(kind="R")
            copy = FieldSpec(kind="Custom", custom=FIELD_COPIES["R"])
            ts = integrate(r0, copy, coupling, cfg)
            if not lab:
                ts.states = turn_z(ts.states, -1, ts.taus)
            return ts

        monkeypatch.setattr(harness, "integrate", rk4_copy)
        cfgfile = tmp_path / "trip.cfg"
        cfgfile.write_text("name = trip\ninitial = GHZ\nfield_kind = R\n"
                           "dt = 0.002\nsample_every = 5\ntau_max = 30\n")
        assert cli.main(["run", "--config", str(cfgfile), "--out",
                         str(tmp_path), "--oracle", "on"]) == 3
        err = capsys.readouterr().err
        assert "oracle deviation" in err and "first at tau = 7.28" in err
        assert not (tmp_path / "trip.csv").exists()

    def test_unknown_preset_exit_code(self, tmp_path):
        assert cli.main(["run", "--preset", "nope",
                         "--out", str(tmp_path)]) == 2

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert cli.main(["run", "--config",
                         str(tmp_path / "absent.cfg")]) == 4

    def test_bad_arguments(self):
        assert cli.main(["run"]) == 2

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # the parser is built once per process: a rejected argv leaves
        # nothing behind for the calls after it
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("name = again\ninitial = W\ntau_max = 0.4\n")
        run = ["run", "--config", str(cfgfile), "--out", str(tmp_path),
               "--oracle", "on"]
        csv = tmp_path / "again.csv"
        assert cli.main(["run", "--preset", "figure1", "--config",
                         str(cfgfile)]) == 2
        assert cli.main(run) == 0
        first = csv.read_bytes()
        csv.unlink()
        assert cli.main(["validate", "--config", str(cfgfile)]) == 0
        assert cli.main(run) == 0
        assert csv.read_bytes() == first
        assert cli._build_parser() is cli._build_parser()

    # W start to tau = 30: the exact path's phases t w lose 2^-53 |t w|
    # each, past GATE_TOL for these fields; the run stops before its first
    # cos, with or without the oracle
    @pytest.mark.parametrize("omega0, tau_max", [
        ("1e6", 30), ("1e12", 30), ("4e307", 0.05)])
    @pytest.mark.parametrize("oracle", ["off", "on"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_phases_past_double_precision_exit_3(self, tmp_path, capsys,
                                                 omega0, tau_max, oracle):
        cfgfile = tmp_path / "big.cfg"
        cfgfile.write_text(f"name = big\ninitial = W\ntau_max = {tau_max}\n"
                           f"omega0 = {omega0}\n")
        assert cli.main(["run", "--config", str(cfgfile), "--out",
                         str(tmp_path), "--oracle", oracle]) == 3
        assert "precision bound 2^-53 max(w) tau of the exact path" \
            in capsys.readouterr().err
        assert not (tmp_path / "big.csv").exists()

    @pytest.mark.parametrize("name", list(harness.PRESETS))
    def test_every_preset_stays_inside_the_precision_bound(self, tmp_path,
                                                           name):
        # at full length (tau = 30) and the oracle off: only the Bloch drift
        # and the precision bound gate these runs
        assert cli.main(["run", "--preset", name, "--out",
                         str(tmp_path)]) == 0


# Config documents are built key by key from well-typed values (which may
# still be out of range or inconsistent), then at most one key is given a
# bad value: NaN, inf, a negative number, zero, a word, NUL or an int too
# large for a float.  Unknown keys are among the keys.
_BAD = hst.sampled_from(["nan", "inf", "-inf", "-1", "0", "soon", "",
                         "1\0", "1" + "0" * 400])


def _floats(lo, hi):
    return hst.floats(lo, hi).map(repr)


_VALUES = {
    "name": hst.one_of(hst.just("run"), hst.text("ab_-. /\0", max_size=6)),
    "initial": hst.sampled_from(pauli.STATE_NAMES),
    "field_kind": hst.sampled_from(["R", "NR", "ConstantZ", "Custom"]),
    "omega0": _floats(-2, 2),
    "omega1": _floats(-2, 2),
    "j_ep": _floats(-1, 1),
    "j_en": _floats(-1, 1),
    "j_pn": _floats(-1, 1),
    "multipliers": hst.lists(_floats(-4, 4), min_size=3, max_size=3)
                      .map(", ".join),
    "dt": _floats(1e-3, 0.01),
    "sample_every": hst.integers(1, 10).map(str),
    "measures": hst.lists(hst.sampled_from([*measures.CHANNELS, "entropy"]),
                          max_size=3).map(", ".join),
    "oracle_check": hst.sampled_from(["on", "off", "true", "no"]),
}


@hst.composite
def _documents(draw):
    """{key: value text}: tau_max (at most 0.05) always, each key of _VALUES
    maybe, x mostly with initial = Mix only, then at most one bad value."""
    doc = draw(hst.fixed_dictionaries({"tau_max": _floats(1e-4, 0.05)},
                                      optional=_VALUES))
    if doc.get("initial") == "Mix" or draw(hst.integers(0, 9)) == 0:
        doc["x"] = draw(_floats(0.2, 1.0))
    keys = hst.sampled_from([*doc, *_VALUES, "x", "volume", "method"])
    doc.update(draw(hst.dictionaries(keys, _BAD, max_size=1)))
    return doc


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_documents())
def test_every_config_document_ends_in_a_documented_exit(doc):
    """exit 0 with a finite CSV of tau, the measures and b that ends within
    half a sample interval of tau_max, or exit 2, 3 or 4.

    dt is at least 1e-3, so a valid document runs at most 50 steps."""
    text = "".join(f"{k} = {v}\n" for k, v in doc.items())
    with tempfile.TemporaryDirectory() as tmp:
        cfgfile = Path(tmp) / "run.cfg"
        cfgfile.write_text(text, encoding="utf-8")
        out = Path(tmp) / "out"
        code = cli.main(["run", "--config", str(cfgfile), "--out", str(out)])
        if code != 0:
            assert code in (2, 3, 4)
            return
        cfg = parse_config(text)
        lines = (out / f"{cfg.name}.csv").read_text().splitlines()
        assert lines[0].split(",") == ["tau", *dict.fromkeys(
            cfg.measures + ("b",))]
        data = np.array([line.split(",") for line in lines[1:]], dtype=float)
        assert len(data) >= 2 and np.all(np.isfinite(data))
        stride = cfg.dt * cfg.sample_every
        assert abs(data[-1, 0] - cfg.tau_max) <= stride / 2 + 1e-12
