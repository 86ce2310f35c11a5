import json
import math

import numpy as np
import pytest

from fastgate.cli import main
from fastgate.runconfig import ConfigError, load_run_config, load_run_config_file

FAST_OPTIMIZE = {
    "trap": {"num_ions": 2},
    "stage1": {
        "targets": [0, 1],
        "group_count": 8,
        "gate_time_scan_us": [0.9, 1.0],
        "z_bound_max": 2,
        "top_k": 2,
        "restarts": 3,
    },
    "stage2": {"repetition_rate_mhz": 300.0, "local_restarts": 0},
    "seed": 5,
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestRunConfig:
    def test_defaults(self):
        config = load_run_config({})
        assert config.trap.num_ions == 5
        assert config.seed == 0
        assert config.resolved_targets() == (2, 3)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            load_run_config({"trapz": {}})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError):
            load_run_config({"trap": {"num_ion": 5}})

    def test_unit_conversion(self):
        config = load_run_config(
            {"trap": {"num_ions": 3, "radial_freq_mhz": 4.0, "wavelength_nm": 400.0}}
        )
        assert config.trap.radial_frequency == pytest.approx(2 * math.pi * 4e6)
        assert config.trap.laser_wavelength == pytest.approx(400e-9)

    def test_edge_middle_targets(self):
        config = load_run_config({"stage1": {"targets": "edge"}})
        assert config.resolved_targets(10) == (0, 1)
        config = load_run_config({"stage1": {"targets": "middle"}})
        assert config.resolved_targets(10) == (4, 5)

    def test_scan_block(self):
        config = load_run_config(
            {"stage1": {"gate_time_scan_us": {"start": 0.8, "stop": 1.0, "step": 0.1}}}
        )
        scan = config.stage1_config(num_ions=2).gate_time_scan
        assert scan == pytest.approx((0.8e-6, 0.9e-6, 1.0e-6))

    def test_thermal_exclusive(self):
        with pytest.raises(ConfigError):
            load_run_config({"thermal": {"nbar": 0.1, "temperature_k": 1.0}})

    def test_sweep_validation(self):
        with pytest.raises(ConfigError):
            load_run_config({"sweep": {"variable": "bogus", "values": [1]}})
        config = load_run_config({"sweep": {"variable": "epsilon", "values": [1e-5, 1e-4]}})
        assert config.sweep_values == (1e-5, 1e-4)

    def test_bad_file_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_run_config_file(str(path))


class TestModesCommand:
    def test_writes_model_and_prints_table(self, tmp_path, capsys):
        config = write_config(tmp_path, {"trap": {"num_ions": 5}})
        code = main(["--config", config, "--out", str(tmp_path / "out"), "modes"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1.9118" in out
        data = json.loads((tmp_path / "out" / "modes.json").read_text())
        assert len(data["mode_freqs_rad_s"]) == 5
        assert data["provenance"]["seed"] == 0

    def test_provenance_records_stage1_and_sweep(self, tmp_path):
        variants = {
            "base": {},
            "max_sdks": {"stage1": {"max_sdks": 40}},
            "epsilon": {"stage1": {"epsilon": 1e-4}},
            "z_bound_max": {"stage1": {"z_bound_max": 4}},
            "sweep": {"sweep": {"variable": "repetition_rate", "values": [100, 300]}},
        }
        provenance = {}
        for name, data in variants.items():
            config = write_config(tmp_path, data, name=f"{name}.json")
            out = tmp_path / name
            assert main(["--config", config, "--out", str(out), "modes"]) == 0
            provenance[name] = json.loads((out / "modes.json").read_text())["provenance"]
        assert len({json.dumps(p, sort_keys=True) for p in provenance.values()}) == 5
        assert provenance["base"]["schema_version"] == 2
        stage1 = provenance["base"]["config"]["stage1"]
        assert list(stage1) == [
            "group_count", "gate_time_scan_s", "z_bound_schedule", "epsilon", "top_k",
            "restarts", "exhaustive_limit", "max_sdks", "pulse_counting",
        ]
        assert stage1["z_bound_schedule"] == list(range(1, 11))
        bounded = provenance["z_bound_max"]["config"]["stage1"]
        assert list(bounded) == list(stage1)
        assert bounded["z_bound_schedule"] == [1, 2, 3, 4]
        assert bounded["exhaustive_limit"] == 20000
        assert stage1["max_sdks"] == 100
        assert stage1["gate_time_scan_s"][0] == pytest.approx(0.5e-6)
        assert provenance["max_sdks"]["config"]["stage1"]["max_sdks"] == 40
        assert provenance["epsilon"]["config"]["stage1"]["epsilon"] == 1e-4
        assert provenance["base"]["config"]["sweep"] is None
        assert provenance["sweep"]["config"]["sweep"] == {
            "variable": "repetition_rate", "values": [100e6, 300e6], "samples": 100,
        }

    def test_config_error_exit_code(self, tmp_path):
        config = write_config(tmp_path, {"trap": {"num_ions": -1}})
        assert main(["--config", config, "modes"]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "modes"]) == 2


class TestOptimizeCommand:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("optimize")
        config = write_config(tmp_path, FAST_OPTIMIZE)
        out = tmp_path / "out"
        code = main(["--config", config, "--out", str(out), "optimize"])
        assert code == 0
        return tmp_path, config, out

    def test_outputs_exist(self, run_dir):
        _, _, out = run_dir
        for name in ("result.json", "trajectory.csv", "summary.txt"):
            assert (out / name).exists()

    def test_result_schema(self, run_dir):
        _, _, out = run_dir
        data = json.loads((out / "result.json").read_text())
        for key in ("schema_version", "seed", "sequence", "train", "report_ideal",
                    "chain", "adjusted_fidelity", "telemetry", "provenance"):
            assert key in data
        assert data["schema_version"] == 1
        assert data["seed"] == 5

    def test_deterministic_files(self, run_dir, tmp_path):
        tmp_root, config, out = run_dir
        out2 = tmp_path / "again"
        assert main(["--config", config, "--out", str(out2), "optimize"]) == 0
        first = (out / "result.json").read_text()
        second = (out2 / "result.json").read_text()
        assert first == second
        assert (out / "trajectory.csv").read_text() == (out2 / "trajectory.csv").read_text()

    def test_seed_flag_overrides(self, run_dir, tmp_path):
        _, config, out = run_dir
        out3 = tmp_path / "seeded"
        assert main(["--config", config, "--seed", "77", "--out", str(out3), "optimize"]) == 0
        data = json.loads((out3 / "result.json").read_text())
        assert data["seed"] == 77

    def test_cold_temperature_runs(self, tmp_path):
        # hbar w / kB T is far past where e^x - 1 overflows at 10 nK
        data = {"thermal": {"temperature_k": 1e-8}, "trap": {"num_ions": 2},
                "stage1": {"targets": "edge", "gate_time_scan_us": [1.0], "top_k": 1}}
        out = tmp_path / "out"
        assert main(["--config", write_config(tmp_path, data), "--out", str(out), "optimize"]) == 0
        assert json.loads((out / "result.json").read_text())["thermal"] == {"temperature_k": 1e-8}

    def test_femtosecond_grid_runs(self, tmp_path):
        # 1e9 MHz: each 1 us gate spans 1e9 slots, placed without listing them
        data = {"trap": {"num_ions": 2},
                "stage1": {"targets": "edge", "gate_time_scan_us": [1.0], "top_k": 1},
                "stage2": {"repetition_rate_mhz": 1e9}}
        out = tmp_path / "out"
        assert main(["--config", write_config(tmp_path, data), "--out", str(out), "optimize"]) == 0
        assert json.loads((out / "result.json").read_text())["train"]["rep_rate_hz"] == 1e15

    @pytest.mark.parametrize("rate_mhz", [1e10, 6e10])
    def test_grids_below_the_slot_limit_run(self, tmp_path, rate_mhz):
        # 1e10 and 6e10 slots per 1 us gate: the kick times resolve the grid
        # only to a few 1e-6 periods there, which the grid check allows
        data = {"trap": {"num_ions": 2},
                "stage1": {"targets": "edge", "gate_time_scan_us": [1.0], "top_k": 1},
                "stage2": {"repetition_rate_mhz": rate_mhz}}
        out = tmp_path / "out"
        assert main(["--config", write_config(tmp_path, data), "--out", str(out), "optimize"]) == 0
        train = json.loads((out / "result.json").read_text())["train"]
        assert train["rep_rate_hz"] == rate_mhz * 1e6

    def test_grid_past_the_slot_limit_exits_2(self, tmp_path, capsys):
        # 1e11 slots per 1 us gate, more than 2**36
        data = {"trap": {"num_ions": 2},
                "stage1": {"targets": "edge", "gate_time_scan_us": [1.0], "top_k": 1},
                "stage2": {"repetition_rate_mhz": 1e11}}
        out = tmp_path / "out"
        assert main(["--config", write_config(tmp_path, data), "--out", str(out), "optimize"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "stage2.repetition_rate_mhz too high" in lines[0]
        assert not (out / "result.json").exists()

    def test_evaluate_round_trip(self, run_dir, capsys):
        _, _, out = run_dir
        code = main(["evaluate", str(out / "result.json")])
        assert code == 0
        assert "reproduced to 1e-12" in capsys.readouterr().out

    def test_evaluate_detects_tampering(self, run_dir, tmp_path):
        _, _, out = run_dir
        data = json.loads((out / "result.json").read_text())
        data["report_ideal"]["ideal_inf"] *= 1.5
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        assert main(["evaluate", str(tampered)]) == 3

    @pytest.mark.parametrize("block, key", [("report_ideal", "ideal_inf"),
                                            (None, "adjusted_fidelity")])
    def test_evaluate_treats_nan_as_a_mismatch(self, run_dir, tmp_path, capsys, block, key):
        _, _, out = run_dir
        data = json.loads((out / "result.json").read_text())
        (data[block] if block else data)[key] = math.nan
        tampered = tmp_path / "nan.json"
        tampered.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["evaluate", str(tampered)]) == 3
        assert "MISMATCH" in capsys.readouterr().out


class TestEvaluatePulseCounting:
    @pytest.fixture(scope="class")
    def sdk_counted(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("sdks")
        data = json.loads(json.dumps(FAST_OPTIMIZE))
        data["stage1"].update(gate_time_scan_us=[1.0], pulse_counting="sdks", epsilon=1e-3)
        out = tmp_path / "out"
        assert main(["--config", write_config(tmp_path, data), "--out", str(out), "optimize"]) == 0
        return out / "result.json"

    def test_evaluate_uses_the_stored_counting(self, sdk_counted, capsys):
        stored = json.loads(sdk_counted.read_text())
        assert stored["report_ideal"]["pulses"] == len(stored["train"]["kicks"])
        capsys.readouterr()
        assert main(["evaluate", str(sdk_counted)]) == 0
        printed = capsys.readouterr().out
        assert f"{stored['adjusted_fidelity']:.9f}" in printed
        assert "reproduced to 1e-12" in printed

    @pytest.mark.parametrize("key", ["pulses", "adjusted_fidelity"])
    def test_evaluate_checks_pulses_and_adjusted_fidelity(self, sdk_counted, tmp_path, key):
        data = json.loads(sdk_counted.read_text())
        if key == "pulses":
            data["report_ideal"]["pulses"] *= 2
        else:
            data["adjusted_fidelity"] -= 1e-3
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        assert main(["evaluate", str(tampered)]) == 3

    def test_unknown_stored_counting_exits_2(self, sdk_counted, tmp_path, capsys):
        data = json.loads(sdk_counted.read_text())
        data["provenance"]["config"]["stage1"]["pulse_counting"] = "pairs"
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(data))
        assert main(["evaluate", str(path)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "'pairs'" in lines[0]


_UNPHYSICAL_CHAIN = ("chain values must be finite, with positive mode frequencies, ion mass and "
                     "wavenumber")


def _past_the_error_model(stored):
    """Store epsilon at 2 / N_p with the adjusted fidelity (1 - N_p epsilon)^2
    (1 - ideal) that goes with it: a result `Stage1Config` would refuse,
    whose fidelity grows with N_p and which re-scores consistently."""
    report = stored["report_ideal"]
    stored["epsilon"] = 2.0 / report["pulses"]
    stored["adjusted_fidelity"] = ((1.0 - report["pulses"] * stored["epsilon"]) ** 2
                                   * (1.0 - report["ideal_inf"]))


class TestEvaluateInputErrors:
    def _exit_and_message(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        return code, err.strip().splitlines()

    def test_missing_file(self, tmp_path, capsys):
        code, lines = self._exit_and_message(["evaluate", str(tmp_path / "nope.json")], capsys)
        assert code == 2
        assert len(lines) == 1 and "nope.json" in lines[0]

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, lines = self._exit_and_message(["evaluate", str(path)], capsys)
        assert code == 2
        assert len(lines) == 1 and "broken.json" in lines[0]

    def test_missing_key(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"epsilon": 1e-5, "thermal": {"nbar": 0.1}}))
        code, lines = self._exit_and_message(["evaluate", str(path)], capsys)
        assert code == 2
        assert len(lines) == 1 and "'chain'" in lines[0]

    @pytest.fixture(scope="class")
    def stored_n5(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("n5")
        data = json.loads(json.dumps(FAST_OPTIMIZE))
        data["trap"]["num_ions"] = 5
        data["stage1"].update(targets=[2, 3], gate_time_scan_us=[1.0], top_k=1)
        out = tmp_path / "out"
        assert main(["--config", write_config(tmp_path, data), "--out", str(out), "optimize"]) == 0
        return json.loads((out / "result.json").read_text())

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["chain"].update(couplings=d["chain"]["couplings"][:-1]),
         "chain arrays do not all fit 5 ions"),
        (lambda d: d["chain"].update(mode_freqs_rad_s=d["chain"]["mode_freqs_rad_s"][:-1]),
         "chain arrays do not all fit 5 ions"),
        (lambda d: d["train"].update(targets=[7, 8]),
         "train targets [7, 8] are not two ions of the 5-ion chain"),
        (lambda d: d["train"].update(targets=[2, 2]),
         "train targets [2, 2] are not two ions of the 5-ion chain"),
        (lambda d: d["thermal"].update(nbar=[0.1, 0.2, 0.3]), "expected 5 occupations, got 3"),
        (lambda d: d["train"].update(rep_rate_hz=0.0),
         "repetition rate must be positive and finite"),
        (lambda d: d["train"].update(rep_rate_hz=-3e8),
         "repetition rate must be positive and finite"),
        (lambda d: d.update(epsilon=-1e-5), "epsilon -1e-05 is not a non-negative finite number"),
        (_past_the_error_model, "pulses of the train must be below 1"),
    ], ids=["couplings", "mode_freqs", "targets", "same_target", "nbar", "zero_rate",
            "negative_rate", "negative_epsilon", "n_p_epsilon_2"])
    def test_parts_that_do_not_fit_together(self, stored_n5, tmp_path, capsys, edit, message):
        self._check_edit_exits_2(stored_n5, tmp_path, capsys, edit, message)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(epsilon=True), "epsilon must be a number, not True"),
        (lambda d: d["thermal"].update(nbar=True), "thermal.nbar must be a number, not True"),
        (lambda d: next(k for k in d["train"]["kicks"] if k["sign"] == -1).update(sign=True),
         "train kick sign must be an integer, not True"),
        (lambda d: d["chain"].update(ion_mass_kg=True),
         "chain.ion_mass_kg must be a number, not True"),
        (lambda d: d.update(epsilon="1e-5"), "epsilon must be a number, not '1e-5'"),
        (lambda d: d["train"].update(targets=[True, 2]),
         "train.targets entry must be an integer, not True"),
    ], ids=["true_epsilon", "true_nbar", "true_sign", "true_mass", "string_epsilon",
            "true_target"])
    def test_booleans_and_strings_are_not_numbers(self, stored_n5, tmp_path, capsys, edit,
                                                  message):
        self._check_edit_exits_2(stored_n5, tmp_path, capsys, edit, message)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(thermal={"temperature_k": math.inf}),
         "temperature must be non-negative and finite"),
        (lambda d: d.update(thermal={"nbar": math.nan}),
         "mean occupations must be non-negative and finite"),
        (lambda d: d.update(thermal={"nbar": math.inf}),
         "mean occupations must be non-negative and finite"),
        (lambda d: d.update(thermal={"nbar": [0.1, 0.1, math.nan, 0.1, 0.1]}),
         "mean occupations must be non-negative and finite"),
        (lambda d: d.update(thermal={"nbar": [0.1, math.inf, 0.1, 0.1, 0.1]}),
         "mean occupations must be non-negative and finite"),
        (lambda d: d["chain"].update(ion_mass_kg=0.0), _UNPHYSICAL_CHAIN),
        (lambda d: d["chain"].update(ion_mass_kg=-6.6e-26), _UNPHYSICAL_CHAIN),
        (lambda d: d["chain"]["mode_freqs_rad_s"].__setitem__(0, 0.0), _UNPHYSICAL_CHAIN),
        (lambda d: d["chain"]["mode_freqs_rad_s"].__setitem__(1, -1e7), _UNPHYSICAL_CHAIN),
        (lambda d: d["chain"]["mode_freqs_rad_s"].__setitem__(2, math.nan),
         _UNPHYSICAL_CHAIN),
        (lambda d: d["chain"].update(wavenumber_m=math.inf), _UNPHYSICAL_CHAIN),
        (lambda d: d["chain"]["couplings"][0].__setitem__(0, math.inf),
         _UNPHYSICAL_CHAIN),
    ], ids=["inf_temperature", "nan_nbar", "inf_nbar", "nan_nbar_entry", "inf_nbar_entry",
            "zero_mass", "negative_mass", "zero_frequency", "negative_frequency",
            "nan_frequency", "inf_wavenumber", "inf_coupling"])
    def test_values_that_are_not_physical(self, stored_n5, tmp_path, capsys, edit, message):
        self._check_edit_exits_2(stored_n5, tmp_path, capsys, edit, message)

    def _check_edit_exits_2(self, stored_n5, tmp_path, capsys, edit, message):
        data = json.loads(json.dumps(stored_n5))
        edit(data)
        path = tmp_path / "mismatched.json"
        path.write_text(json.dumps(data))
        code, lines = self._exit_and_message(["evaluate", str(path)], capsys)
        assert code == 2
        assert len(lines) == 1 and message in lines[0]


class TestSweepCommand:
    def test_epsilon_sweep(self, tmp_path):
        data = dict(FAST_OPTIMIZE)
        data["sweep"] = {"variable": "epsilon", "values": [1e-5, 1e-4, 1e-3]}
        config = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["--config", config, "--out", str(out), "sweep"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# provenance:")
        header = lines[1].split(",")
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 3
        column = header.index("adjusted_infidelity")
        values = [float(r[column]) for r in rows]
        assert values[0] < values[1] < values[2]

    def test_temperature_sweep_monotone(self, tmp_path):
        data = dict(FAST_OPTIMIZE)
        data["sweep"] = {"variable": "temperature", "values": [1e-5, 1e-4, 1e-3]}
        config = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["--config", config, "--out", str(out), "sweep"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[1].split(",")
        column = header.index("motional_infidelity")
        values = [float(line.split(",")[column]) for line in lines[2:]]
        assert values == sorted(values)

    def test_temperature_sweep_matches_per_value_evaluation(self, tmp_path, monkeypatch):
        from fastgate import cli, optimize
        from fastgate.chain import TrapConfig, build_chain
        from fastgate.fidelity import ThermalSpec, evaluate_train
        from fastgate.sequence import PulseGroupSequence, expand_groups

        chain = build_chain(TrapConfig(num_ions=2))
        thermal = ThermalSpec(nbar=0.1)
        sequence = PulseGroupSequence.from_half([2, -1], [0.2e-6, 0.4e-6], (0, 1), 0.8e-6)
        train = expand_groups(sequence, 300e6)
        result = optimize.OptimizationResult(
            sequence=sequence, train=train, report=evaluate_train(train, chain, thermal),
            epsilon=1e-5, adjusted_fidelity=0.99, thermal=thermal, seed=5,
        )
        monkeypatch.setattr(cli, "_optimize_once", lambda config, threads: (chain, result))
        values = [1e-5, 3e-4, 1e-3, 2e-2]
        data = dict(FAST_OPTIMIZE)
        data["sweep"] = {"variable": "temperature", "values": values}
        config = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["--config", config, "--out", str(out), "sweep"]) == 0

        rows = []
        for value in values:
            hot = evaluate_train(train, chain, ThermalSpec(nbar=None, temperature=value))
            rows.append(cli._sweep_row("temperature", value, hot,
                                       hot.adjusted_infidelity(result.epsilon), result))
        expected = tmp_path / "expected.csv"
        cli._write_csv(expected, cli._provenance(load_run_config_file(config)),
                       cli.SWEEP_HEADER, rows)
        assert (out / "sweep.csv").read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("variable, values", [
        ("repetition_rate", [300.0, 600.0]),
        ("temperature", [1e-4, 1e-3]),
    ], ids=["repetition_rate", "temperature"])
    def test_sweep_uses_pulse_counting(self, tmp_path, variable, values):
        data = json.loads(json.dumps(FAST_OPTIMIZE))
        data["stage1"].update(top_k=1, pulse_counting="sdks")
        data["sweep"] = {"variable": variable, "values": values}
        config = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["--config", config, "--out", str(out), "sweep"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[1].split(",")
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 2
        for row in rows:
            assert row[header.index("pulse_count")] == row[header.index("sdk_count")]

    def test_num_ions_sweep_keeps_the_axial_frequency(self, tmp_path, monkeypatch):
        from fastgate import cli, optimize
        from fastgate.chain import TrapConfig, build_chain
        from fastgate.fidelity import ThermalSpec, evaluate_train
        from fastgate.sequence import PulseGroupSequence, expand_groups

        chain = build_chain(TrapConfig(num_ions=2))
        thermal = ThermalSpec(nbar=0.1)
        sequence = PulseGroupSequence.from_half([2, -1], [0.2e-6, 0.4e-6], (0, 1), 0.8e-6)
        train = expand_groups(sequence, 300e6)
        result = optimize.OptimizationResult(
            sequence=sequence, train=train, report=evaluate_train(train, chain, thermal),
            epsilon=1e-5, adjusted_fidelity=0.99, thermal=thermal, seed=5,
        )
        traps = []

        def recording_build_chain(trap):
            traps.append(trap)
            return build_chain(trap)

        monkeypatch.setattr(cli, "build_chain", recording_build_chain)
        monkeypatch.setattr(cli, "optimize_gate", lambda *args, **kwargs: result)
        data = json.loads(json.dumps(FAST_OPTIMIZE))
        data["trap"] = {"num_ions": 3, "axial_freq_mhz": 1.0}
        data["sweep"] = {"variable": "num_ions", "values": [2, 4]}
        config = write_config(tmp_path, data)
        assert main(["--config", config, "--out", str(tmp_path / "out"), "sweep"]) == 0
        assert [trap.num_ions for trap in traps] == [2, 4]
        assert all(trap.axial_freq == 2.0 * math.pi * 1e6 for trap in traps)

    def test_sweep_without_block_fails(self, tmp_path):
        config = write_config(tmp_path, FAST_OPTIMIZE)
        assert main(["--config", config, "--out", str(tmp_path / "o"), "sweep"]) == 2


class TestStarkCommand:
    def test_default_scenario(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["--out", str(out), "stark"])
        assert code == 0
        text = capsys.readouterr().out
        assert "D3/2" in text and "D5/2" in text
        data = json.loads((out / "stark.json").read_text())
        assert abs(data["phase_per_pulse_rad"]) == pytest.approx(6.51e-6, rel=0.02)
        assert data["pulse_pairs"] == 30

    def test_bad_data_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["--out", str(tmp_path), "stark", "--atomic-data", str(bad)]) == 2

    def _exit_and_lines(self, argv, capsys):
        capsys.readouterr()
        code = main(argv)
        return code, capsys.readouterr().err.strip().splitlines()

    def test_route_at_the_drive_wavelength_exits_2(self, tmp_path, capsys):
        from fastgate.stark import load_atomic_data

        data = load_atomic_data()
        data["qubit_levels"][1]["transitions"][0]["wavelength_nm"] = data["drive"]["wavelength_nm"]
        resonant = tmp_path / "resonant.json"
        resonant.write_text(json.dumps(data))
        out = tmp_path / "out"
        code, lines = self._exit_and_lines(
            ["--out", str(out), "stark", "--atomic-data", str(resonant)], capsys
        )
        assert code == 2
        assert len(lines) == 1 and "resonant" in lines[0]
        assert not (out / "stark.json").exists()

    def test_negative_pairs_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, lines = self._exit_and_lines(["--out", str(out), "stark", "--pairs", "-1"], capsys)
        assert code == 2
        assert len(lines) == 1 and "--pairs" in lines[0]
        assert not (out / "stark.json").exists()

    @pytest.mark.parametrize("rate", ["-1", "nan", "inf"])
    def test_bad_rabi_rate_exits_2_naming_the_flag(self, tmp_path, capsys, rate):
        out = tmp_path / "out"
        code, lines = self._exit_and_lines(
            ["--out", str(out), "stark", "--rabi-rate", rate], capsys
        )
        assert code == 2
        assert len(lines) == 1 and "--rabi-rate" in lines[0]
        assert not (out / "stark.json").exists()


class TestInfeasibleCandidates:
    def test_optimize_exits_3_when_no_candidate_is_left(self, tmp_path, capsys, monkeypatch):
        from fastgate import optimize
        from fastgate.sequence import GridResolutionError

        def never(*args, **kwargs):
            raise GridResolutionError("rate cannot express the timings")

        monkeypatch.setattr(optimize, "stage2", never)
        config = write_config(tmp_path, FAST_OPTIMIZE)
        assert main(["--config", config, "--out", str(tmp_path / "o"), "optimize"]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "all 2 stage-1 candidates are infeasible" in err

    def test_repetition_rate_sweep_drops_an_infeasible_candidate(self, tmp_path, monkeypatch):
        from fastgate import optimize
        from fastgate.sequence import GridResolutionError

        real = optimize.stage2
        calls = []

        def failing_first(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise GridResolutionError("rate cannot express the timings")
            return real(*args, **kwargs)

        monkeypatch.setattr(optimize, "stage2", failing_first)
        data = json.loads(json.dumps(FAST_OPTIMIZE))
        data["sweep"] = {"variable": "repetition_rate", "values": [300.0, 600.0]}
        config = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["--config", config, "--out", str(out), "sweep"]) == 0
        assert len(calls) == 4
        assert len((out / "sweep.csv").read_text().splitlines()) == 4


class TestSweepSkipsInfeasibleValues:
    def test_repetition_rate_sweep_writes_the_feasible_rows(self, tmp_path, capsys):
        data = {"trap": {"num_ions": 2},
                "stage1": {"targets": "edge", "gate_time_scan_us": [1.0], "top_k": 2},
                "stage2": {"local_restarts": 0}, "seed": 1,
                "sweep": {"variable": "repetition_rate", "values": [300, 0.5]}}
        config = write_config(tmp_path, data)
        out = tmp_path / "out"
        # no timing of either candidate fits the 2 us grid of 0.5 MHz
        assert main(["--config", config, "--out", str(out), "sweep"]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert "repetition_rate=0.5 skipped" in lines[0] and "infeasible" in lines[0]
        rows = (out / "sweep.csv").read_text().splitlines()[2:]
        assert [row.split(",")[:2] for row in rows] == [["repetition_rate", "300"]]

    def test_num_ions_sweep_writes_the_feasible_rows(self, tmp_path, capsys, monkeypatch):
        from fastgate import cli
        from fastgate.sequence import GridResolutionError

        real = cli.optimize_gate

        def failing_at_three(chain, *args, **kwargs):
            if chain.num_ions == 3:
                raise GridResolutionError("rate cannot express the timings")
            return real(chain, *args, **kwargs)

        monkeypatch.setattr(cli, "optimize_gate", failing_at_three)
        data = json.loads(json.dumps(FAST_OPTIMIZE))
        data["sweep"] = {"variable": "num_ions", "values": [2, 3]}
        config = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["--config", config, "--out", str(out), "sweep"]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == ["numerical failure: num_ions=3 skipped: rate cannot express the timings"]
        rows = (out / "sweep.csv").read_text().splitlines()[2:]
        assert [row.split(",")[:2] for row in rows] == [["num_ions", "2"]]


def _csv_writer_body(train, chain) -> bytes:
    """trajectory.csv after its provenance line, as csv.writer writes the
    header and the `trajectory_samples` rows of both basis states."""
    import csv
    import io

    from fastgate.dynamics import trajectory_samples

    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["time_s", "mode", "Q_m", "V_m", "s_mu", "s_nu"])
    for basis in ((1, 1), (1, -1)):
        for t, m, q, v in trajectory_samples(train, chain, basis):
            writer.writerow([f"{t:.12e}", m, f"{q:.12e}", f"{v:.12e}",
                             f"{basis[0]}", f"{basis[1]}"])
    return expected.getvalue().encode("utf-8")


def _written_body(path) -> bytes:
    provenance, body = path.read_bytes().split(b"\n", 1)
    assert provenance.startswith(b"# provenance: ")
    return body


class TestTrajectoryCsv:
    def test_bytes_match_csv_writer(self, tmp_path):
        from fastgate.chain import ChainModel
        from fastgate.sequence import KickTrain

        config = write_config(tmp_path, FAST_OPTIMIZE)
        out = tmp_path / "o"
        assert main(["--config", config, "--out", str(out), "optimize"]) == 0
        document = json.loads((out / "result.json").read_text())
        chain = ChainModel.from_json_dict(document["chain"])
        train = KickTrain.from_json_dict(document["train"])
        assert _written_body(out / "trajectory.csv") == _csv_writer_body(train, chain)

    @pytest.mark.parametrize("kind", ["instantaneous", "no_kicks"])
    def test_streamed_bytes_match_csv_writer(self, tmp_path, chain5, kind):
        # coincident kicks skip their zero-length segments; a train with no
        # kicks has no samples
        from fastgate.cli import _write_trajectory_csv
        from fastgate.sequence import KickTrain, PulseGroupSequence, instantaneous_train

        if kind == "instantaneous":
            sequence = PulseGroupSequence.from_half(
                [2, -3, 1], [80e-9, 150e-9, 260e-9], (2, 3), 0.6e-6)
            train = instantaneous_train(sequence)
            assert train.num_kicks == 12 and len(set(train.kick_times)) == 6
        else:
            train = KickTrain((), (), (2, 3), 300e6)
        path = tmp_path / "trajectory.csv"
        _write_trajectory_csv(path, {"seed": 0}, train, chain5)
        assert _written_body(path) == _csv_writer_body(train, chain5)

    def test_writing_holds_one_block_at_a_time(self, tmp_path):
        # N=50, 72 kicks at 300 MHz: 2 x 46 250 rows, which as lists of row
        # tuples peaked at 7.1 MB
        import tracemalloc

        from fastgate.chain import TrapConfig, build_chain
        from fastgate.cli import _write_trajectory_csv
        from fastgate.sequence import PulseGroupSequence, expand_groups

        chain = build_chain(TrapConfig(num_ions=50))
        # six alternating bursts of six kicks per half, 50 ns apart
        sequence = PulseGroupSequence.from_half(
            [6, -6] * 3, [50e-9 * (k + 1) for k in range(6)], (0, 1), 0.7e-6)
        train = expand_groups(sequence, 300e6)
        assert train.num_kicks == 72
        tracemalloc.start()
        try:
            _write_trajectory_csv(tmp_path / "trajectory.csv", {"seed": 0}, train, chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestNoCandidates:
    def test_optimize_exits_3_when_stage1_finds_nothing(self, tmp_path, capsys, monkeypatch):
        from fastgate import optimize

        def empty(*args, **kwargs):
            return [], {"stage1_evaluations": 0, "stage1_candidates": 0}

        monkeypatch.setattr(optimize, "stage1", empty)
        config = write_config(tmp_path, FAST_OPTIMIZE)
        assert main(["--config", config, "--out", str(tmp_path / "o"), "optimize"]) == 3
        err = capsys.readouterr().err
        assert err.strip().splitlines() == ["numerical failure: stage 1 produced no candidates"]
        assert not (tmp_path / "o" / "result.json").exists()


# stage 1's only find at 0.2 us, on a 10 MHz grid, is the kick-less vector
# and one pattern the grid cannot express
ONLY_KICK_LESS = {"trap": {"num_ions": 3},
                  "stage1": {"targets": "edge", "gate_time_scan_us": [0.2], "top_k": 1,
                             "max_sdks": 4},
                  "stage2": {"repetition_rate_mhz": 10}}
# with one bound level of 1 on two groups, the kick-less vector scores
# (2/3)(pi/4)^2 = 0.411, below every gate of the grid
KICK_LESS_FIRST = {"trap": {"num_ions": 2},
                   "stage1": {"targets": "edge", "gate_time_scan_us": [1.0], "top_k": 1,
                              "z_bound_max": 1, "group_count": 2}}
# a 50 ns scan with a 2-SDK cap finds nothing but the kick-less vector
NOTHING_BUT_KICK_LESS = {"trap": {"num_ions": 2},
                         "stage1": {"targets": "edge", "gate_time_scan_us": [0.05], "top_k": 1,
                                    "group_count": 20, "z_bound_max": 1, "restarts": 0,
                                    "max_sdks": 2},
                         "sweep": {"variable": "repetition_rate", "values": [300.0]}}


class TestKickLessVector:
    def test_a_run_left_with_an_inexpressible_gate_exits_3(self, tmp_path, capsys):
        config = write_config(tmp_path, ONLY_KICK_LESS)
        assert main(["--config", config, "--out", str(tmp_path / "o"), "optimize"]) == 3
        assert capsys.readouterr().err.strip().splitlines() == [
            "numerical failure: all 1 stage-1 candidates are infeasible at 1e+07 Hz; first: "
            "repetition rate 1e+07 Hz cannot express any timing found for gate time 2e-07 s"
        ]
        assert not (tmp_path / "o" / "result.json").exists()

    def test_the_winner_has_kicks(self, tmp_path):
        config = write_config(tmp_path, KICK_LESS_FIRST)
        out = tmp_path / "o"
        assert main(["--config", config, "--out", str(out), "optimize"]) == 0
        data = json.loads((out / "result.json").read_text())
        assert data["sequence"]["group_sizes"] == [1, -1]
        assert data["report_ideal"]["ideal_inf"] == pytest.approx(4.040e-1, abs=5e-5)
        assert "SDK count             : 2 (4 pi pulses)" in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    def test_no_candidate_exits_3(self, tmp_path, capsys, command):
        config = write_config(tmp_path, NOTHING_BUT_KICK_LESS)
        out = tmp_path / "o"
        assert main(["--config", config, "--out", str(out), command]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        reason = "stage 1 produced no candidates"
        if command == "optimize":
            assert lines == [f"numerical failure: {reason}"]
            assert not (out / "result.json").exists()
        else:
            assert lines == [f"numerical failure: repetition_rate=300 skipped: {reason}"]
            # the provenance line and the header, no row
            assert len((out / "sweep.csv").read_text().splitlines()) == 2


class TestConfigErrorsBeforeRunning:
    @pytest.mark.parametrize("block, setting, message", [
        ("stage1", {"top_k": 0}, "stage1.top_k must be a positive integer"),
        ("stage1", {"group_count": 3}, "group_count must be a positive even integer"),
        ("stage1", {"group_count": 8.0}, "stage1.group_count must be a positive integer"),
        ("stage1", {"pulse_counting": "bogus"}, "pulse_counting"),
        ("stage2", {"local_restarts": 50}, "local_restarts must be in 0..7"),
        ("stage1", {"targets": [0, 0]}, "stage1.targets [0, 0] is not a neighbouring pair"),
        ("stage1", {"targets": [0, 2]}, "stage1.targets [0, 2] is not a neighbouring pair"),
        ("thermal", {"nbar": [0.1, 0.2, 0.3]}, "thermal.nbar has 3 entries for 2 modes"),
    ])
    def test_optimize_exits_2_with_one_line(self, tmp_path, capsys, block, setting, message):
        data = json.loads(json.dumps(FAST_OPTIMIZE))
        data.setdefault(block, {}).update(setting)
        config = write_config(tmp_path, data)
        out = tmp_path / "o"
        assert main(["--config", config, "--out", str(out), "optimize"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and message in lines[0]
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("block, key", [
        ("stage1", "group_count"),
        ("stage1", "top_k"),
        ("stage1", "restarts"),
        ("stage1", "max_sdks"),
        ("stage1", "z_bound_max"),
        ("stage2", "local_restarts"),
        ("sweep", "samples"),
    ])
    def test_boolean_for_an_integer_exits_2_with_one_line(self, tmp_path, capsys, block, key):
        data = json.loads(json.dumps(FAST_OPTIMIZE))
        data["sweep"] = {"variable": "epsilon", "values": [1e-5]}
        data[block][key] = True
        config = write_config(tmp_path, data)
        out = tmp_path / "o"
        assert main(["--config", config, "--out", str(out), "sweep"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and f"{block}.{key} must be a" in lines[0]
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("variable, value", [
        ("temperature", -1e-3),
        ("jitter", -0.01),
        ("jitter", 1.0),
        ("jitter", 1.5),
        ("epsilon", -1e-4),
        ("repetition_rate", -300.0),
        ("repetition_rate", 0.0),
        ("num_ions", 2.5),
        ("num_ions", 3.7),
    ])
    def test_sweep_value_out_of_range_exits_2(self, tmp_path, capsys, monkeypatch,
                                              variable, value):
        from fastgate import cli

        def no_work(*args, **kwargs):
            raise AssertionError("the sweep started before its values were checked")

        monkeypatch.setattr(cli, "build_chain", no_work)
        data = json.loads(json.dumps(FAST_OPTIMIZE))
        data["sweep"] = {"variable": variable, "values": [value]}
        config = write_config(tmp_path, data)
        out = tmp_path / "o"
        assert main(["--config", config, "--out", str(out), "sweep"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and f"sweep over {variable}" in lines[0]
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("data, command, message", [
        ({"trap": {"num_ions": 2}, "stage1": {"targets": "edge", "gate_time_scan_us": [1.0],
                                             "top_k": 2, "epsilon": 0.02}},
         "optimize", "stage1: epsilon 0.02 times the 200 pulses of max_sdks must be below 1"),
        ({"trap": {"num_ions": 2}, "stage1": {"targets": "edge", "gate_time_scan_us": [1.0]},
          "sweep": {"variable": "epsilon", "values": [1e-5, 0.01]}},
         "sweep", "sweep over epsilon: epsilon 0.01 times the 200 pulses of max_sdks must be "
                  "below 1"),
    ], ids=["optimize", "sweep"])
    def test_pulse_error_past_its_model_exits_2(self, tmp_path, capsys, monkeypatch, data,
                                                command, message):
        # at N_p epsilon >= 1, (1 - N_p epsilon)^2 grows with N_p: both stages
        # would prefer the longest gates, and the adjusted fidelity could pass 1
        from fastgate import cli

        def no_work(*args, **kwargs):
            raise AssertionError("the command started before epsilon was checked")

        monkeypatch.setattr(cli, "build_chain", no_work)
        out = tmp_path / "o"
        assert main(["--config", write_config(tmp_path, data), "--out", str(out), command]) == 2
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and message in lines[0] and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("block, setting, values, message", [
        ("thermal", {"nbar": [0.1, 0.2]}, [2, 3], "thermal.nbar has 2 entries for 3 modes"),
        ("stage1", {"targets": [2, 3]}, [5, 3], "target ions (2, 3) out of range for 3 ions"),
    ], ids=["nbar", "targets"])
    def test_num_ions_sweep_checks_every_count_before_running(
        self, tmp_path, capsys, monkeypatch, block, setting, values, message
    ):
        from fastgate import cli

        def no_work(*args, **kwargs):
            raise AssertionError("the sweep started before every N was checked")

        monkeypatch.setattr(cli, "build_chain", no_work)
        data = json.loads(json.dumps(FAST_OPTIMIZE))
        data.setdefault(block, {}).update(setting)
        data["sweep"] = {"variable": "num_ions", "values": values}
        config = write_config(tmp_path, data)
        out = tmp_path / "o"
        assert main(["--config", config, "--out", str(out), "sweep"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and message in lines[0]
        assert not (out / "sweep.csv").exists()

    def test_repetition_rate_sweep_past_the_slot_limit_exits_2(self, tmp_path, capsys,
                                                                monkeypatch):
        from fastgate import cli

        def no_work(*args, **kwargs):
            raise AssertionError("the sweep started before its rates were checked")

        monkeypatch.setattr(cli, "build_chain", no_work)
        data = json.loads(json.dumps(FAST_OPTIMIZE))
        data["sweep"] = {"variable": "repetition_rate", "values": [300.0, 1e308]}
        out = tmp_path / "o"
        assert main(["--config", write_config(tmp_path, data), "--out", str(out), "sweep"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "sweep.values too high" in lines[0]
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("sweep, message", [
        ({"variable": "epsilon", "values": ["abc"]}, "sweep.values must be numbers"),
        ({"variable": "temperature", "values": [None]}, "sweep.values must be numbers"),
        ({"variable": "jitter", "values": [True]}, "sweep.values must be numbers"),
        ({"variable": "num_ions", "values": [math.nan]}, "sweep values must be finite"),
        ({"variable": "num_ions", "start": 2, "stop": math.inf, "steps": 3},
         "sweep.stop must be a finite number"),
        ({"variable": "epsilon", "values": [10**400]}, "sweep values must be finite"),
        ({"variable": "epsilon", "start": 0, "stop": 10**400, "steps": 3},
         "sweep.stop must be a finite number"),
        ({"variable": "epsilon", "start": 0.0, "stop": 1e-3, "steps": 10_001},
         "sweep has more than 10000 steps"),
    ])
    def test_sweep_value_not_a_finite_number_exits_2(self, tmp_path, capsys, sweep, message):
        data = json.loads(json.dumps(FAST_OPTIMIZE))
        data["sweep"] = sweep
        config = write_config(tmp_path, data)
        out = tmp_path / "o"
        assert main(["--config", config, "--out", str(out), "sweep"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and message in lines[0]
        assert not (out / "sweep.csv").exists()


    @pytest.mark.parametrize("block, setting, message", [
        ("stage1", {"gate_time_scan_us": [True, 1.0]}, "gate_time_scan_us entry must be a"),
        ("stage1", {"gate_time_scan_us": ["1.0"]}, "gate_time_scan_us entry must be a"),
        ("stage1", {"gate_time_scan_us": [-1.0]}, "gate_time_scan_us entry must be pos"),
        ("stage1", {"gate_time_scan_us": [0]}, "gate_time_scan_us entry must be pos"),
        ("stage1", {"gate_time_scan_us": [math.inf]}, "gate_time_scan_us entry must be a"),
        ("stage1", {"gate_time_scan_us": {"start": 0.5, "stop": math.inf, "step": 0.1}},
         "scan.stop must be a finite number"),
        ("thermal", {"temperature_k": True}, "thermal.temperature_k must be a finite"),
        ("thermal", {"temperature_k": math.inf}, "thermal.temperature_k must be a finite"),
        ("thermal", {"nbar": True}, "thermal.nbar must be a finite number"),
        ("thermal", {"nbar": "0.1"}, "thermal.nbar must be a finite number"),
        ("thermal", {"nbar": math.inf}, "thermal.nbar must be a finite number"),
        ("thermal", {"nbar": [0.1, True]}, "thermal.nbar entry must be a finite number"),
        ("thermal", {"nbar": [0.1, math.inf]}, "thermal.nbar entry must be a finite number"),
        ("thermal", {"nbar": 10**400}, "thermal.nbar must be a finite number"),
        ("thermal", {"nbar": [0.1, 10**400]}, "thermal.nbar entry must be a finite number"),
        ("stage2", {"repetition_rate_mhz": 10**400},
         "stage2.repetition_rate_mhz must be a finite number"),
        # a rate past the float range, and one whose 1 us gate spans 1e16 slots
        ("stage2", {"repetition_rate_mhz": 1e308}, "stage2.repetition_rate_mhz too high"),
        ("stage2", {"repetition_rate_mhz": 1e16}, "stage2.repetition_rate_mhz too high"),
        ("stage1", {"gate_time_scan_us": {"start": 1.0, "stop": 10_001.0, "step": 1.0}},
         "stage1.gate_time_scan_us has more than 10000 entries"),
    ])
    def test_number_that_is_not_finite_or_positive_exits_2(self, tmp_path, capsys, monkeypatch,
                                                           block, setting, message):
        from fastgate import cli

        def no_work(*args, **kwargs):
            raise AssertionError("the gate was built before the config was checked")

        monkeypatch.setattr(cli, "build_chain", no_work)
        data = json.loads(json.dumps(FAST_OPTIMIZE))
        data.setdefault(block, {}).update(setting)
        config = write_config(tmp_path, data)
        out = tmp_path / "o"
        assert main(["--config", config, "--out", str(out), "optimize"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and message in lines[0]
        assert not (out / "result.json").exists()


class TestSweepWinner:
    def test_repetition_rate_sweep_picks_what_optimize_gate_picks(self, tmp_path, monkeypatch):
        from fastgate import cli, optimize
        from fastgate.chain import TrapConfig, build_chain
        from fastgate.fidelity import ThermalSpec, evaluate_train
        from fastgate.sequence import PulseGroupSequence, expand_groups

        chain = build_chain(TrapConfig(num_ions=2))
        thermal = ThermalSpec(nbar=0.1)
        results = []
        # equal adjusted fidelity, so the tie-breaks decide: the second has fewer SDKs
        for sizes in ([2, -1], [1, -1]):
            sequence = PulseGroupSequence.from_half(sizes, [0.2e-6, 0.4e-6], (0, 1), 0.8e-6)
            train = expand_groups(sequence, 300e6)
            results.append(optimize.OptimizationResult(
                sequence=sequence, train=train, report=evaluate_train(train, chain, thermal),
                epsilon=1e-5, adjusted_fidelity=0.99, thermal=thermal, seed=5,
            ))
        for module in (optimize, cli):
            monkeypatch.setattr(module, "stage1", lambda *args, **kwargs: (["candidate"], {}))
            monkeypatch.setattr(module, "refine_candidates", lambda *args, **kwargs: (results, 0))
        picked = optimize.optimize_gate(chain, None, None)
        assert picked.report.sdk_count == results[1].report.sdk_count < results[0].report.sdk_count

        data = json.loads(json.dumps(FAST_OPTIMIZE))
        data["sweep"] = {"variable": "repetition_rate", "values": [300.0]}
        config = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["--config", config, "--out", str(out), "sweep"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header, row = lines[1].split(","), lines[2].split(",")
        assert int(row[header.index("sdk_count")]) == picked.report.sdk_count
        assert row[header.index("gate_duration_us")] == f"{picked.gate_duration * 1e6:.6f}"


class TestIntegerLimits:
    @pytest.mark.parametrize("key, value, message", [
        ("seed", -1, "seed must be a non-negative integer"),
        ("max_sdks", 1, "stage1.max_sdks must be an integer of at least 2"),
        ("max_sdks", 0, "stage1.max_sdks must be an integer of at least 2"),
        ("z_bound_max", 10**6, "stage1.z_bound_max must be at most 10000"),
        ("z_bound_max", 10_001, "stage1.z_bound_max must be at most 10000"),
        ("restarts", 10_001, "stage1.restarts must be at most 10000"),
    ])
    def test_out_of_range_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                  key, value, message):
        from fastgate import cli

        def no_work(*args, **kwargs):
            raise AssertionError("the gate was built before the config was checked")

        monkeypatch.setattr(cli, "build_chain", no_work)
        data = json.loads(json.dumps(FAST_OPTIMIZE))
        (data if key == "seed" else data["stage1"])[key] = value
        config = write_config(tmp_path, data)
        out = tmp_path / "o"
        assert main(["--config", config, "--out", str(out), "optimize"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == [f"configuration error: {message}"]
        assert not (out / "result.json").exists()

    def test_negative_seed_flag_exits_2_with_one_line(self, tmp_path, capsys):
        config = write_config(tmp_path, FAST_OPTIMIZE)
        out = tmp_path / "o"
        assert main(["--config", config, "--seed", "-5", "--out", str(out), "optimize"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == ["configuration error: --seed must be a non-negative integer"]
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("samples", [10_001, 10**9])
    def test_jitter_samples_above_the_limit_exit_2(self, tmp_path, capsys, monkeypatch, samples):
        from fastgate import cli

        def no_work(*args, **kwargs):
            raise AssertionError("the sweep started before its samples were checked")

        monkeypatch.setattr(cli, "build_chain", no_work)
        data = json.loads(json.dumps(FAST_OPTIMIZE))
        data["sweep"] = {"variable": "jitter", "values": [1e-3], "samples": samples}
        config = write_config(tmp_path, data)
        out = tmp_path / "o"
        assert main(["--config", config, "--out", str(out), "sweep"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == ["configuration error: sweep.samples must be at most 10000"]
        assert not (out / "sweep.csv").exists()
        assert load_run_config({"sweep": {"variable": "jitter", "values": [1e-3],
                                          "samples": 10_000}}).jitter_samples == 10_000

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                    threads):
        from fastgate import cli

        def no_work(*args, **kwargs):
            raise AssertionError("the gate was built before --threads was checked")

        monkeypatch.setattr(cli, "build_chain", no_work)
        config = write_config(tmp_path, FAST_OPTIMIZE)
        out = tmp_path / "o"
        argv = ["--config", config, "--threads", threads, "--out", str(out), "optimize"]
        assert main(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == ["configuration error: --threads must be a positive integer"]
        assert not (out / "result.json").exists()

    def test_limits_are_inclusive(self):
        config = load_run_config({"seed": 0, "stage1": {
            "max_sdks": 2, "restarts": 10_000, "z_bound_max": 10_000}})
        assert (config.seed, config.stage1.max_sdks) == (0, 2)
        assert config.stage1.restarts == config.stage1.z_bound_max == 10_000

    def test_stage1_config_needs_two_sdks(self):
        from fastgate.optimize import Stage1Config

        with pytest.raises(ValueError):
            Stage1Config(targets=(0, 1), max_sdks=1)
        assert Stage1Config(targets=(0, 1), max_sdks=2).max_sdks == 2

    def test_stage1_config_needs_n_p_epsilon_below_1(self):
        from fastgate.optimize import Stage1Config

        # 100 SDKs are 200 pi pulses or 100 SDK pulses
        with pytest.raises(ValueError, match="times the 200 pulses of max_sdks"):
            Stage1Config(targets=(0, 1), epsilon=1.0 / 200.0)
        with pytest.raises(ValueError, match="times the 100 pulses of max_sdks"):
            Stage1Config(targets=(0, 1), epsilon=0.01, pulse_counting="sdks")
        assert Stage1Config(targets=(0, 1), epsilon=0.9 / 200.0).epsilon == 0.9 / 200.0
        assert Stage1Config(targets=(0, 1), epsilon=0.009, pulse_counting="sdks").max_sdks == 100


def test_python_dash_m_runs_the_cli(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import fastgate

    source = str(Path(fastgate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "m"
    done = subprocess.run([sys.executable, "-m", "fastgate", "--out", str(out), "modes"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "mode_freqs_rad_s" in json.loads((out / "modes.json").read_text())
