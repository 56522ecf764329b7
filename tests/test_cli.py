import copy
import csv
import json
from pathlib import Path

import pytest
import yaml

from fsmac.cli import main
from fsmac.config import KINDS, ConfigError, load_config

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))


CHAIN = {"states": ["G", "B"], "transition": [[0.9, 0.1], [0.1, 0.9]]}

XOR_CHANNEL = [
    [[[0.9, 0.1], [0.55, 0.45]], [[0.1, 0.9], [0.45, 0.55]]],
    [[[0.1, 0.9], [0.45, 0.55]], [[0.9, 0.1], [0.55, 0.45]]],
]

UNIFORM_POLICY = {
    "pU": [[1.0], [1.0]],
    "pX1": [[[0.5, 0.5], [0.5, 0.5]]],
    "pX2": [[[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]],
}


def write_config(tmp_path, payload, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def gaussian_payload(out_dir, c12=0.3, n_directions=4):
    return {
        "kind": "region-gaussian",
        "seed": 5,
        "output": {"dir": out_dir, "prefix": "reg"},
        "chain": copy.deepcopy(CHAIN),
        "delays": {"d1": 2, "d2": 2},
        "gaussian": {
            "n_sub": 1,
            "gains1": [[1.0], [0.1]],
            "gains2": [[1.0], [0.1]],
            "pbar1": 10.0,
            "pbar2": 10.0,
            "convention": "real",
        },
        "conferencing": {"c12": c12, "c21": 0.0},
        "solver": {"iterations": 60, "rounds": 3, "multistarts": 1},
        "trace": {"n_directions": n_directions},
    }


def simulate_payload(out_dir, n_list, r):
    return {
        "kind": "simulate",
        "seed": 2,
        "output": {"dir": out_dir, "prefix": "sim"},
        "chain": copy.deepcopy(CHAIN),
        "delays": {"d1": 1, "d2": 0},
        "channel": {"table": copy.deepcopy(XOR_CHANNEL)},
        "policy": copy.deepcopy(UNIFORM_POLICY),
        "rates": {"r0": 0.0, "r1": r, "r2": r},
        "sim": {"n_list": n_list, "epsilon": 0.1, "trials": 5},
    }


def discrete_payload(out_dir):
    return {
        "kind": "region-discrete",
        "seed": 3,
        "output": {"dir": out_dir, "prefix": "disc"},
        "chain": copy.deepcopy(CHAIN),
        "delays": {"d1": 1, "d2": 1},
        "channel": {"table": copy.deepcopy(XOR_CHANNEL)},
        "conferencing": {"c12": 0.2, "c21": 0.0},
        "search": {"u_size": 1, "grid_levels": 3, "restarts": 2,
                   "weights": [[1.0, 1.0]]},
    }


def sumrate_payload(out_dir):
    return {
        "kind": "sweep-sumrate",
        "seed": 4,
        "output": {"dir": out_dir, "prefix": "sum"},
        "chain": copy.deepcopy(CHAIN),
        "gaussian": copy.deepcopy(gaussian_payload(out_dir)["gaussian"]),
        "delay_cases": [{"d1": 2, "d2": 2}, {"d1": "inf", "d2": 2}],
        "c_list": [0.0, 0.6],
        "solver": {"iterations": 60, "rounds": 3, "multistarts": 1},
    }


def correlation_payload(out_dir):
    return {
        "kind": "sweep-correlation",
        "seed": 1,
        "output": {"dir": out_dir, "prefix": "corr"},
        "conferencing": {"c12": 0.3, "c21": 0.3},
        "snr_db": [-5.0, 10.0],
        "solver": {"iterations": 120, "rounds": 4, "multistarts": 0},
    }


def asymptotics_payload(out_dir):
    return {
        "kind": "asymptotics",
        "output": {"dir": out_dir, "prefix": "asym"},
        "pairs": [{"c12": 0.0, "c21": 0.0}, {"c12": 0.5, "c21": 0.5}],
    }


# a small runnable experiment of every kind
PAYLOADS = {
    "region-gaussian": gaussian_payload,
    "region-discrete": discrete_payload,
    "sweep-sumrate": sumrate_payload,
    "sweep-correlation": correlation_payload,
    "simulate": lambda out_dir: simulate_payload(out_dir, n_list=[64], r=1 / 64),
    "asymptotics": asymptotics_payload,
}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestValidate:
    def test_ok_echoes_parameters(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, gaussian_payload(str(tmp_path)))
        assert main(["validate", "--config", cfgp]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "config_hash" in out
        assert "d1: 2" in out

    def test_missing_field_named(self, tmp_path, capsys):
        payload = gaussian_payload(str(tmp_path))
        del payload["chain"]["transition"]
        cfgp = write_config(tmp_path, payload)
        assert main(["validate", "--config", cfgp]) == 2
        record = json.loads(capsys.readouterr().err)
        assert "chain.transition" in record["message"]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        payload = gaussian_payload(str(tmp_path))
        payload["gaussian"]["bogus"] = 1
        cfgp = write_config(tmp_path, payload)
        assert main(["validate", "--config", cfgp]) == 2
        record = json.loads(capsys.readouterr().err)
        assert "bogus" in record["message"]

    def test_decoder_caps_checked_at_config_time(self, tmp_path, capsys):
        # n = 64 at rate 0.5 needs 2^64 candidate triplets, n = 1024 is past
        # the blocklength cap: neither may reach codebook allocation
        payload = simulate_payload(str(tmp_path), n_list=[64, 1024], r=0.5)
        cfgp = write_config(tmp_path, payload)
        assert main(["validate", "--config", cfgp]) == 2
        record = json.loads(capsys.readouterr().err)
        assert "sim.n_list" in record["message"] and "n=64" in record["message"]
        payload["sim"]["n_list"] = [1024]
        payload["rates"] = {"r0": 0.0, "r1": 0.0, "r2": 0.0}
        cfgp = write_config(tmp_path, payload)
        assert main(["validate", "--config", cfgp]) == 2
        assert "blocklength" in json.loads(capsys.readouterr().err)["message"]

    def test_conferencing_caps_use_split_counts(self, tmp_path, capsys):
        payload = simulate_payload(str(tmp_path), n_list=[64], r=0.125)
        payload["conferencing"] = {"c12": 0.0625, "c21": 0.0625}
        cfgp = write_config(tmp_path, payload)
        assert main(["validate", "--config", cfgp]) == 0  # 2^4 * 2^4 cells, 2^4 * 2^4 indices
        payload["rates"].update(r1=0.25, r2=0.25)
        cfgp = write_config(tmp_path, payload)
        assert main(["validate", "--config", cfgp]) == 2
        assert "cap" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("section,field,value", [
        ("sim", "trials", 0), ("sim", "epsilon", 0.0), ("rates", "r1", -0.1),
    ])
    def test_simulation_inputs_checked(self, tmp_path, capsys, section, field, value):
        payload = simulate_payload(str(tmp_path), n_list=[64], r=0.0)
        payload[section][field] = value
        cfgp = write_config(tmp_path, payload)
        assert main(["validate", "--config", cfgp]) == 2
        assert f"{section}.{field}" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("field,value", [
        ("rounds", 0), ("iterations", 0), ("multistarts", -1),
    ])
    def test_empty_solver_budget_rejected(self, tmp_path, capsys, field, value):
        payload = gaussian_payload(str(tmp_path))
        payload["solver"][field] = value
        cfgp = write_config(tmp_path, payload)
        assert main(["validate", "--config", cfgp]) == 2
        assert field in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("kind,field,value", [
        ("region-gaussian", "trace.n_directions", 1),
        ("region-discrete", "search.restarts", 0),
        ("region-discrete", "search.max_passes", 0),
        ("region-discrete", "search.grid_levels", 1),
        ("region-discrete", "search.u_size", 0),
        ("region-discrete", "search.weights", [[0, 0]]),
        ("region-discrete", "search.weights", [[1.0, -0.5]]),
        ("simulate", "sim.n_list", []),
        ("sweep-sumrate", "c_list", []),
        # malformed scalars, and bools where integers belong
        ("region-gaussian", "trace.n_directions", "abc"),
        ("simulate", "sim.trials", "x"),
        ("sweep-correlation", "snr_db", ["x"]),
        ("region-gaussian", "seed", True),
        ("region-gaussian", "delays.d1", True),
        # sections of the wrong shape, and strings where booleans belong
        ("region-gaussian", "gaussian.gains1", 1.0),
        ("region-gaussian", "chain.states", 5),
        ("region-gaussian", "solver.tie_users", "false"),
        # non-finite budgets and gains
        ("region-gaussian", "gaussian.pbar1", float("inf")),
        ("region-gaussian", "gaussian.gains1", [[float("nan")], [0.1]]),
    ])
    def test_unrunnable_input_rejected(self, tmp_path, capsys, kind, field, value):
        payload = PAYLOADS[kind](str(tmp_path))
        *path, key = field.split(".")
        section = payload
        for name in path:
            section = section[name]
        section[key] = value
        cfgp = write_config(tmp_path, payload)
        assert main(["validate", "--config", cfgp]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert all(part in record["message"] for part in field.split("."))

    def test_sweep_sumrate_echoes_each_delay_case(self, tmp_path, capsys):
        payload = sumrate_payload(str(tmp_path))
        payload["delay_cases"] = [{"d1": 2, "d2": 1}, {"d1": "inf", "d2": 0}]
        cfgp = write_config(tmp_path, payload)
        assert main(["validate", "--config", cfgp]) == 0
        out = capsys.readouterr().out
        cases = yaml.safe_load(out[: out.rindex("ok")])["delay_cases"]
        assert [(c["d1_raw"], c["d2_raw"], c["d2"]) for c in cases] == [(2, 1, 1), ("inf", 0, 0)]
        assert cases[0]["d1"] == 2 and cases[1]["d1"] > 2

    def test_validate_never_writes(self, tmp_path):
        out_dir = tmp_path / "results"
        cfgp = write_config(tmp_path, gaussian_payload(str(out_dir)))
        main(["validate", "--config", cfgp])
        assert not out_dir.exists()

    def test_kind_subcommand_mismatch(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, gaussian_payload(str(tmp_path)))
        assert main(["simulate", "--config", cfgp]) == 2
        assert "does not match" in json.loads(capsys.readouterr().err)["message"]


class TestRegionGaussianRun:
    def test_writes_csv_and_svg(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, gaussian_payload(str(tmp_path)))
        assert main(["region-gaussian", "--config", cfgp]) == 0
        rows = read_rows(tmp_path / "reg.csv")
        assert rows and set(rows[0]) >= {
            "config_hash", "seed", "c12", "c21", "theta", "r1", "r2", "value",
            "flag", "max_r2", "convention",
        }
        assert (tmp_path / "reg.svg").exists()
        svg = (tmp_path / "reg.svg").read_text()
        assert svg.startswith("<svg") and "polygon" in svg

    def test_no_plots_flag(self, tmp_path):
        cfgp = write_config(tmp_path, gaussian_payload(str(tmp_path)))
        assert main(["region-gaussian", "--config", cfgp, "--no-plots"]) == 0
        assert not (tmp_path / "reg.svg").exists()

    def test_c12_sweep_lists_each_value(self, tmp_path):
        payload = gaussian_payload(str(tmp_path))
        payload["conferencing"]["c12"] = [0.0, 0.5]
        cfgp = write_config(tmp_path, payload)
        assert main(["region-gaussian", "--config", cfgp, "--no-plots"]) == 0
        rows = read_rows(tmp_path / "reg.csv")
        assert {r["c12"] for r in rows} == {"0", "0.5"}

    def test_rerun_byte_identical(self, tmp_path):
        cfgp = write_config(tmp_path, gaussian_payload(str(tmp_path)))
        main(["region-gaussian", "--config", cfgp, "--no-plots"])
        first = (tmp_path / "reg.csv").read_bytes()
        main(["region-gaussian", "--config", cfgp, "--no-plots"])
        assert (tmp_path / "reg.csv").read_bytes() == first

    def test_seed_override_changes_hash_column(self, tmp_path):
        cfgp = write_config(tmp_path, gaussian_payload(str(tmp_path)))
        main(["region-gaussian", "--config", cfgp, "--no-plots"])
        h1 = read_rows(tmp_path / "reg.csv")[0]["config_hash"]
        main(["region-gaussian", "--config", cfgp, "--no-plots", "--seed", "9"])
        row = read_rows(tmp_path / "reg.csv")[0]
        assert row["seed"] == "9"
        assert row["config_hash"] != h1


class TestOtherKinds:
    def test_sweep_correlation_zero_links(self, tmp_path):
        payload = {
            "kind": "sweep-correlation",
            "seed": 1,
            "output": {"dir": str(tmp_path), "prefix": "corr"},
            "conferencing": {"c12": 0.0, "c21": 0.0},
            "snr_db": [-5.0, 5.0, 15.0],
            "solver": {"iterations": 150, "rounds": 5, "multistarts": 1},
        }
        cfgp = write_config(tmp_path, payload)
        assert main(["sweep-correlation", "--config", cfgp, "--no-plots"]) == 0
        rows = read_rows(tmp_path / "corr.csv")
        assert all(float(r["rho_numeric"]) == 0.0 for r in rows)

    def test_sweep_correlation_svg_overlays(self, tmp_path):
        payload = correlation_payload(str(tmp_path))
        cfgp = write_config(tmp_path, payload)
        assert main(["sweep-correlation", "--config", cfgp]) == 0
        svg = (tmp_path / "corr.svg").read_text()
        # dashed guides at the critical SNR and the infinite-SNR correlation
        assert svg.count("stroke-dasharray") >= 2
        assert "critical SNR" in svg and "infinite-SNR limit" in svg

    def test_simulate_zero_rates_error_free(self, tmp_path):
        payload = {
            "kind": "simulate",
            "seed": 2,
            "output": {"dir": str(tmp_path), "prefix": "sim"},
            "chain": copy.deepcopy(CHAIN),
            "delays": {"d1": 1, "d2": 0},
            "channel": {"table": copy.deepcopy(XOR_CHANNEL)},
            "policy": copy.deepcopy(UNIFORM_POLICY),
            "rates": {"r0": 0.0, "r1": 0.0, "r2": 0.0},
            "sim": {"n_list": [64, 128], "epsilon": 0.3, "trials": 10},
        }
        cfgp = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfgp, "--no-plots"]) == 0
        rows = read_rows(tmp_path / "sim.csv")
        assert [r["p_e"] for r in rows] == ["0", "0"]

    def test_simulate_conferencing_mode(self, tmp_path):
        payload = {
            "kind": "simulate",
            "seed": 6,
            "output": {"dir": str(tmp_path), "prefix": "simc"},
            "chain": copy.deepcopy(CHAIN),
            "delays": {"d1": 1, "d2": 0},
            "channel": {"table": copy.deepcopy(XOR_CHANNEL)},
            "policy": copy.deepcopy(UNIFORM_POLICY),
            "conferencing": {"c12": 0.5, "c21": 0.0},
            "rates": {"r0": 0.0, "r1": 2 / 64, "r2": 1 / 64},
            "sim": {"n_list": [64], "epsilon": 0.1, "trials": 15},
        }
        cfgp = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfgp, "--no-plots"]) == 0
        rows = read_rows(tmp_path / "simc.csv")
        assert rows[0]["mode"] == "conferencing"
        assert 0.0 <= float(rows[0]["p_e"]) <= 1.0

    def test_simulate_conferencing_rejects_common_rate(self, tmp_path):
        payload = {
            "kind": "simulate",
            "seed": 6,
            "output": {"dir": str(tmp_path), "prefix": "simc"},
            "chain": copy.deepcopy(CHAIN),
            "delays": {"d1": 1, "d2": 0},
            "channel": {"table": copy.deepcopy(XOR_CHANNEL)},
            "policy": copy.deepcopy(UNIFORM_POLICY),
            "conferencing": {"c12": 0.5, "c21": 0.0},
            "rates": {"r0": 0.5, "r1": 2 / 64, "r2": 1 / 64},
            "sim": {"n_list": [64], "epsilon": 0.1, "trials": 5},
        }
        cfgp = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match="r0"):
            load_config(cfgp)

    def test_asymptotics_table(self, tmp_path):
        payload = asymptotics_payload(str(tmp_path))
        cfgp = write_config(tmp_path, payload)
        assert main(["asymptotics", "--config", cfgp]) == 0
        rows = read_rows(tmp_path / "asym.csv")
        assert float(rows[1]["snr_critical"]) == 0.75
        assert rows[0]["snr_critical_db"] == "-inf"

    def test_region_discrete_with_policy_dump(self, tmp_path):
        payload = discrete_payload(str(tmp_path))
        cfgp = write_config(tmp_path, payload)
        assert main(["region-discrete", "--config", cfgp, "--no-plots"]) == 0
        rows = read_rows(tmp_path / "disc.csv")
        assert len(rows) == 1 and float(rows[0]["value"]) > 0.0
        dump = yaml.safe_load((tmp_path / "disc_policies.yaml").read_text())
        assert "pU" in dump[0]["policy"]

    def test_sweep_sumrate_inf_delay_sentinel(self, tmp_path):
        payload = sumrate_payload(str(tmp_path))
        cfgp = write_config(tmp_path, payload)
        assert main(["sweep-sumrate", "--config", cfgp, "--no-plots"]) == 0
        rows = read_rows(tmp_path / "sum.csv")
        assert {r["case_d1"] for r in rows} == {"2", "inf"}
        # the unbounded-delay case can never beat the informed one
        by_case = {}
        for r in rows:
            if r["c"] != "inf":
                by_case.setdefault(r["case_d1"], {})[r["c"]] = float(r["sum_rate"])
        for c in ("0", "0.6"):
            assert by_case["inf"][c] <= by_case["2"][c] + 1e-6


@pytest.mark.parametrize("kind", list(PAYLOADS))
def test_every_kind_through_the_cli(tmp_path, capsys, kind):
    cfgp = write_config(tmp_path, PAYLOADS[kind](str(tmp_path / "out")))
    prefix = PAYLOADS[kind]("")["output"]["prefix"]
    unplotted = [".csv"] + ["_policies.yaml"] * (kind == "region-discrete")
    plotted = unplotted + [".svg"] * (kind != "asymptotics")

    def run(out_dir, *flags):
        assert main([kind, "--config", cfgp, "--out", str(out_dir), *flags]) == 0
        printed = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("# ")]
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(Path(p).name for p in printed)
        return printed, [Path(p).read_bytes() for p in printed]

    printed, first = run(tmp_path / "out")
    assert printed == [str(tmp_path / "out" / prefix) + s for s in plotted]
    assert run(tmp_path / "out") == (printed, first)  # a re-run is byte-identical
    printed, bare = run(tmp_path / "bare", "--no-plots")
    assert printed == [str(tmp_path / "bare" / prefix) + s for s in unplotted]
    assert bare == first[: len(unplotted)]


def test_kind_table_matches_shipped_configs():
    # every shipped config loads, and together they exercise every kind once
    assert sorted(load_config(str(p)).kind for p in CONFIGS) == sorted(KINDS)


class TestConfigLoader:
    def test_inf_capacity_sentinel(self, tmp_path):
        payload = gaussian_payload(str(tmp_path), c12="inf")
        cfgp = write_config(tmp_path, payload)
        cfg = load_config(cfgp)
        assert cfg.objects["c12_values"][0] == float("inf")

    def test_bad_kind(self, tmp_path):
        cfgp = write_config(tmp_path, {"kind": "nonsense"})
        with pytest.raises(ConfigError, match="kind"):
            load_config(cfgp)

    def test_delay_ordering(self, tmp_path):
        payload = gaussian_payload(str(tmp_path))
        payload["delays"] = {"d1": 1, "d2": 2}
        cfgp = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match="d1 must be >= d2"):
            load_config(cfgp)
