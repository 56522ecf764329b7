import copy
import csv
import json
from pathlib import Path

import pytest
import yaml

from fsmac import SearchConfig, SolverConfig, experiments, gaussian, rho_star
from fsmac.cli import main
from fsmac.config import KINDS, ConfigError, load_config
from fsmac.experiments import run_experiment

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))


CHAIN = {"states": ["G", "B"], "transition": [[0.9, 0.1], [0.1, 0.9]]}

XOR_CHANNEL = [
    [[[0.9, 0.1], [0.55, 0.45]], [[0.1, 0.9], [0.45, 0.55]]],
    [[[0.1, 0.9], [0.45, 0.55]], [[0.9, 0.1], [0.55, 0.45]]],
]

# XOR_CHANNEL's first state alone
ONE_STATE_CHANNEL = [[states[:1] for states in x1] for x1 in XOR_CHANNEL]

UNIFORM_POLICY = {
    "pU": [[1.0], [1.0]],
    "pX1": [[[0.5, 0.5], [0.5, 0.5]]],
    "pX2": [[[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]],
}


def _with_nan(table, index):
    """A copy of a nested list with one entry replaced by NaN."""
    out = copy.deepcopy(table)
    *path, last = index
    row = out
    for i in path:
        row = row[i]
    row[last] = float("nan")
    return out


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

    @pytest.mark.parametrize("d1,n", [(2, 2), (3, 2), ("inf", 64)])
    def test_block_within_delay_rejected(self, tmp_path, capsys, d1, n):
        # no position of a block of n <= d1 is decoded, so every trial would
        # count as an error; an "inf" delay leaves no position in any block
        payload = simulate_payload(str(tmp_path), n_list=[128, n], r=0.0)
        payload["delays"] = {"d1": d1, "d2": 0}
        cfgp = write_config(tmp_path, payload)
        assert main(["validate", "--config", cfgp]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        first = 128 if d1 == "inf" else n  # the first entry fails
        assert f"n={first}" in record["message"] and f"delays.d1={d1}" in record["message"]
        if d1 != "inf":
            payload["sim"]["n_list"] = [d1 + 1]  # one decoded position
            assert main(["validate", "--config", write_config(tmp_path, payload)]) == 0

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

    @pytest.mark.parametrize("solver,max_steps", [
        ({"iterations": 300, "rounds": 8, "multistarts": 1}, 4800),
        ({}, 12000),  # the omitted keys keep 400, 10 and 2
        ({"iterations": 60, "rounds": 3, "multistarts": 0}, 180),
    ])
    def test_solver_keys_map_to_max_steps(self, tmp_path, solver, max_steps):
        # iterations * rounds steps for each of 1 + multistarts starts
        payload = gaussian_payload(str(tmp_path))
        payload["solver"] = solver
        assert load_config(write_config(tmp_path, payload)).objects["solver"] == SolverConfig(
            max_steps=max_steps)

    @pytest.mark.parametrize("search,field", [
        ({"u_size": 35}, "u_size"),  # the ceiling |X1|·|X2|·k³ + 2 is 34
        ({"u_size": 100}, "u_size"),
        # a pU row of 501,942 grid points of 2,176 q entries each
        ({"u_size": 34, "grid_levels": 6}, "grid_levels"),
    ])
    def test_search_too_large_for_the_channel_rejected(self, tmp_path, capsys, search, field):
        payload = discrete_payload(str(tmp_path))
        payload["search"].update(search)
        assert main(["validate", "--config", write_config(tmp_path, payload)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert f"search: {field}" in record["message"]
        payload["search"].update(u_size=34, grid_levels=2)  # the ceiling itself runs
        assert main(["validate", "--config", write_config(tmp_path, payload)]) == 0

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
        # non-finite weights
        ("region-discrete", "search.weights", [[float("inf"), 1.0]]),
        ("region-discrete", "search.weights", [[1.0, 1.0], [1.0, float("-inf")]]),
        # SNRs whose linear power 10^(s/10) is not a finite float
        ("sweep-correlation", "snr_db", [float("inf")]),
        ("sweep-correlation", "snr_db", [4000]),
        # the solver section holds the budget only
        ("region-gaussian", "solver.tolerance", 1e-9),
        # NaN entries of probability tables
        ("region-discrete", "channel.table", _with_nan(XOR_CHANNEL, (0, 1, 1, 0))),
        ("region-discrete", "chain.transition", [[float("nan"), 1.0], [0.1, 0.9]]),
        ("simulate", "policy.pX1", _with_nan(UNIFORM_POLICY["pX1"], (0, 1, 0))),
        # negative seeds, which numpy's seed sequences refuse
        ("region-gaussian", "seed", -5),
        ("region-discrete", "seed", -5),
        ("simulate", "seed", -5),
        ("sweep-correlation", "seed", -5),
        # a one-state channel on the two-state chain, and a three-letter X1
        ("region-discrete", "channel.table", ONE_STATE_CHANNEL),
        ("simulate", "channel.table", ONE_STATE_CHANNEL),
        ("simulate", "policy.pX1", [[[0.5, 0.25, 0.25], [0.5, 0.25, 0.25]]]),
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

    def test_omitted_budget_keys_take_the_dataclass_defaults(self, tmp_path):
        payload = discrete_payload(str(tmp_path))
        payload["search"] = {"weights": [[1.0, 1.0]]}
        searches = load_config(write_config(tmp_path, payload)).objects["searches"]
        assert searches == [SearchConfig(seed=payload["seed"])]
        payload = gaussian_payload(str(tmp_path))
        del payload["solver"]
        solver = load_config(write_config(tmp_path, payload)).objects["solver"]
        assert solver == SolverConfig()

    def test_sweep_sumrate_echoes_each_delay_case(self, tmp_path, capsys):
        payload = sumrate_payload(str(tmp_path))
        payload["delay_cases"] = [{"d1": 2, "d2": 1}, {"d1": "inf", "d2": 0}]
        cfgp = write_config(tmp_path, payload)
        assert main(["validate", "--config", cfgp]) == 0
        out = capsys.readouterr().out
        cases = yaml.safe_load(out[: out.rindex("ok")])["delay_cases"]
        assert [(c["d1_raw"], c["d2_raw"], c["d2"]) for c in cases] == [(2, 1, 1), ("inf", 0, 0)]
        assert cases[0]["d1"] == 2 and cases[1]["d1"] == float("inf")

    def test_inf_delay_is_longer_than_any_finite_one(self, tmp_path, capsys):
        payload = gaussian_payload(str(tmp_path))
        payload["delays"] = {"d1": "inf", "d2": 95}
        assert main(["validate", "--config", write_config(tmp_path, payload)]) == 0
        delays = yaml.safe_load(capsys.readouterr().out.rsplit("ok", 1)[0])["delays"]
        assert (delays["d1"], delays["d2"]) == (float("inf"), 95)
        payload["delays"] = {"d1": 95, "d2": "inf"}
        assert main(["validate", "--config", write_config(tmp_path, payload)]) == 2
        assert "d1 must be >= d2" in json.loads(capsys.readouterr().err)["message"]

    def test_slow_chain_accepts_an_inf_delay(self, tmp_path, capsys):
        # no finite power of this chain is within 1e-9 of stationary before
        # about 1e7 steps; an infinite delay needs none
        payload = gaussian_payload(str(tmp_path))
        payload["chain"]["transition"] = [[0.999999, 1e-6], [1e-6, 0.999999]]
        payload["delays"] = {"d1": "inf", "d2": 3}
        cfgp = write_config(tmp_path, payload)
        assert main(["validate", "--config", cfgp]) == 0
        assert main(["region-gaussian", "--config", cfgp, "--no-plots"]) == 0
        rows = read_rows(tmp_path / "reg.csv")
        assert rows and all(r["flag"] == "converged" for r in rows)

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
        }
        cfgp = write_config(tmp_path, payload)
        assert main(["sweep-correlation", "--config", cfgp, "--no-plots"]) == 0
        rows = read_rows(tmp_path / "corr.csv")
        assert all(float(r["rho"]) == 0.0 for r in rows)

    def test_sweep_correlation_from_the_closed_form(self, tmp_path, monkeypatch, capsys):
        def no_solve(*args):
            raise AssertionError("sweep-correlation called the solver")

        monkeypatch.setattr(gaussian, "_solve", no_solve)
        payload = correlation_payload(str(tmp_path))
        payload["snr_db"] = [-170.0, -5.0, 10.0]
        cfgp = write_config(tmp_path, payload)
        assert main(["sweep-correlation", "--config", cfgp]) == 0
        with open(tmp_path / "corr.csv", newline="") as fh:
            assert next(csv.reader(fh)) == ["config_hash", "seed", "snr_db", "rho"]
        rows = read_rows(tmp_path / "corr.csv")
        assert [r["rho"] for r in rows] == [f"{rho_star(10.0 ** (s / 10.0), 0.3, 0.3):.12g}"
                                           for s in payload["snr_db"]]
        assert [r["rho"] for r in rows[:2]] == ["1", "1"]  # both below the critical SNR
        # the kind has no solver budget: a solver section is an unknown key
        payload["solver"] = {"iterations": 120, "rounds": 4, "multistarts": 0}
        capsys.readouterr()
        assert main(["validate", "--config", write_config(tmp_path, payload)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError" and "solver" in record["message"]

    def test_sweep_correlation_svg_overlays(self, tmp_path):
        payload = correlation_payload(str(tmp_path))
        cfgp = write_config(tmp_path, payload)
        assert main(["sweep-correlation", "--config", cfgp]) == 0
        svg = (tmp_path / "corr.svg").read_text()
        # dashed guides at the critical SNR and the infinite-SNR correlation
        assert svg.count("stroke-dasharray") >= 2
        assert "critical SNR" in svg and "infinite-SNR limit" in svg

    def test_sweep_correlation_infinite_link(self, tmp_path, capsys):
        # an unbounded link runs like a huge finite one: rho = 1 at every SNR,
        # an infinite critical SNR, and no critical-SNR guide in the figure
        payload = correlation_payload(str(tmp_path))
        payload["conferencing"] = {"c12": "inf", "c21": 0}
        assert main(["sweep-correlation", "--config", write_config(tmp_path, payload)]) == 0
        assert "# snr_critical = inf" in capsys.readouterr().out.splitlines()
        assert [r["rho"] for r in read_rows(tmp_path / "corr.csv")] == ["1", "1"]
        svg = (tmp_path / "corr.svg").read_text()
        assert "infinite-SNR limit" in svg and "critical SNR" not in svg

    def test_region_gaussian_silent_encoder_reaches_the_sum_face(self, tmp_path):
        # encoder 1 has no power: every trace point of the shipped region
        # setup lies on r1 + r2 = max_r2, the single-user value of encoder 2
        payload = yaml.safe_load(next(p for p in CONFIGS if p.name == "region_gaussian.yaml")
                                 .read_text())
        payload["gaussian"]["pbar1"] = 0.0
        payload["conferencing"]["c12"] = [0.3]
        payload["output"] = {"dir": str(tmp_path), "prefix": "reg"}
        assert main(["region-gaussian", "--config", write_config(tmp_path, payload),
                     "--no-plots"]) == 0
        rows = read_rows(tmp_path / "reg.csv")
        assert rows and all(abs(float(r["max_r2"]) - 0.964242340852) <= 1e-6 for r in rows)
        for r in rows:
            assert float(r["r1"]) + float(r["r2"]) >= float(r["max_r2"]) - 1e-6

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

    @pytest.mark.parametrize("kind", ["sweep-correlation", "asymptotics"])
    def test_links_past_the_float_range_run(self, tmp_path, kind):
        # 2^(2 * 600) overflows a float: the closed forms take their values
        # at unbounded links instead of raising
        payload = PAYLOADS[kind](str(tmp_path))
        if kind == "sweep-correlation":
            payload["conferencing"] = {"c12": 600, "c21": 0}
        else:
            payload["pairs"] = [{"c12": 600, "c21": 0}, {"c12": "inf", "c21": 0}]
        cfgp = write_config(tmp_path, payload)
        assert main(["validate", "--config", cfgp]) == 0
        assert main([kind, "--config", cfgp, "--no-plots"]) == 0
        prefix = payload["output"]["prefix"]
        rows = read_rows(tmp_path / f"{prefix}.csv")
        if kind == "sweep-correlation":
            assert all(r["rho"] == "1" for r in rows)
        else:
            for r in rows:
                assert (r["snr_critical"], r["snr_critical_db"], r["rho_infinity"]) == ("inf", "inf", "1")

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


def test_every_artifact_goes_through_the_atomic_writer(tmp_path, monkeypatch):
    written = []
    atomic_write = experiments._atomic_write

    def record(path, text):
        written.append(path)
        atomic_write(path, text)

    monkeypatch.setattr(experiments, "_atomic_write", record)
    cfg = load_config(write_config(tmp_path, discrete_payload(str(tmp_path / "out"))))
    report = run_experiment(cfg, plots=True)
    assert written == report.artifacts
    assert [Path(p).name for p in written] == ["disc.csv", "disc_policies.yaml", "disc.svg"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
        Path(p).name for p in written)  # no temporary file left behind


def test_kind_table_matches_shipped_configs():
    # every shipped config loads, and together they exercise every kind once
    assert sorted(load_config(str(p)).kind for p in CONFIGS) == sorted(KINDS)


class TestConfigLoader:
    def test_inf_capacity_sentinel(self, tmp_path):
        payload = gaussian_payload(str(tmp_path), c12="inf")
        cfgp = write_config(tmp_path, payload)
        cfg = load_config(cfgp)
        assert cfg.objects["links"][0][0] == float("inf")

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
