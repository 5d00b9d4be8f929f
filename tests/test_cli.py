import concurrent.futures
import hashlib
import json
import math
import re
import sys
import threading
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from donlab import bounds, cli, deeponet, nn, scaling
from donlab.cli import main
from donlab.datagen import read_dataset_csv
from donlab.deeponet import load_checkpoint
from donlab.errors import InputError

from conftest import bits_equal

_COUNT = st.integers(1, 10**300)


def _magnitude(lo=-300.0, hi=300.0):
    """Powers of ten from 10^lo to 10^hi."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _gen_data_config(tmp_path, seed=0, **overrides):
    cfg = {
        "kind": "adr",
        "sensor_count": 6,
        "num_functions": 2,
        "points_per_function": 20,
        "noise_std": 0.0,
        "seed": seed,
        "out_name": "ds",
        "adr": {"D": 0.01, "k": 0.01, "nx": 21, "nt": 21},
        "grf": {"length_scale": 0.05},
    }
    cfg.update(overrides)
    return _write(tmp_path / "gen.json", cfg)


class TestUsageErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["gen-data", "--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path)]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["bound", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_bad_dataset_path_in_train(self, tmp_path):
        cfg = _write(tmp_path / "train.json",
                     {"dataset": str(tmp_path / "missing.csv"), "epochs": 1})
        assert main(["train", "--config", cfg, "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command, cfg, message", [
        ("gen-data", {"kinds": "adr"}, "unexpected keyword argument 'kinds'"),
        ("train", {"dataset": "d.csv", "epoch": 5, "widht": 64},
         "unexpected keyword argument 'epoch'"),
        ("verify", {"perturbation_trial": 5}, "unexpected keyword argument 'perturbation_trial'"),
        ("verify", {"args": 1}, "positional-only arguments passed as keyword arguments: 'args'"),
    ])
    def test_misspelled_top_level_key_exits_two(self, tmp_path, capsys, command, cfg, message):
        out = tmp_path / "out"
        assert main([command, "--config", _write(tmp_path / "c.json", cfg),
                     "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, cfg, message", [
        ("gen-data", {"kind": "heat"}, "unknown dataset kind 'heat'"),
        ("bound", {"variant": "relu", "n": 1000, "epsilon": 0.5, "delta": 0.2,
                   "label_bound": 1.5, "j": 2.0,
                   "class": {"d_b": 50, "d_t": 40, "w_b": 2.0, "w_t": 2.0, "q": 4}},
         "unknown bound variant 'relu'"),
    ])
    def test_unknown_kind_or_variant_exits_two(self, tmp_path, capsys, command, cfg, message):
        out = tmp_path / "out"
        assert main([command, "--config", _write(tmp_path / "c.json", cfg),
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, cfg", [
        ("gen-data", {}), ("train", {"dataset": "d.csv"}), ("verify", {}),
    ])
    @pytest.mark.parametrize("seed", [True, 2.5, -1, "3", [1], None])
    def test_bad_seed_exits_two_before_any_work(self, tmp_path, capsys, command, cfg, seed):
        # None stands for "--seed -1" on the command line
        flags = ["--seed", "-1"] if seed is None else []
        cfg = _write(tmp_path / "c.json", cfg if seed is None else dict(cfg, seed=seed))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, *flags, "--out-dir", str(out)]) == 2
        got = -1 if seed is None else seed
        assert f"error: seed must be an int >= 0, got {got!r}\n" == capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("bound", "--seed"), ("gen-data", "--threads"), ("train", "--threads"),
        ("bound", "--threads"), ("verify", "--threads"), ("verify", "--inject-gradient-bug"),
    ])
    def test_flag_offered_only_where_it_acts(self, tmp_path, capsys, command, flag):
        cfg = _write(tmp_path / "c.json", {})
        assert main([command, "--config", cfg, flag, "2", "--out-dir", str(tmp_path)]) == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


class TestGenData:
    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        cfg = _gen_data_config(tmp_path)
        out = tmp_path / "out"
        assert main(["gen-data", "--config", cfg, "--out-dir", str(out)]) == 0
        assert (out / "ds.csv").exists()
        assert (out / "ds.csv.meta.json").exists()
        assert (out / "effective-config-gen-data.json").exists()
        ds = read_dataset_csv(out / "ds.csv")
        assert ds.n == 40

    def test_seed_reproducibility_and_variation(self, tmp_path):
        cfg = _gen_data_config(tmp_path)
        out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
        assert main(["gen-data", "--config", cfg, "--out-dir", str(out1)]) == 0
        assert main(["gen-data", "--config", cfg, "--out-dir", str(out2)]) == 0
        assert main(["gen-data", "--config", cfg, "--out-dir", str(out3),
                     "--seed", "99"]) == 0
        assert (out1 / "ds.csv").read_bytes() == (out2 / "ds.csv").read_bytes()
        assert (out1 / "ds.csv").read_bytes() != (out3 / "ds.csv").read_bytes()

    def test_rerun_from_echo_is_identical(self, tmp_path):
        cfg = _gen_data_config(tmp_path, seed=5)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--config", cfg, "--out-dir", str(out1)]) == 0
        echo = out1 / "effective-config-gen-data.json"
        assert main(["gen-data", "--config", str(echo), "--out-dir", str(out2)]) == 0
        assert (out1 / "ds.csv").read_bytes() == (out2 / "ds.csv").read_bytes()

    def test_pendulum_kind(self, tmp_path):
        cfg = _write(tmp_path / "p.json", {
            "kind": "pendulum", "sensor_count": 5, "num_functions": 1,
            "points_per_function": 8, "noise_std": 0.0, "seed": 1,
            "out_name": "pend", "pendulum": {"k": 1.0, "nt": 31},
            "grf": {"length_scale": 0.1},
        })
        out = tmp_path / "out"
        assert main(["gen-data", "--config", cfg, "--out-dir", str(out)]) == 0
        ds = read_dataset_csv(out / "pend.csv")
        assert ds.d2 == 1

    @pytest.mark.parametrize("section, extra, message", [
        ("grf", {"length": 0.1}, "'length'"),
        ("pendulum", {"damping": 0.1}, "'damping'"),
        ("pendulum", {"nt": 31.0}, "nt must be an int >= 2, got 31.0"),
        ("pendulum", {"nt": "31"}, "nt must be an int >= 2, got '31'"),
        ("pendulum", {"k": "1"}, "pendulum k must be a finite number, got '1'"),
        # None: extra goes to the top level, giving a block for the other kind
        (None, {"adr": {"nx": "bogus"}},
         "kind 'pendulum' takes no 'adr' block, got {'nx': 'bogus'}"),
        (None, {"kind": "adr", "adr": {"nx": 21, "nt": 21}},
         "kind 'adr' takes no 'pendulum' block, got {'k': 1.0, 'nt': 31}"),
    ])
    def test_bad_key_or_value_in_a_section_exits_two(self, tmp_path, capsys, section, extra,
                                                      message):
        cfg = {
            "kind": "pendulum", "sensor_count": 5, "num_functions": 1,
            "points_per_function": 8, "seed": 1, "out_name": "pend",
            "pendulum": {"k": 1.0, "nt": 31}, "grf": {"length_scale": 0.1},
        }
        (cfg if section is None else cfg[section]).update(extra)
        out = tmp_path / "out"
        assert main(["gen-data", "--config", _write(tmp_path / "p.json", cfg),
                     "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, message", [
        ({"grf": {"length_scale": math.nan}}, "length_scale must be a finite number > 0, got nan"),
        ({"grf": {"length_scale": 0.05, "jitter": math.nan}},
         "jitter must be a finite number >= 0, got nan"),
        ({"grf": {"length_scale": math.inf}}, "length_scale must be a finite number > 0, got inf"),
        ({"grf": {"length_scale": 0.05, "jitter": math.inf}},
         "jitter must be a finite number >= 0, got inf"),
        ({"adr": {"D": math.nan, "nx": 21, "nt": 21}}, "D must be a finite number >= 0, got nan"),
        ({"adr": {"D": math.inf, "nx": 21, "nt": 21}}, "D must be a finite number >= 0, got inf"),
        ({"adr": {"k": math.nan, "nx": 21, "nt": 21}}, "k must be a finite number, got nan"),
        ({"noise_std": math.nan}, "noise_std must be a finite number >= 0, got nan"),
        ({"noise_std": math.inf}, "noise_std must be a finite number >= 0, got inf"),
        ({"kind": "pendulum", "adr": {}, "pendulum": {"k": math.nan, "nt": 21}},
         "pendulum k must be a finite number, got nan"),
        ({"kind": "pendulum", "adr": {}, "pendulum": {"y0": math.inf, "nt": 21}},
         "pendulum y0 must be a finite number, got inf"),
        ({"kind": "pendulum", "adr": {}, "pendulum": {"v0": -math.inf, "nt": 21}},
         "pendulum v0 must be a finite number, got -inf"),
        ({"kind": "pendulum", "adr": {}, "pendulum": {"forcing_scale": math.nan, "nt": 21}},
         "pendulum forcing_scale must be a finite number, got nan"),
        ({"grf": {"length_scale": "0.1"}}, "length_scale must be a finite number > 0, got '0.1'"),
        ({"grf": {"length_scale": True}}, "length_scale must be a finite number > 0, got True"),
        ({"grf": {"length_scale": 0.05, "jitter": None}},
         "jitter must be a finite number >= 0, got None"),
        # 2 l^2 underflows to 0: the kernel used to divide 0 by 0 on its diagonal
        ({"grf": {"length_scale": 1e-320}},
         "length_scale=1e-320 is too small: 2 length_scale^2 underflows to 0"),
        ({"kind": "pendulum", "adr": {}, "pendulum": {"nt": 21},
          "grf": {"length_scale": 1e-320}},
         "length_scale=1e-320 is too small: 2 length_scale^2 underflows to 0"),
        ({"adr": {"D": "0.01", "nx": 21, "nt": 21}}, "D must be a finite number >= 0, got '0.01'"),
        ({"adr": {"k": False, "nx": 21, "nt": 21}}, "k must be a finite number, got False"),
        ({"adr": {"nx": 11.0, "nt": 21}}, "nx must be an int >= 3, got 11.0"),
        ({"adr": {"nx": 21, "nt": True}}, "nt must be an int >= 3, got True"),
        ({"sensor_count": 6.0}, "sensor_count must be an int >= 1, got 6.0"),
        ({"num_functions": 2.0}, "num_functions must be an int >= 1, got 2.0"),
        ({"points_per_function": True}, "points_per_function must be an int >= 1, got True"),
    ])
    def test_nan_in_grf_or_adr_exits_two(self, tmp_path, capsys, section, message):
        out = tmp_path / "out"
        assert main(["gen-data", "--config", _gen_data_config(tmp_path, **section),
                     "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_pendulum_exits_one_naming_its_step(self, tmp_path, capsys):
        # y overflows at the first step; Dataset used to reject the NaN labels as B
        cfg = _write(tmp_path / "p.json", {
            "kind": "pendulum", "sensor_count": 5, "num_functions": 3,
            "points_per_function": 8, "seed": 1, "out_name": "pend",
            "pendulum": {"k": 1.0, "nt": 11, "v0": 1e308}, "grf": {"length_scale": 0.1},
        })
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["gen-data", "--config", cfg, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: solution for source function 0 blew up at time step 1 (t=0.1)\n")
        assert not (out / "pend.csv").exists()

    def test_pendulum_forcing_scale_is_passed_through(self, tmp_path):
        cfg = _write(tmp_path / "p.json", {
            "kind": "pendulum", "sensor_count": 5, "num_functions": 3,
            "points_per_function": 8, "noise_std": 0.0, "seed": 1, "out_name": "pend",
            "pendulum": {"k": 1.0, "nt": 31, "forcing_scale": 0},
            "grf": {"length_scale": 0.1},
        })
        out = tmp_path / "out"
        assert main(["gen-data", "--config", cfg, "--out-dir", str(out)]) == 0
        ds = read_dataset_csv(out / "pend.csv")
        assert np.all(ds.s == 0.0)
        assert ds.generator["forcing_scale"] == 0


@pytest.fixture
def dataset_csv(tmp_path):
    cfg = _gen_data_config(tmp_path, num_functions=2, points_per_function=30)
    out = tmp_path / "data"
    assert main(["gen-data", "--config", cfg, "--out-dir", str(out)]) == 0
    return out / "ds.csv"


class TestTrain:
    def test_zero_epochs_checkpoints_the_initialization(self, tmp_path, dataset_csv):
        cfg = _write(tmp_path / "t.json", {
            "dataset": str(dataset_csv), "q": 3, "width": 5, "depth": 2,
            "epochs": 0, "seed": 7, "out_name": "run",
        })
        out = tmp_path / "trained"
        assert main(["train", "--config", cfg, "--out-dir", str(out)]) == 0
        model, _, _, epoch, _ = load_checkpoint(out / "run.checkpoint.json")
        init = nn.init_mlp(model.branch.spec, seed=[7, 1])
        assert np.array_equal(model.branch.flat, init.flat)
        assert epoch == 0
        assert (out / "run.loss.csv").read_text() == "epoch,loss\n"

    def test_resume_continues_the_curve(self, tmp_path, dataset_csv):
        base = {"dataset": str(dataset_csv), "q": 2, "width": 4, "depth": 2,
                "batch_size": 16, "seed": 3, "out_name": "run"}
        full_cfg = _write(tmp_path / "full.json", dict(base, epochs=6))
        out_full = tmp_path / "full"
        assert main(["train", "--config", full_cfg, "--out-dir", str(out_full)]) == 0

        first_cfg = _write(tmp_path / "first.json", dict(base, epochs=3))
        out_first = tmp_path / "first"
        assert main(["train", "--config", first_cfg, "--out-dir", str(out_first)]) == 0
        second_cfg = _write(tmp_path / "second.json", dict(
            base, epochs=3,
            resume_from=str(out_first / "run.checkpoint.json"),
        ))
        out_second = tmp_path / "second"
        assert main(["train", "--config", second_cfg, "--out-dir", str(out_second)]) == 0

        full_rows = (out_full / "run.loss.csv").read_text().splitlines()
        part_rows = (
            (out_first / "run.loss.csv").read_text().splitlines()[1:]
            + (out_second / "run.loss.csv").read_text().splitlines()[1:]
        )
        assert full_rows[1:] == part_rows
        m_full, *_ = load_checkpoint(out_full / "run.checkpoint.json")
        m_res, *_ = load_checkpoint(out_second / "run.checkpoint.json")
        assert np.array_equal(m_full.branch.flat, m_res.branch.flat)
        assert np.array_equal(m_full.trunk.flat, m_res.trunk.flat)

    @pytest.mark.parametrize("key, value, got, want", [
        ("lr", 0.01, "Adam lr 0.001", "0.01"),
        ("width", 5, "branch spec MlpSpec(layer_dims=(6, 4, 2),",
         "MlpSpec(layer_dims=(6, 5, 2),"),
        ("sensor_count", 5, "branch spec MlpSpec(layer_dims=(6, 4, 2),",
         "MlpSpec(layer_dims=(5, 4, 2),"),
        ("seed", 5, "train seed 0", "5"),
    ])
    def test_resume_must_match_the_checkpoint(self, tmp_path, dataset_csv, capsys,
                                              key, value, got, want):
        base = {"dataset": str(dataset_csv), "q": 2, "width": 4, "depth": 2,
                "batch_size": 16, "epochs": 1, "out_name": "run"}
        first = tmp_path / "first"
        assert main(["train", "--config", _write(tmp_path / "first.json", base),
                     "--out-dir", str(first)]) == 0
        ckpt = first / "run.checkpoint.json"
        resume = dict(base, resume_from=str(ckpt))
        if key == "sensor_count":
            data_cfg = _gen_data_config(tmp_path, sensor_count=value, points_per_function=30)
            assert main(["gen-data", "--config", data_cfg,
                         "--out-dir", str(tmp_path / "other")]) == 0
            resume["dataset"] = str(tmp_path / "other" / "ds.csv")
        else:
            resume[key] = value
        out = tmp_path / "second"
        assert main(["train", "--config", _write(tmp_path / "second.json", resume),
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: checkpoint {ckpt}: {got}" in err
        assert f"does not match the config's {want}" in err
        assert not out.exists()

    @pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "no-sidecar"])
    def test_non_finite_label_exits_two_before_training(self, tmp_path, dataset_csv, capsys,
                                                         sidecar):
        lines = dataset_csv.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",nan"
        dataset_csv.write_text("\n".join(lines) + "\n")
        if not sidecar:
            (dataset_csv.parent / "ds.csv.meta.json").unlink()
        out = tmp_path / "trained"
        cfg = _write(tmp_path / "t.json", {"dataset": str(dataset_csv), "epochs": 1})
        assert main(["train", "--config", cfg, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {dataset_csv}:3: non-finite value\n"
        assert not out.exists()

    def test_interrupted_loss_csv_keeps_previous_file(self, tmp_path, dataset_csv,
                                                      fail_writes_after, capsys):
        base = {"dataset": str(dataset_csv), "q": 2, "width": 4, "depth": 2,
                "batch_size": 16, "epochs": 4, "out_name": "run"}
        out = tmp_path / "trained"
        cfg = _write(tmp_path / "t.json", base)
        assert main(["train", "--config", cfg, "--seed", "3", "--out-dir", str(out)]) == 0
        before = (out / "run.loss.csv").read_bytes()
        fail_writes_after(1 + 2)  # checkpoint, loss header, first loss row
        assert main(["train", "--config", cfg, "--seed", "4", "--out-dir", str(out)]) == 2
        assert "disk full" in capsys.readouterr().err
        *_, seeds = load_checkpoint(out / "run.checkpoint.json")
        assert seeds == {"train": 4}
        assert (out / "run.loss.csv").read_bytes() == before
        assert not [f for f in out.iterdir() if f.name.endswith(".tmp")]

    @pytest.mark.parametrize("key, value, message", [
        ("epochs", -2, "epochs must be an int >= 0, got -2"),
        ("batch_size", 0, "batch_size must be an int >= 1, got 0"),
        ("epochs", 2.0, "epochs must be an int >= 0, got 2.0"),
        ("epochs", True, "epochs must be an int >= 0, got True"),
        ("batch_size", True, "batch_size must be an int >= 1, got True"),
        ("batch_size", 16.0, "batch_size must be an int >= 1, got 16.0"),
        ("depth", 0, "depth must be an int >= 1, got 0"),
        ("depth", -2, "depth must be an int >= 1, got -2"),
        ("depth", 2.0, "depth must be an int >= 1, got 2.0"),
    ])
    def test_bad_epochs_batch_size_or_depth_exit_two(self, tmp_path, dataset_csv, capsys,
                                                     key, value, message):
        cfg = _write(tmp_path / "t.json", {
            "dataset": str(dataset_csv), "q": 2, "width": 4, "depth": 2,
            "epochs": 1, "batch_size": 16, key: value, "out_name": "run",
        })
        out = tmp_path / "trained"
        assert main(["train", "--config", cfg, "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "checkpoint {} must hold a JSON object"),
        ('{"format": "donlab-checkpoint-v1"}', "{} is not a donlab checkpoint"),
        ("{not json", "checkpoint {} is not valid JSON: "),
        (None, "checkpoint not found: {}"),  # no file at resume_from
    ])
    def test_resume_from_non_checkpoint_exits_two(self, tmp_path, dataset_csv, capsys,
                                                 text, message):
        resume = tmp_path / "resume.json"
        if text is not None:
            resume.write_text(text)
        cfg = _write(tmp_path / "t.json", {
            "dataset": str(dataset_csv), "q": 2, "width": 4, "depth": 2,
            "epochs": 1, "resume_from": str(resume), "out_name": "run",
        })
        out = tmp_path / "trained"
        assert main(["train", "--config", cfg, "--out-dir", str(out)]) == 2
        assert message.format(resume) in capsys.readouterr().err
        assert not (out / "run.checkpoint.json").exists()

    @pytest.mark.parametrize("net, message", [
        (1, "malformed branch: "), ({"spec": {}}, "malformed branch: .*'layer_dims'"),
    ])
    def test_resume_from_malformed_net_names_file_and_key(self, tmp_path, dataset_csv,
                                                          capsys, net, message):
        resume = tmp_path / "resume.json"
        resume.write_text(json.dumps({"format": "donlab-checkpoint-v1",
                                      "branch": net, "trunk": 1}))
        cfg = _write(tmp_path / "t.json", {
            "dataset": str(dataset_csv), "q": 2, "width": 4, "depth": 2,
            "epochs": 1, "resume_from": str(resume), "out_name": "run",
        })
        out = tmp_path / "trained"
        assert main(["train", "--config", cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.match(f"error: checkpoint {re.escape(str(resume))}: {message}", err)
        assert not (out / "run.checkpoint.json").exists()

    @pytest.mark.parametrize("part, key, value, message", [
        ("branch", "layer_dims", ["6", 4, 2],
         "malformed branch: layer_dims[0] must be an int >= 1, got '6'"),
        ("trunk", "layer_dims", [2.0, 4, 2],
         "malformed trunk: layer_dims[0] must be an int >= 1, got 2.0"),
        ("adam_branch", "beta1", 2.0, "malformed adam_branch: beta1 must be a number in [0, 1)"),
        ("adam_trunk", "beta2", "0.999", "malformed adam_trunk: beta2 must be a number in"),
        ("adam_trunk", "eps", -1.0, "malformed adam_trunk: eps must be a finite number > 0"),
        ("adam_branch", "lr", True, "malformed adam_branch: lr must be a finite number > 0"),
        ("adam_trunk", "t", 7, "adam_branch and adam_trunk must share (t, lr, beta1, beta2, "
                               "eps), got (2, 0.001, 0.9, 0.999, 1e-08) and (7, 0.001,"),
    ])
    def test_resume_from_hand_edited_checkpoint_exits_two(self, tmp_path, dataset_csv,
                                                          capsys, part, key, value, message):
        base = {"dataset": str(dataset_csv), "q": 2, "width": 4, "depth": 2,
                "batch_size": 32, "epochs": 1, "out_name": "run"}
        first = tmp_path / "first"
        assert main(["train", "--config", _write(tmp_path / "first.json", base),
                     "--out-dir", str(first)]) == 0
        ckpt = first / "run.checkpoint.json"
        payload = json.loads(ckpt.read_text())
        (payload[part]["spec"] if key == "layer_dims" else payload[part])[key] = value
        ckpt.write_text(json.dumps(payload))
        out = tmp_path / "second"
        assert main(["train", "--config", _write(tmp_path / "second.json",
                                                 dict(base, resume_from=str(ckpt))),
                     "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_resume_with_a_short_adam_state_exits_two(self, tmp_path, dataset_csv, capsys):
        base = {"dataset": str(dataset_csv), "q": 2, "width": 4, "depth": 2,
                "batch_size": 32, "epochs": 1, "out_name": "run"}
        first = tmp_path / "first"
        assert main(["train", "--config", _write(tmp_path / "first.json", base),
                     "--out-dir", str(first)]) == 0
        ckpt = first / "run.checkpoint.json"
        payload = json.loads(ckpt.read_text())
        for key in ("m", "v"):  # one entry short, as a pair that builds
            payload["adam_branch"][key].pop()
        ckpt.write_text(json.dumps(payload))
        out = tmp_path / "second"
        assert main(["train", "--config", _write(tmp_path / "second.json",
                                                 dict(base, resume_from=str(ckpt))),
                     "--out-dir", str(out)]) == 2
        assert ("error: gradient / state length does not match parameter vector"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("sidecar", ["[1]", "{not json"])
    def test_bad_dataset_sidecar_exits_two(self, tmp_path, dataset_csv, capsys, sidecar):
        meta = dataset_csv.parent / (dataset_csv.name + ".meta.json")
        meta.write_text(sidecar)
        cfg = _write(tmp_path / "t.json", {
            "dataset": str(dataset_csv), "q": 2, "width": 4, "depth": 2,
            "epochs": 1, "out_name": "run",
        })
        out = tmp_path / "trained"
        assert main(["train", "--config", cfg, "--out-dir", str(out)]) == 2
        assert f"sidecar {meta}" in capsys.readouterr().err
        assert not (out / "run.checkpoint.json").exists()

    def test_unknown_sidecar_key_exits_two(self, tmp_path, dataset_csv, capsys):
        meta = dataset_csv.parent / (dataset_csv.name + ".meta.json")
        meta.write_text(json.dumps(dict(json.loads(meta.read_text()), labels="y")))
        cfg = _write(tmp_path / "t.json", {"dataset": str(dataset_csv), "epochs": 1})
        assert main(["train", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"sidecar {meta}" in err and "'labels'" in err

    @pytest.mark.parametrize("key, value, message", [
        ("seed", "abc", "seed must be an int >= 0, got 'abc'"),
        ("seed", -5, "seed must be an int >= 0, got -5"),
        ("generator", [1], "generator must be a dict, got [1]"),
    ])
    def test_bad_sidecar_seed_or_generator_exits_two(self, tmp_path, dataset_csv, capsys,
                                                      key, value, message):
        meta = dataset_csv.parent / (dataset_csv.name + ".meta.json")
        meta.write_text(json.dumps(dict(json.loads(meta.read_text()), **{key: value})))
        cfg = _write(tmp_path / "t.json", {"dataset": str(dataset_csv), "epochs": 1})
        assert main(["train", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"sidecar {meta}" in err and message in err

    @pytest.mark.parametrize("key, value, message", [
        ("lr", -1.0, "lr must be a finite number > 0, got -1.0"),
        ("lr", 0.0, "lr must be a finite number > 0, got 0.0"),
        ("lr", math.nan, "lr must be a finite number > 0, got nan"),
        ("lr", "0.01", "lr must be a finite number > 0, got '0.01'"),
        ("weight_ball", -1.0, "weight_ball must be a finite number > 0, got -1.0"),
        ("weight_ball", math.nan, "weight_ball must be a finite number > 0, got nan"),
        ("weight_ball", True, "weight_ball must be a finite number > 0, got True"),
    ])
    def test_bad_lr_or_weight_ball_exits_two(self, tmp_path, dataset_csv, capsys,
                                             key, value, message):
        cfg = _write(tmp_path / "t.json", {"dataset": str(dataset_csv), "epochs": 0,
                                           key: value})
        out = tmp_path / "o"
        assert main(["train", "--config", cfg, "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_from_echo_is_identical(self, tmp_path, dataset_csv):
        cfg = _write(tmp_path / "t.json", {
            "dataset": str(dataset_csv), "q": 2, "width": 4, "depth": 2,
            "batch_size": 16, "epochs": 2, "lr": 0.01, "out_name": "run",
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--seed", "9", "--out-dir", str(out1)]) == 0
        echo = out1 / "effective-config-train.json"
        assert main(["train", "--config", str(echo), "--out-dir", str(out2)]) == 0
        for name in ("run.checkpoint.json", "run.loss.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("epochs, digest", [
        (0, "3fa50e7af75568cd37c73b84567563df5fa316859ecdd8454347d6ffb625de2c"),
        (2, "85747d20091ed6fc05b71508fd98f93ddecf69fb735af983be1d53c85f0f5e8d"),
    ])
    def test_fresh_checkpoint_bytes_are_golden(self, tmp_path, dataset_csv, epochs, digest):
        # a fresh run builds its model from the config; the hashes were
        # recorded on the inline construction that the model factory replaced
        cfg = _write(tmp_path / "t.json", {
            "dataset": str(dataset_csv), "q": 3, "width": 5, "depth": 3,
            "batch_size": 16, "epochs": epochs, "seed": 7, "out_name": "run",
        })
        out = tmp_path / "trained"
        assert main(["train", "--config", cfg, "--out-dir", str(out)]) == 0
        got = hashlib.sha256((out / "run.checkpoint.json").read_bytes()).hexdigest()
        assert got == digest


class TestExperiment:
    def _plan_cfg(self, tmp_path, **overrides):
        cfg = {
            "exponent": 0.5, "anchor": [2, 200], "q_list": [2, 3],
            "target_params": 700, "depth": 3, "branch_in": 10,
            "epochs": 2, "batch_size": 64, "seeds": [0],
            "adr": {"D": 0.01, "k": 0.01, "nx": 21, "nt": 21},
            "grf_length_scale": 0.05, "points_per_function": 50,
            "param_tolerance": 0.2,
        }
        cfg.update(overrides)
        return _write(tmp_path / "plan.json", cfg)

    def test_dry_run_prints_cell_table(self, tmp_path, capsys):
        from donlab.scaling import make_plan, size_architecture
        cfg = self._plan_cfg(tmp_path)
        assert main(["experiment", "--config", cfg, "--out-dir",
                     str(tmp_path / "o"), "--dry-run"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        pairs = make_plan((2, 200), [2, 3], 0.5)
        for (q, n), line in zip(pairs, lines[1:]):
            w = size_architecture(700, q, 3, 10, 2)
            cols = line.split()
            assert [int(cols[0]), int(cols[1]), int(cols[2])] == [q, n, w]
        assert not (tmp_path / "o").exists()

    def test_target_beyond_float_range_sizes_in_integers(self, tmp_path, capsys):
        # sized in integers, then refused: no array holds that many parameters
        target = 10**400
        cfg = self._plan_cfg(tmp_path, target_params=target)
        assert main(["experiment", "--config", cfg, "--out-dir", str(tmp_path / "o"),
                     "--dry-run"]) == 2
        count = re.fullmatch(r"error: cell q=2: (\d+) params exceed .*\n",
                             capsys.readouterr().err).group(1)
        assert abs(int(count) - target) * 10**150 < target

    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
    def test_params_no_array_holds_exit_two_before_any_data(self, tmp_path, capsys,
                                                            monkeypatch, dry_run):
        # a 10**30-parameter plan used to build every cell's data, then fail every cell
        built = []
        monkeypatch.setattr(scaling, "build_cell_dataset", lambda *a, **k: built.append(a))
        out = tmp_path / "o"
        argv = ["experiment", "--config", self._plan_cfg(tmp_path, target_params=10**30),
                "--out-dir", str(out)] + ["--dry-run"] * dry_run
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert re.fullmatch(rf"error: cell q=2: \d+ params exceed the {np.iinfo(np.intp).max} "
                            r"entries one array can hold\n", captured.err)
        assert captured.out == "" and not out.exists() and built == []

    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
    def test_diffusion_number_overflow_exits_two_before_any_data(self, tmp_path, capsys,
                                                                 monkeypatch, dry_run):
        # the plan used to dry-run to a table, and a run to fail every cell
        built = []
        monkeypatch.setattr(scaling, "build_cell_dataset", lambda *a, **k: built.append(a))
        out = tmp_path / "o"
        adr = {"D": 1e308, "k": 0.01, "nx": 21, "nt": 21}
        argv = ["experiment", "--config", self._plan_cfg(tmp_path, adr=adr),
                "--out-dir", str(out)] + ["--dry-run"] * dry_run
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: D=1e+308 overflows D dt / (2 dx^2) on a 21 x 21 grid\n"
        assert captured.out == "" and not out.exists() and built == []

    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
    def test_underflowing_length_scale_exits_two_before_any_data(self, tmp_path, capsys,
                                                                 monkeypatch, dry_run):
        # the plan used to dry-run to a table, and a run to fail every cell
        built = []
        monkeypatch.setattr(scaling, "build_cell_dataset", lambda *a, **k: built.append(a))
        out = tmp_path / "o"
        argv = ["experiment", "--config", self._plan_cfg(tmp_path, grf_length_scale=1e-320),
                "--out-dir", str(out)] + ["--dry-run"] * dry_run
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: grf_length_scale=1e-320 is too small: "
                                "2 length_scale^2 underflows to 0\n")
        assert captured.out == "" and not out.exists() and built == []

    def test_full_run_emits_outputs_and_verdict(self, tmp_path, capsys):
        cfg = self._plan_cfg(tmp_path)
        out = tmp_path / "o"
        assert main(["experiment", "--config", cfg, "--out-dir", str(out)]) == 0
        assert (out / "curves.csv").exists()
        assert (out / "summary.csv").exists()
        summary = json.loads((out / "suite-summary.json").read_text())
        assert "majority_monotone" in summary["verdict"]
        assert summary["failures"] == []
        row = summary["verdict"]["per_seed"]["0"]
        losses = [f"{v:.4g}" for v in row["best_losses"]]
        assert f"seed 0: best losses {losses} monotone={row['monotone']}\n" in capsys.readouterr().out

    def test_suite_csv_bytes_are_golden(self, tmp_path):
        cfg = self._plan_cfg(tmp_path, seeds=[0, 1])
        out = tmp_path / "o"
        assert main(["experiment", "--config", cfg, "--out-dir", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("summary.csv", "curves.csv")}
        assert digests == {
            "summary.csv": "40f3bcb54a363c0c29f169749e934f919afef77de3dc65115e9dbe87bfbc284a",
            "curves.csv": "4076d2b5d24fe1e3f852126e5b248b7ec114971f64c8f69fd476100b66a3d932",
        }

    @pytest.mark.parametrize("seeds", [[], [0, 0]])
    def test_empty_or_repeated_seeds_exit_two(self, tmp_path, capsys, seeds):
        cfg = self._plan_cfg(tmp_path, seeds=seeds)
        out = tmp_path / "o"
        assert main(["experiment", "--config", cfg, "--out-dir", str(out)]) == 2
        assert f"seeds must be non-empty and distinct; got {seeds}" in capsys.readouterr().err
        assert not out.exists()

    def test_dry_run_from_echo_prints_the_same_table(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["experiment", "--config", self._plan_cfg(tmp_path), "--seed", "4",
                     "--out-dir", str(out)]) == 0
        table = capsys.readouterr().out.splitlines()[:3]
        echo = out / "effective-config-experiment.json"
        assert json.loads(echo.read_text())["seeds"] == [4]
        assert main(["experiment", "--config", str(echo), "--out-dir", str(tmp_path / "d"),
                     "--dry-run"]) == 0
        assert capsys.readouterr().out.splitlines() == table

    @pytest.mark.parametrize("lr", [-1.0, 0.0, math.nan])
    def test_bad_lr_exits_two_before_any_cell(self, tmp_path, capsys, lr):
        out = tmp_path / "o"
        assert main(["experiment", "--config", self._plan_cfg(tmp_path, lr=lr),
                     "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"lr must be a finite number > 0, got {lr}" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("threads, flags", [
        pytest.param("0", [], id="0"), pytest.param("-1", [], id="-1"),
        pytest.param("0", ["--dry-run"], id="0-dry-run"),
        pytest.param("-1", ["--dry-run"], id="-1-dry-run"),
    ])
    def test_fewer_than_one_thread_exits_two(self, tmp_path, capsys, threads, flags):
        out = tmp_path / "o"
        assert main(["experiment", "--config", self._plan_cfg(tmp_path), "--threads", threads,
                     "--out-dir", str(out), *flags]) == 2
        captured = capsys.readouterr()
        assert f"max_workers must be an int >= 1, got {threads}" in captured.err
        assert captured.out == "" and not out.exists()

    def test_failed_cells_exit_one(self, tmp_path):
        cfg = self._plan_cfg(tmp_path, adr={"D": 0.0, "k": 200.0, "nx": 21, "nt": 101})
        out = tmp_path / "o"
        assert main(["experiment", "--config", cfg, "--out-dir", str(out)]) == 1

        def no_constants(token):  # strict JSON: no NaN or Infinity tokens
            raise AssertionError(f"suite-summary.json holds {token}")

        summary = json.loads((out / "suite-summary.json").read_text(),
                             parse_constant=no_constants)
        assert len(summary["failures"]) == 2
        assert list(summary["failures"][0]) == [
            "q", "n", "width", "param_count", "seed", "loss_curve", "wall_time", "error"]

    @pytest.mark.parametrize("key, value, message", [
        ("anchor", [2.5, 200], "anchor_q must be an int"),
        ("anchor", ["2", "200"], "anchor_q must be an int"),
        ("anchor", [2, 200.0], "anchor_n must be an int"),
        ("anchor", [2], "anchor must be a list [q0, n0], got [2]"),
        ("anchor", 2, "anchor must be a list [q0, n0], got 2"),
        ("anchor_q", 3, "anchor cannot be given with anchor_q or anchor_n"),
        ("anchor_n", 300, "anchor cannot be given with anchor_q or anchor_n"),
        ("q_list", [2.5, 3], "q_list[0] must be an int >= 1, got 2.5"),
        ("q_list", [2, True], "q_list[1] must be an int >= 1, got True"),
        ("q_list", 2, "q_list must be a list of ints, got 2"),
        ("target_params", 700.0, "target_params must be an int"),
        ("depth", 3.0, "depth must be an int"),
        ("branch_in", "10", "branch_in must be an int"),
        ("epochs", 2.0, "epochs must be an int"),
        ("batch_size", 64.0, "batch_size must be an int"),
        ("points_per_function", 50.0, "points_per_function must be an int"),
        ("seeds", [0.5], "seeds[0] must be an int >= 0, got 0.5"),
        ("seeds", [False], "seeds[0] must be an int >= 0, got False"),
        ("trunk_in", 3, "unexpected keyword argument 'trunk_in'"),
        ("adr", {"nx": 21.0, "nt": 21}, "nx must be an int >= 3, got 21.0"),
        ("exponent", "1/0", "exponent must be a number or a fraction a/b, got '1/0'"),
        ("exponent", "half", "exponent must be a number or a fraction a/b, got 'half'"),
        ("seeds", [0, -1], "seeds[1] must be an int >= 0, got -1"),
        ("q_list", [-8, 4], "q_list[0] must be an int >= 1, got -8"),
        ("q_list", [0, 4], "q_list[0] must be an int >= 1, got 0"),
        ("exponent", 1e-4, "n at q=3 overflows a float at exponent 0.0001"),
    ])
    def test_non_int_or_unknown_plan_value_exits_two(self, tmp_path, capsys, key, value,
                                                     message):
        # values are not converted, and trunk_in is fixed at 2 for ADR data
        out = tmp_path / "o"
        assert main(["experiment", "--config", self._plan_cfg(tmp_path, **{key: value}),
                     "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("hidden_activation", "gelu", "unknown hidden activation 'gelu'"),
        ("output_activation", "relu", "unknown output activation 'relu'"),
        ("noise_std", -1.0, "noise_std must be a finite number >= 0, got -1.0"),
        ("noise_std", math.inf, "noise_std must be a finite number >= 0, got inf"),
        ("noise_std", True, "noise_std must be a finite number >= 0, got True"),
        ("grf_length_scale", -1.0, "grf_length_scale must be a finite number > 0, got -1.0"),
        ("grf_jitter", math.nan, "grf_jitter must be a finite number >= 0, got nan"),
        ("grf_jitter", None, "grf_jitter must be a finite number >= 0, got None"),
        ("grf_length_scale", "0.1", "grf_length_scale must be a finite number > 0, got '0.1'"),
        ("grf_length_scale", True, "grf_length_scale must be a finite number > 0, got True"),
        ("param_tolerance", -1.0, "param_tolerance must be a finite number >= 0, got -1.0"),
        ("lr", True, "lr must be a finite number > 0, got True"),
    ])
    def test_value_a_cell_would_reject_exits_two_before_any_data(self, tmp_path, capsys,
                                                                 monkeypatch, key, value,
                                                                 message):
        # each of these used to build every cell's data and then fail the cell
        built = []
        monkeypatch.setattr(scaling, "build_adr_dataset", lambda *a, **k: built.append(a))
        out = tmp_path / "o"
        assert main(["experiment", "--config", self._plan_cfg(tmp_path, **{key: value}),
                     "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == "" and not out.exists() and built == []

    @pytest.mark.parametrize("q_list", [[], [2, 2, 3], [3, 2]])
    def test_q_list_not_strictly_increasing_exits_two(self, tmp_path, capsys, q_list):
        # a repeated q used to pass the plan and then be reported as a repeated n
        out = tmp_path / "o"
        assert main(["experiment", "--config", self._plan_cfg(tmp_path, q_list=q_list),
                     "--out-dir", str(out), "--dry-run"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: q_list must be non-empty and strictly increasing, "
                                f"got {q_list}\n")
        assert captured.out == "" and not out.exists()

    def test_negative_seed_flag_exits_two_before_any_data(self, tmp_path, capsys, monkeypatch):
        # a negative seed used to fail every cell and exit 1 after writing the outputs
        built = []
        monkeypatch.setattr(scaling, "build_adr_dataset", lambda *a, **k: built.append(a))
        out = tmp_path / "o"
        assert main(["experiment", "--config", self._plan_cfg(tmp_path), "--seed", "-1",
                     "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seeds[0] must be an int >= 0, got -1\n"
        assert captured.out == "" and not out.exists() and built == []


class TestBound:
    def _cfg(self, tmp_path, n, name="b.json", **overrides):
        cfg = {
            "variant": "general", "n": n, "epsilon": 0.5, "delta": 0.2,
            "label_bound": 1.5, "sigma2": 1.0, "j": 2.0,
            "class": {"d_b": 50, "d_t": 40, "w_b": 3.0, "w_t": 2.0, "q": 4, "c": 1.0},
        }
        cfg.update(overrides)
        return _write(tmp_path / name, cfg)

    def test_doubling_across_invocations(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["bound", "--config", self._cfg(tmp_path, 1000),
                     "--out-dir", str(out)]) == 0
        q1 = json.loads(capsys.readouterr().out)["report"]["q_lower"]
        assert main(["bound", "--config", self._cfg(tmp_path, 16000, name="b2.json"),
                     "--out-dir", str(out)]) == 0
        q2 = json.loads(capsys.readouterr().out)["report"]["q_lower"]
        assert q2 == 2.0 * q1

    @pytest.mark.parametrize("key", ["l_b", "l_t"])
    def test_lipschitz_class_keys_exit_two(self, tmp_path, capsys, key):
        cfg = self._cfg(tmp_path, 1000, **{"class": {"d_b": 50, "d_t": 40, "w_b": 3.0,
                                                     "w_t": 2.0, key: 3.0}})
        out = tmp_path / "o"
        assert main(["bound", "--config", cfg, "--out-dir", str(out)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_report_echoes_inputs(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["bound", "--config", self._cfg(tmp_path, 777),
                     "--out-dir", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["inputs"]["n"] == 777
        assert payload["inputs"]["class"]["d_b"] == 50
        on_disk = json.loads((out / "bound-report.json").read_text())
        assert on_disk == payload

    def test_sigmoid_variant(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path, 1000, variant="sigmoid", alpha=0.3,
                        **{"class": {"d_b": 50, "d_t": 40, "w_b": 2.0, "w_t": 2.0,
                                     "q": 4, "c": 1.0}})
        assert main(["bound", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["which_theorem"] == "sigmoid"

    @pytest.mark.parametrize("variant, w_t, digest", [
        ("general", 2.0, "f706a442f99323dbd9675df7f722c1c33072f499b0d8a0b29a464c51b4d8b684"),
        ("sigmoid", 3.0, "4b33f87343c75012f59535dc0babcb9f711b141d3c37132d342233ddc42df3b6"),
    ])
    def test_report_bytes_are_golden(self, tmp_path, capsys, variant, w_t, digest):
        cfg = self._cfg(tmp_path, 1000, variant=variant, alpha=0.3,
                        **{"class": {"d_b": 50, "d_t": 40, "w_b": 3.0, "w_t": w_t,
                                     "q": 4, "c": 1.0}})
        out = tmp_path / "o"
        assert main(["bound", "--config", cfg, "--out-dir", str(out)]) == 0
        text = (out / "bound-report.json").read_text()
        assert capsys.readouterr().out == text + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_missing_field_is_config_error(self, tmp_path):
        cfg = _write(tmp_path / "b.json", {"variant": "general", "n": 10})
        assert main(["bound", "--config", cfg, "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("top, cls, message", [
        ({"samples": 10}, {}, "'samples'"),
        ({}, {"width": 3}, "'width'"),
        ({"epsilon": math.nan}, {}, "epsilon must be a finite number > 0, got nan"),
        ({}, {"w_b": math.nan}, "w_b must be a number >= 1, got nan"),
        ({"n": "1000"}, {}, "n must be an int >= 1, got '1000'"),
        ({"n": True}, {}, "n must be an int >= 1, got True"),
        ({"epsilon": True}, {}, "epsilon must be a finite number > 0, got True"),
        ({"epsilon": math.inf}, {}, "epsilon must be a finite number > 0, got inf"),
        ({"n": 10**400}, {}, "n must be at most 1.7976931348623157e+308, got an int of 1329 bits"),
    ])
    def test_bad_key_or_value_exits_two(self, tmp_path, capsys, top, cls, message):
        cfg = json.loads(Path(self._cfg(tmp_path, 1000)).read_text())
        cfg.update(top)
        cfg["class"].update(cls)
        out = tmp_path / "o"
        assert main(["bound", "--config", _write(tmp_path / "bad.json", cfg),
                     "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_defaults_apply(self, tmp_path, capsys):
        # q, c, sigma2, alpha and j_source fall back to their defaults
        cfg = {"n": 1000, "epsilon": 0.5, "delta": 0.2, "label_bound": 1.5, "j": 2.0,
               "class": {"d_b": 50, "d_t": 40, "w_b": 3.0, "w_t": 2.0}}
        assert main(["bound", "--config", _write(tmp_path / "b.json", cfg),
                     "--out-dir", str(tmp_path / "o")]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["j_source"] == "analytic"
        assert report["threshold"] == 0.0 - 0.5 * (1.0 + 1.0 * 2.0 * (1.5 + 2.0))

    def test_rerun_from_echo_is_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = self._cfg(tmp_path, 1000, variant="sigmoid", alpha=0.3,
                        **{"class": {"d_b": 50, "d_t": 40, "w_b": 2.0, "w_t": 2.0}})
        assert main(["bound", "--config", cfg, "--out-dir", str(out1)]) == 0
        echo = out1 / "effective-config-bound.json"
        assert main(["bound", "--config", str(echo), "--out-dir", str(out2)]) == 0
        first, second = (json.loads((d / "bound-report.json").read_text()) for d in (out1, out2))
        assert first == second and first["report"]["which_theorem"] == "sigmoid"

    @pytest.mark.parametrize("variant", ["general", "sigmoid"])
    @pytest.mark.parametrize("epsilon, label_bound", [
        (0.5, 1e-300),  # 288 B^2 underflows to 0
        (1e300, 1.5),   # eps^2 overflows
        (0.5, 1e-160),  # the quotient overflows
    ])
    def test_quotient_out_of_float_range_exits_two(self, tmp_path, capsys, variant,
                                                   epsilon, label_bound):
        cfg = self._cfg(tmp_path, 1000, variant=variant, epsilon=epsilon,
                        label_bound=label_bound, **{"class": {"d_b": 50, "d_t": 40,
                                                              "w_b": 2.0, "w_t": 2.0}})
        out = tmp_path / "o"
        assert main(["bound", "--config", cfg, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: epsilon {epsilon!r} and label_bound {label_bound!r} put "
            "eps^2 / (288 label_bound^2) out of float range\n")
        assert not out.exists()

    @given(variant=st.sampled_from(["general", "sigmoid"]), n=_COUNT, epsilon=_magnitude(),
           delta=_magnitude(hi=0.0), label_bound=_magnitude(), sigma2=_magnitude(),
           j=_magnitude(), alpha=_magnitude(hi=0.0), d_b=_COUNT, d_t=_COUNT,
           q=st.one_of(st.integers(1, 4), _COUNT), w_b=_magnitude(lo=0.0),
           w_t=_magnitude(lo=0.0), c=_magnitude(lo=0.0), common=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_extreme_inputs_exit_zero_or_two(self, tmp_path_factory, variant, common,
                                             d_b, d_t, q, w_b, w_t, c, **top):
        # every field from 1e-300 to 1e300, within its domain's side of 1 (q
        # mostly small, so that q <= min(d_b, d_t) often holds); common gives
        # the sigmoid variant its shared weight bound and c = 1
        if common:
            w_t, c = w_b, 1.0
        cfg = dict(top, variant=variant,
                   **{"class": {"d_b": d_b, "d_t": d_t, "q": q, "w_b": w_b, "w_t": w_t, "c": c}})
        tmp = tmp_path_factory.mktemp("bound")
        assert main(["bound", "--config", _write(tmp / "b.json", cfg),
                     "--out-dir", str(tmp / "o")]) in (0, 2)


class TestVerify:
    def test_default_run_passes(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["verify", "--out-dir", str(out)]) == 0
        report = json.loads((out / "verify-report.json").read_text())
        names = {c["name"] for c in report["checks"]}
        assert names == {"gradient_check", "perturbation_bound",
                         "cover_bruteforce", "hoeffding_tail"}
        assert report["failed"] == []
        for check in report["checks"]:
            assert "observed" in check and "bound" in check

    def test_injected_gradient_bug_fails_named_check(self, tmp_path, capsys, monkeypatch):
        exact = cli.loss_grads

        def corrupted(model, batch):
            gb, gt, loss = exact(model, batch)
            gb = gb.copy()
            gb[0] += 1e-3
            return gb, gt, loss

        monkeypatch.setattr(cli, "loss_grads", corrupted)
        out = tmp_path / "o"
        assert main(["verify", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "gradient_check" in err
        report = json.loads((out / "verify-report.json").read_text())
        assert report["failed"] == ["gradient_check"]

    @pytest.mark.parametrize("name, function, failing", [
        ("perturbation_bound", "verify_perturbation", lambda rep: replace(rep, holds=False)),
        ("cover_bruteforce", "verify_cover_bruteforce", lambda ok: False),
        ("hoeffding_tail", "hoeffding_mc_check", lambda rep: replace(rep, holds=False)),
    ], ids=["perturbation_bound", "cover_bruteforce", "hoeffding_tail"])
    def test_failing_bound_check_fails_named_check(self, tmp_path, capsys, monkeypatch,
                                                   name, function, failing):
        real = getattr(bounds, function)
        monkeypatch.setattr(bounds, function, lambda *a, **k: failing(real(*a, **k)))
        cfg = _write(tmp_path / "v.json", {"gradient_models": 1, "perturbation_trials": 50,
                                           "cover_probes": 200, "hoeffding_trials": 200})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"FAILED checks: {name}\n"
        report = json.loads((out / "verify-report.json").read_text())
        assert report["failed"] == [name]
        assert [c["holds"] for c in report["checks"]] == [c["name"] != name
                                                          for c in report["checks"]]

    @pytest.mark.parametrize("key, count", [
        ("gradient_models", 0), ("gradient_models", -3), ("gradient_models", True),
        ("perturbation_trials", 2.5), ("cover_probes", True), ("hoeffding_trials", 100.0),
    ])
    def test_bad_count_exits_two(self, tmp_path, capsys, key, count):
        cfg = _write(tmp_path / "v.json", {key: count})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 2
        assert f"{key} must be an int >= 1, got {count!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_from_echo_is_identical(self, tmp_path, capsys):
        cfg = _write(tmp_path / "v.json", {"gradient_models": 1, "perturbation_trials": 50,
                                           "cover_probes": 200, "hoeffding_trials": 200})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--config", cfg, "--seed", "3", "--out-dir", str(out1)]) == 0
        echo = out1 / "effective-config-verify.json"
        assert main(["verify", "--config", str(echo), "--out-dir", str(out2)]) == 0
        report = "verify-report.json"
        assert (out1 / report).read_bytes() == (out2 / report).read_bytes()

    def test_report_bytes_are_golden(self, tmp_path, capsys):
        # 1,500 perturbation trials span two stacked chunks and 2,000
        # Hoeffding trials span several draw chunks. The hash was re-recorded
        # when the perturbation trials moved to four spawned streams drawn a
        # block at a time; the report before that (e90a12c9...) differed only
        # in perturbation_bound.observed (0.011972548602718902, now
        # 0.014638822958627173)
        cfg = _write(tmp_path / "v.json", {"gradient_models": 3, "perturbation_trials": 1500,
                                           "cover_probes": 2000, "hoeffding_trials": 2000})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--seed", "31", "--out-dir", str(out)]) == 0
        digest = hashlib.sha256((out / "verify-report.json").read_bytes()).hexdigest()
        assert digest == "61cd60954489e0314c6661b213196f7ee4e76a7444abc1b6654e4da2bf7a9818"


class _InlineExecutor:
    """An executor that runs each submitted call at once, on the calling thread."""

    def __init__(self, max_workers):
        assert max_workers == 1

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


class TestVerifyThread:
    """verify runs its cover and Hoeffding checks on one worker thread, beside
    the gradient check, and then shares the perturbation trials with it."""

    CONFIG = {"gradient_models": 3, "perturbation_trials": 1500,
              "cover_probes": 2000, "hoeffding_trials": 2000}

    def _run(self, tmp_path, name):
        cfg = _write(tmp_path / "v.json", self.CONFIG)
        out = tmp_path / name
        rc = main(["verify", "--config", cfg, "--seed", "31", "--out-dir", str(out)])
        return rc, out / "verify-report.json"

    def test_report_bytes_equal_an_inline_run(self, tmp_path, capsys, monkeypatch):
        rc, threaded = self._run(tmp_path, "threaded")
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _InlineExecutor)
        rc_inline, inline = self._run(tmp_path, "inline")
        assert rc == rc_inline == 0
        assert threaded.read_bytes() == inline.read_bytes()

    def test_worker_thread_is_joined(self, tmp_path, capsys):
        before = threading.active_count()
        assert self._run(tmp_path, "o")[0] == 0
        assert threading.active_count() == before

    def test_error_in_perturbation_check_exits_two(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise InputError("perturbation check could not run")

        monkeypatch.setattr(bounds, "verify_perturbation", failing)
        before = threading.active_count()
        rc, report = self._run(tmp_path, "o")
        assert rc == 2 and not report.exists()
        assert capsys.readouterr().err == "error: perturbation check could not run\n"
        assert threading.active_count() == before

    def test_evaluators_on_threads_equal_serial_risks(self):
        # each thread owns its evaluator, and so its layer buffers; more
        # threads than cores and a short switch interval interleave the passes
        model, ds = cli._toy_model_and_data(0)
        k = deeponet._stack_size(model, ds.n)
        rng = np.random.default_rng(9)
        chunks = [[net.flat + rng.uniform(-0.05, 0.05, (k, net.flat.size))
                   for net in (model.branch, model.trunk)] for _ in range(6)]
        serial = deeponet._RiskEvaluator(model, ds)
        want = [serial.risks(*chunk) for chunk in chunks]
        workers = 4
        got, barrier = {}, threading.Barrier(workers)

        def drive(j):
            ev = deeponet._RiskEvaluator(model, ds)
            barrier.wait(timeout=30)
            order = chunks if j % 2 == 0 else chunks[::-1]
            got[j] = [ev.risks(*chunk) for chunk in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=drive, args=(j,)) for j in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for j in range(workers):
            risks = got[j] if j % 2 == 0 else got[j][::-1]
            assert all(bits_equal(r, w) for r, w in zip(risks, want, strict=True))
