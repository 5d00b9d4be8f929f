import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from donlab import nn
from donlab.cli import main
from donlab.datagen import read_dataset_csv
from donlab.deeponet import load_checkpoint


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

    @pytest.mark.parametrize("command, flag", [
        ("bound", "--seed"), ("gen-data", "--threads"), ("train", "--threads"),
        ("bound", "--threads"), ("verify", "--threads"),
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
        ("pendulum", {"nt": 31.0}, "'float' object cannot be interpreted as an integer"),
    ])
    def test_bad_key_or_value_in_a_section_exits_two(self, tmp_path, capsys, section, extra,
                                                      message):
        cfg = {
            "kind": "pendulum", "sensor_count": 5, "num_functions": 1,
            "points_per_function": 8, "seed": 1, "out_name": "pend",
            "pendulum": {"k": 1.0, "nt": 31}, "grf": {"length_scale": 0.1},
        }
        cfg[section].update(extra)
        out = tmp_path / "out"
        assert main(["gen-data", "--config", _write(tmp_path / "p.json", cfg),
                     "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

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
        ("epochs", -2, "epochs must be >= 0, got -2"),
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
    ])
    def test_bad_epochs_or_batch_size_exit_two(self, tmp_path, dataset_csv, capsys,
                                               key, value, message):
        cfg = _write(tmp_path / "t.json", {
            "dataset": str(dataset_csv), "q": 2, "width": 4, "depth": 2,
            "epochs": 1, "batch_size": 16, key: value, "out_name": "run",
        })
        out = tmp_path / "trained"
        assert main(["train", "--config", cfg, "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "run.checkpoint.json").exists()

    @pytest.mark.parametrize("checkpoint", [[1, 2], {"format": "donlab-checkpoint-v1"}])
    def test_resume_from_non_checkpoint_exits_two(self, tmp_path, dataset_csv, capsys,
                                                 checkpoint):
        resume = tmp_path / "resume.json"
        resume.write_text(json.dumps(checkpoint))
        cfg = _write(tmp_path / "t.json", {
            "dataset": str(dataset_csv), "q": 2, "width": 4, "depth": 2,
            "epochs": 1, "resume_from": str(resume), "out_name": "run",
        })
        out = tmp_path / "trained"
        assert main(["train", "--config", cfg, "--out-dir", str(out)]) == 2
        assert f"{resume} is not a donlab checkpoint" in capsys.readouterr().err
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
            "target_params": 700, "depth": 3, "branch_in": 10, "trunk_in": 2,
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
        assert not (tmp_path / "o" / "curves.csv").exists()

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

    def test_failed_cells_exit_one(self, tmp_path):
        cfg = self._plan_cfg(tmp_path, adr={"D": 0.0, "k": 200.0, "nx": 21, "nt": 101})
        out = tmp_path / "o"
        assert main(["experiment", "--config", cfg, "--out-dir", str(out)]) == 1
        summary = json.loads((out / "suite-summary.json").read_text())
        assert len(summary["failures"]) == 2


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
        ({"epsilon": math.nan}, {}, "epsilon must be > 0, got nan"),
        ({}, {"w_b": math.nan}, "w_b must be >= 1, got nan"),
        ({"n": "1000"}, {}, "'>=' not supported"),
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

    def test_injected_gradient_bug_fails_named_check(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["verify", "--out-dir", str(out),
                     "--inject-gradient-bug"]) == 1
        err = capsys.readouterr().err
        assert "gradient_check" in err
        report = json.loads((out / "verify-report.json").read_text())
        assert report["failed"] == ["gradient_check"]

    @pytest.mark.parametrize("count", [0, -3])
    def test_no_gradient_models_exit_two(self, tmp_path, capsys, count):
        cfg = _write(tmp_path / "v.json", {"gradient_models": count})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 2
        assert f"gradient_models must be >= 1, got {count}" in capsys.readouterr().err
        assert not (out / "verify-report.json").exists()

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
