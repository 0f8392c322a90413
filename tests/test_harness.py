"""Runner artifacts, reproducibility, budget ledgers, and the CLI surface."""

import hashlib
import json

import numpy as np
import pytest

from mhnes import cli, runner
from mhnes.config import ConfigError, ExperimentConfig
from mhnes.data import gen_synthetic, save_bundle
from mhnes.space import ModelSpec, sample_random_genotype


def tiny_config_dict(method="mhe_sample", out="runs/x", seeds=(0, 1)):
    return {
        "method": method,
        "data": {
            "classes": 3, "image_size": 16,
            "n_train": 96, "n_val": 48, "n_test": 48, "seed": 1,
        },
        "model": {
            "num_classes": 3, "num_heads": 2, "cells_per_head": 1, "nodes": 2,
            "ops": ["skip_connect", "max_pool_3x3", "avg_pool_3x3"],
            "backbone_width": 8, "head_width": 8,
        },
        "search": {
            "epochs": 2, "batch": 32, "warmstart_epochs": 1,
            "drnas_stage_epochs": 2, "drnas_warmstart_epochs": 1,
            "partial_k": 2, "drnas_stage2_k": 1, "eval_samples": 3,
        },
        "train": {"epochs": 2, "batch": 48},
        "seeds": list(seeds),
        "out_dir": out,
        "pool_size": 3,
    }


def save_random_genotype(config_dict, path):
    """Save a random genotype of the config's model at ``path``; return it."""
    model = config_dict["model"]
    spec = ModelSpec(**{**model, "ops": tuple(model["ops"])})
    genotype = sample_random_genotype(spec, np.random.default_rng(0))
    genotype.save(path)
    return genotype


def strip_wall(csv_text):
    return ["," .join(line.split(",")[:-1]) for line in csv_text.splitlines()]


@pytest.fixture(scope="module")
def mhe_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mhe")
    cfg = ExperimentConfig.from_dict(tiny_config_dict(out=str(out / "run")))
    return cfg, runner.run(cfg)


class TestRunArtifacts:
    def test_layout(self, mhe_run):
        _, out = mhe_run
        assert (out / "metrics.csv").exists()
        assert (out / "config.json").exists()
        for seed in (0, 1):
            d = out / f"seed_{seed}"
            assert (d / "genotype.json").exists()
            assert (d / "budget.json").exists()
            assert (d / "manifest.json").exists()

    def test_manifest_hash_matches_stored_config(self, mhe_run):
        cfg, out = mhe_run
        stored = (out / "config.json").read_text()
        rehash = hashlib.sha256(stored.encode()).hexdigest()
        manifest = json.loads((out / "seed_0" / "manifest.json").read_text())
        assert manifest["config_hash"] == rehash == cfg.config_hash()

    def test_budget_executed_matches_planned(self, mhe_run):
        _, out = mhe_run
        for seed in (0, 1):
            b = json.loads((out / f"seed_{seed}" / "budget.json").read_text())
            assert b["executed"]["total_steps"] == b["planned"]["total_steps"]

    def test_aggregate_mean_is_arithmetic_mean_of_seed_rows(self, mhe_run):
        _, out = mhe_run
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        seed_rows = [r for r in rows if r["seed"] not in ("mean", "std")]
        mean_rows = [r for r in rows if r["seed"] == "mean"]
        assert mean_rows, "aggregate rows missing"
        for mr in mean_rows:
            group = [
                r for r in seed_rows
                if r["split"] == mr["split"] and r["severity"] == mr["severity"]
            ]
            want = np.mean([float(r["nll"]) for r in group])
            assert abs(float(mr["nll"]) - want) < 1e-6

    def test_aggregates_are_last_rows(self, mhe_run):
        _, out = mhe_run
        lines = (out / "metrics.csv").read_text().strip().splitlines()[1:]
        seeds = [l.split(",")[1] for l in lines]
        first_agg = seeds.index("mean")
        assert all(s in ("mean", "std") for s in seeds[first_agg:])

    def test_rerun_identical_except_wall_clock(self, tmp_path):
        cfg1 = ExperimentConfig.from_dict(
            tiny_config_dict(out=str(tmp_path / "a"), seeds=(0,))
        )
        cfg2 = ExperimentConfig.from_dict(
            tiny_config_dict(out=str(tmp_path / "b"), seeds=(0,))
        )
        out1, out2 = runner.run(cfg1), runner.run(cfg2)
        a = strip_wall((out1 / "metrics.csv").read_text())
        b = strip_wall((out2 / "metrics.csv").read_text())
        assert a == b
        ga = (out1 / "seed_0" / "genotype.json").read_bytes()
        gb = (out2 / "seed_0" / "genotype.json").read_bytes()
        assert ga == gb

    def test_failing_seed_aborts_only_itself(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig.from_dict(
            tiny_config_dict(out=str(tmp_path / "f"), seeds=(0, 1))
        )
        real = runner.run_seed

        def boom(config, bundle, seed, seed_dir):
            if seed == 1:
                raise RuntimeError("induced failure")
            return real(config, bundle, seed, seed_dir)

        monkeypatch.setattr(runner, "run_seed", boom)
        out = runner.run(cfg)
        m0 = json.loads((out / "seed_0" / "manifest.json").read_text())
        m1 = json.loads((out / "seed_1" / "manifest.json").read_text())
        assert "error" not in m0
        assert "induced failure" in m1["error"]
        rows = (out / "metrics.csv").read_text().strip().splitlines()[1:]
        assert all(r.split(",")[1] in ("0", "mean", "std") for r in rows)

    def test_nonfinite_loss_names_its_step_in_the_manifest(self, tmp_path):
        d = tiny_config_dict(out=str(tmp_path / "nan"), seeds=(0,))
        d["train"]["lr"] = 1e300
        with pytest.warns(RuntimeWarning, match="overflow"):
            out = runner.run(ExperimentConfig.from_dict(d))
        error = json.loads((out / "seed_0" / "manifest.json").read_text())["error"]
        assert error.startswith("FloatingPointError")
        assert "phase 'train'" in error

    @pytest.mark.parametrize("command,method", [("search", "randomnas"),
                                                ("baseline", "mhe_sample")])
    def test_failed_seed_exits_two_and_keeps_the_others(
        self, tmp_path, monkeypatch, capsys, command, method
    ):
        real = runner.run_seed

        def boom(config, bundle, seed, seed_dir):
            if seed == 1:
                raise RuntimeError("induced failure")
            return real(config, bundle, seed, seed_dir)

        monkeypatch.setattr(runner, "run_seed", boom)
        p = tmp_path / "c.json"
        out = tmp_path / "run"
        p.write_text(json.dumps(tiny_config_dict(method=method, out=str(out))))
        assert cli.main([command, "--config", str(p)]) == 2
        assert "seed 1 failed: RuntimeError: induced failure" in capsys.readouterr().err
        assert (out / "seed_0" / "genotype.json").exists()
        rows = (out / "metrics.csv").read_text().strip().splitlines()[1:]
        assert rows and all(r.split(",")[1] in ("0", "mean", "std") for r in rows)

    @pytest.mark.parametrize("method", ["pcdarts", "drnas", "randomnas"])
    def test_empty_search_validation_half_exits_two(self, tmp_path, capsys, method):
        d = tiny_config_dict(method=method, out=str(tmp_path / "run"), seeds=(0,))
        d["data"]["n_train"] = 3
        d["search"]["val_fraction"] = 0.1
        (tmp_path / "c.json").write_text(json.dumps(d))
        assert cli.main(["search", "--config", str(tmp_path / "c.json")]) == 2
        manifest = json.loads((tmp_path / "run/seed_0/manifest.json").read_text())
        assert manifest["error"].startswith("ValueError: search split of n_train=3")
        assert "0 validation examples" in manifest["error"]

    def test_mismatched_classes_rejected(self, tmp_path):
        d = tiny_config_dict(out=str(tmp_path / "m"))
        d["model"]["num_classes"] = 4
        d["data"]["classes"] = 3
        with pytest.raises(ConfigError, match="num_classes"):
            ExperimentConfig.from_dict(d)

    def test_stored_dataset_with_other_class_count_rejected(self, tmp_path):
        data = tmp_path / "d.bin"
        save_bundle(gen_synthetic(classes=3, n_train=8, n_val=4, n_test=4), data)
        d = tiny_config_dict(out=str(tmp_path / "m"))
        d["model"]["num_classes"] = 4
        d["data"] = {"classes": 4, "path": str(data)}
        cfg = ExperimentConfig.from_dict(d)
        with pytest.raises(ConfigError, match="provides 3 classes"):
            runner.run(cfg)
        assert not (tmp_path / "m").exists()

    def test_one_shot_method_writes_loadable_genotype(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            tiny_config_dict(method="randomnas", out=str(tmp_path / "rn"), seeds=(0,))
        )
        out = runner.run(cfg)
        geno = cli._load_genotype(out / "seed_0" / "genotype.json")
        geno.validate()

    def test_pool_method_writes_member_list(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            tiny_config_dict(method="nes_rs", out=str(tmp_path / "nes"), seeds=(0,))
        )
        out = runner.run(cfg)
        d = json.loads((out / "seed_0" / "genotype.json").read_text())
        assert len(d["members"]) == 2


class TestCli:
    def test_dataset_gen_then_inspect_counts_match(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert cli.main(
            ["dataset", "gen", "--classes", "4", "--seed", "7",
             "--train", "40", "--val", "20", "--test", "20",
             "--out", str(out)]
        ) == 0
        gen_out = capsys.readouterr().out
        assert cli.main(["dataset", "inspect", str(out)]) == 0
        ins_out = capsys.readouterr().out
        for line in ("train: n=40", "val: n=20", "test: n=20"):
            assert line in gen_out and line in ins_out

    @pytest.mark.parametrize("flags, kwargs", [
        ([], {}),
        (["--classes", "3", "--train", "9", "--val", "5", "--test", "6",
          "--size", "8", "--noise", "0.3", "--seed", "4"],
         dict(classes=3, n_train=9, n_val=5, n_test=6, image_size=8,
              noise_std=0.3, seed=4)),
    ])
    def test_dataset_gen_writes_the_bundle_of_its_flags(
        self, tmp_path, capsys, flags, kwargs
    ):
        out, want = tmp_path / "d", tmp_path / "want.bin"
        assert cli.main(["dataset", "gen", *flags, "--out", str(out)]) == 0
        save_bundle(gen_synthetic(**kwargs), want)
        assert (out / "dataset.bin").read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--classes", "1"], ["--size", "4"], ["--noise", "-1"], ["--train", "-1"],
        ["--val", "0"], ["--test", "0"],
    ])
    def test_dataset_gen_bad_flag_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "d"
        assert cli.main(["dataset", "gen", *flags, "--out", str(out)]) == 1
        assert "must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_piecewise_commands_check_class_counts(self, tmp_path, capsys, command):
        from mhnes.supernet import DiscreteNetwork

        d = tiny_config_dict()
        geno, weights = tmp_path / "g.json", tmp_path / "w.npz"
        genotype = save_random_genotype(d, geno)
        model = DiscreteNetwork(np.random.default_rng(0), genotype, 3)
        np.savez(weights, **model.state_arrays())
        d["model"]["num_classes"] = 4
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(d))
        argv = [command, "--config", str(cfg), "--genotype", str(geno),
                "--out", str(tmp_path / "o")]
        if command == "eval":
            argv += ["--weights", str(weights)]
        assert cli.main(argv) == 1
        assert "num_classes" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_train_rejects_stored_dataset_with_other_class_count(
        self, tmp_path, capsys
    ):
        data = tmp_path / "d.bin"
        save_bundle(gen_synthetic(classes=4, n_train=8, n_val=4, n_test=4), data)
        d = tiny_config_dict()
        d["data"] = {"classes": 3, "path": str(data)}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(d))
        geno = tmp_path / "g.json"
        save_random_genotype(d, geno)
        assert cli.main(["train", "--config", str(cfg), "--genotype", str(geno),
                         "--out", str(tmp_path / "o")]) == 1
        assert "provides 4 classes" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [
        ["--m-list", "x"], ["--m-list", ""], ["--m-list", "1,0"],
        ["--samples", "1"], ["--groups", "0"],
    ])
    def test_analyze_regret_bad_flag_is_usage_error(self, tmp_path, capsys, flags):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(tiny_config_dict()))
        out = tmp_path / "r"
        argv = ["analyze", "regret", "--config", str(cfg), *flags, "--out", str(out)]
        assert cli.main(argv) == 1
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--genotype", "g.json", "--seed", "-1"],
        ["analyze", "hessian", "--seed", "-1"],
        ["analyze", "hamming", "--sample", "2", "--seed", "-1"],
        ["analyze", "hamming", "--sample", "-1", "--genotypes", "g.json", "g.json"],
    ])
    def test_negative_seed_or_sample_is_usage_error(self, tmp_path, capsys, argv):
        d = tiny_config_dict(method="drnas")
        (tmp_path / "c.json").write_text(json.dumps(d))
        save_random_genotype(d, tmp_path / "g.json")
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        out = tmp_path / "o"
        assert cli.main([*argv, "--config", str(tmp_path / "c.json"),
                         "--out", str(out)]) == 1
        assert "must be" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_is_usage_error(self, capsys):
        assert cli.main(["search", "--config", "missing.cfg"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["dataset", "gen", "--wat", "3", "--out", "x"]) == 1

    def test_method_command_mismatch(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(tiny_config_dict(method="mhe_sample")))
        assert cli.main(["search", "--config", str(p)]) == 1
        assert "baseline" in capsys.readouterr().err

    def test_runtime_failure_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(tiny_config_dict()))
        geno = tmp_path / "g.json"
        geno.write_text("{}")  # parseable JSON, invalid genotype
        code = cli.main(
            ["train", "--config", str(cfg), "--genotype", str(geno),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["train", "eval", "hamming"])
    def test_member_list_genotype_is_a_usage_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(tiny_config_dict()))
        one = tmp_path / "one.json"
        geno = save_random_genotype(tiny_config_dict(), one)
        members = tmp_path / "members.json"
        members.write_text(json.dumps({"members": [geno.to_dict()] * 2}))
        out = tmp_path / "o"
        argv = {
            "train": ["train", "--config", str(cfg), "--genotype", str(members)],
            "eval": ["eval", "--config", str(cfg), "--genotype", str(members),
                     "--weights", str(tmp_path / "w.npz")],
            "hamming": ["analyze", "hamming", "--genotypes", str(one), str(members)],
        }[command]
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert f"{members}: a member list of 2 genotypes" in capsys.readouterr().err
        assert not out.exists()

    def test_report_matches_hand_merge(self, tmp_path, capsys):
        csv1 = tmp_path / "a.csv"
        header = runner.CSV_HEADER
        csv1.write_text(
            header + "\n"
            "drnas,0,3,test,0,0.500000,0.100000,0.020000,0.400000,100,10,1.0\n"
            "drnas,1,3,test,0,0.700000,0.200000,0.040000,0.500000,100,10,1.0\n"
            "drnas,mean,3,test,0,0.600000,0.150000,0.030000,0.450000,100,10,1.0\n"
        )
        csv2 = tmp_path / "b.csv"
        csv2.write_text(
            header + "\n"
            "nes_rs,0,3,test,0,0.800000,0.300000,0.050000,0.600000,200,99,1.0\n"
            "nes_rs,1,3,test,0,0.600000,0.100000,0.030000,0.500000,200,99,1.0\n"
        )
        assert cli.main(["report", "--csv", str(csv1), str(csv2)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("method,M,")
        drnas = dict(zip(out[0].split(","), out[1].split(",")))
        assert drnas["method"] == "drnas"
        assert float(drnas["nll_mean"]) == pytest.approx(0.6)
        assert float(drnas["nll_std"]) == pytest.approx(np.std([0.5, 0.7]))
        nes = dict(zip(out[0].split(","), out[2].split(",")))
        assert float(nes["error_mean"]) == pytest.approx(0.2)

    @pytest.mark.parametrize("text", ["a,b\n1,2\n", ""], ids=["other-header", "empty"])
    def test_report_rejects_non_metrics_csv(self, tmp_path, capsys, text):
        good = tmp_path / "good.csv"
        good.write_text(
            runner.CSV_HEADER + "\n"
            "drnas,0,3,test,0,0.500000,0.100000,0.020000,0.400000,100,10,1.0\n"
        )
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        out = tmp_path / "table.csv"
        code = cli.main(["report", "--csv", str(good), str(bad), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert not out.exists()

    def test_train_and_eval_csvs_feed_report(self, tmp_path, capsys):
        d = tiny_config_dict()
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(d))
        geno = tmp_path / "g.json"
        save_random_genotype(d, geno)
        tr, ev = tmp_path / "t", tmp_path / "e"
        assert cli.main(["train", "--config", str(cfg), "--genotype", str(geno),
                         "--seed", "3", "--out", str(tr)]) == 0
        assert cli.main(["eval", "--config", str(cfg), "--genotype", str(geno),
                         "--weights", str(tr / "weights.npz"), "--out", str(ev)]) == 0
        budget = json.loads((tr / "budget.json").read_text())
        tables = []
        for out in (tr, ev):
            lines = (out / "metrics.csv").read_text().strip().splitlines()
            assert lines[0] == runner.CSV_HEADER
            rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
            assert len(rows) == 8
            assert [(r["split"], r["severity"]) for r in rows] == (
                [("train", "0"), ("val", "0")] + [("test", str(s)) for s in range(6)]
            )
            tables.append(rows)
        train_rows, eval_rows = tables
        assert {r["steps"] for r in train_rows} == {str(budget["total_steps"])}
        assert {(r["method"], r["seed"], r["steps"]) for r in eval_rows} == {
            ("eval", "0", "0")
        }
        for a, b in zip(train_rows, eval_rows):  # same weights, same evaluation
            for k in ("M", "nll", "error", "ece", "oracle_nll", "params"):
                assert a[k] == b[k]
        capsys.readouterr()
        for out in (tr, ev):
            assert cli.main(["report", "--csv", str(out / "metrics.csv")]) == 0
            assert capsys.readouterr().out.startswith("method,M,")

    def test_analyze_hamming_requires_inputs(self, capsys):
        assert cli.main(["analyze", "hamming", "--out", "x"]) == 1

    def test_no_subcommand_mutates_dataset_directory(self, tmp_path):
        dataset_dir = tmp_path / "data"
        assert cli.main(
            ["dataset", "gen", "--classes", "3", "--train", "96", "--val", "48",
             "--test", "48", "--seed", "2", "--out", str(dataset_dir)]
        ) == 0
        blob = (dataset_dir / "dataset.bin").read_bytes()
        d = tiny_config_dict(method="randomnas", out=str(tmp_path / "run"), seeds=(0,))
        d["data"] = {"classes": 3, "path": str(dataset_dir / "dataset.bin")}
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(d))
        assert cli.main(["dataset", "inspect", str(dataset_dir)]) == 0
        assert cli.main(["search", "--config", str(cfg_path)]) == 0
        assert (dataset_dir / "dataset.bin").read_bytes() == blob
        assert [p.name for p in dataset_dir.iterdir()] == ["dataset.bin"]
