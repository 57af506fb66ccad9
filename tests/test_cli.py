"""End-to-end driver tests: every subcommand through cli.main."""

import hashlib
import json
import os

import numpy as np
import pytest

from nextloc import association, cli
from nextloc.config import (ConfigError, RunConfig, coerce_into, config_hash,
                            load_run_config, parse_flat_file)
from nextloc.data import SyntheticSpec, format_timestamp, load_dataset
from nextloc.poi_net import PoiNet
from nextloc.user_net import UserNet

SMALL_SET = ["--set", "n_users=10", "--set", "n_pois=20",
             "--set", "events_per_user=80", "--set", "n_zones=2"]


def fingerprint(directory):
    """Relative path -> content hash for every primary output file."""
    out = {}
    for root, _, names in os.walk(directory):
        for name in names:
            if name == "run.log":      # timestamped sidecar, excluded on purpose
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, directory)
            with open(path, "rb") as f:
                out[rel] = hashlib.sha256(f.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    assert cli.main(["synth", "--seed", "1", *SMALL_SET, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def model_dir(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "model"
    common = ["--epochs", "2", "--dim", "4", "--lr", "0.01", "--out", str(out)]
    assert cli.main(["train", "--data", str(data_dir), "--net", "user",
                     "--beta", "1.0", *common]) == 0
    assert cli.main(["train", "--data", str(data_dir), "--net", "poi",
                     "--slot-dim", "2", *common]) == 0
    return out


class TestSynth:
    def test_dataset_loads_back(self, data_dir):
        ds = load_dataset(data_dir)
        assert (ds.n_users, ds.n_pois) == (10, 20)
        assert ds.user_raw[0] == "u000"

    def test_manifest_has_no_wall_clock(self, data_dir):
        payload = json.loads((data_dir / "run.json").read_text())
        assert payload["command"] == "synth"
        assert payload["seeds"] == [1]
        assert set(payload) == {"command", "config", "config_sha256", "seeds"}
        assert (data_dir / "run.log").read_text().strip()

    def test_same_seed_reruns_byte_identical(self, tmp_path):
        dirs = [tmp_path / name for name in ("a", "b", "c")]
        for d, seed in zip(dirs, ("5", "5", "6")):
            assert cli.main(["synth", "--seed", seed, *SMALL_SET,
                             "--out", str(d)]) == 0
        assert fingerprint(dirs[0]) == fingerprint(dirs[1])
        assert fingerprint(dirs[0]) != fingerprint(dirs[2])

    def test_malformed_set_flag(self, tmp_path):
        assert cli.main(["synth", "--set", "n_users", "--out",
                         str(tmp_path / "x")]) == cli.EXIT_USAGE

    def test_unknown_spec_key(self, tmp_path):
        assert cli.main(["synth", "--set", "n_cities=3", "--out",
                         str(tmp_path / "x")]) == cli.EXIT_USAGE

    def test_out_env_var_sets_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NEXTLOC_OUT", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["synth", "--seed", "0", *SMALL_SET]) == 0
        assert (tmp_path / "synthetic" / "run.json").exists()


class TestIngest:
    def write_raw(self, path, n_users=3, per_user=30):
        lines = []
        for u in range(n_users):
            for k in range(per_user):
                t = format_timestamp(1_300_000_000 + (k * 7 + u) * 3600)
                lines.append(f"{u * 7}\t{t}\t40.{u}\t-75.{k % 9}\tL{k % 5}")
        path.write_text("\n".join(lines) + "\n")

    def test_happy_path(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        self.write_raw(raw)
        out = tmp_path / "ds"
        assert cli.main(["ingest", "--input", str(raw), "--min-records", "10",
                         "--out", str(out)]) == 0
        ds = load_dataset(out)
        assert ds.n_users == 3
        assert ds.n_pois == 5
        assert "users=3" in capsys.readouterr().out

    def test_mostly_malformed_file_fails_with_data_exit(self, tmp_path, capsys):
        raw = tmp_path / "bad.txt"
        raw.write_text("not a record\n" * 5 +
                       "0\t2011-01-01T00:00:00Z\t1.0\t2.0\tL1\n" * 10)
        code = cli.main(["ingest", "--input", str(raw), "--min-records", "1",
                         "--out", str(tmp_path / "ds")])
        assert code == cli.EXIT_DATA
        assert "error:" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path):
        assert cli.main(["ingest", "--input", str(tmp_path / "nope.txt"),
                         "--out", str(tmp_path / "ds")]) == cli.EXIT_DATA


class TestTrain:
    def test_checkpoints_load_back(self, model_dir):
        user_net = UserNet.load(model_dir / "user_net.ckpt")
        poi_net = PoiNet.load(model_dir / "poi_net.ckpt")
        assert user_net.dim == 4 and user_net.beta == 1.0
        assert poi_net.slot_dim == 2

    def test_loss_log_has_one_line_per_epoch(self, model_dir):
        lines = (model_dir / "user_loss.txt").read_text().splitlines()
        assert len(lines) == 2
        assert all(np.isfinite(float(v)) for v in lines)

    def test_manifest_names_the_net(self, model_dir):
        payload = json.loads((model_dir / "run.json").read_text())
        assert payload["command"] == "train:poi"
        assert len(payload["config_sha256"]) == 64

    def test_negative_epochs_is_usage_error(self, data_dir, tmp_path, capsys):
        out = tmp_path / "neg"
        assert cli.main(["train", "--data", str(data_dir), "--net", "user",
                         "--epochs", "-3", "--out", str(out)]) == cli.EXIT_USAGE
        assert "epochs" in capsys.readouterr().err
        assert not (out / "user_net.ckpt").exists()

    def test_zero_epochs_keeps_the_seeded_init(self, data_dir, tmp_path):
        out = tmp_path / "init"
        assert cli.main(["train", "--data", str(data_dir), "--net", "user",
                         "--epochs", "0", "--dim", "4", "--seed", "3",
                         "--out", str(out)]) == 0
        loaded = UserNet.load(out / "user_net.ckpt")
        fresh = UserNet(10, 20, 4, seed=3)
        for got, want in zip(loaded.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(got.values, want.values)
        assert (out / "user_loss.txt").read_text() == ""


class TestAssociate:
    def test_matrices_round_trip(self, data_dir, tmp_path):
        out = tmp_path / "sim"
        assert cli.main(["associate", "--data", str(data_dir),
                         "--out", str(out)]) == 0
        ds = load_dataset(data_dir)
        np.testing.assert_array_equal(
            association.load_similarity(out / "corr_user.txt"),
            association.user_similarity(ds))
        np.testing.assert_array_equal(
            association.load_similarity(out / "corr_poi.txt"),
            association.poi_similarity(ds))

    def test_top_k_thins_the_rows(self, data_dir, tmp_path):
        out = tmp_path / "sim_k"
        assert cli.main(["associate", "--data", str(data_dir), "--top-k", "2",
                         "--out", str(out)]) == 0
        corr = association.load_similarity(out / "corr_user.txt")
        assert (np.count_nonzero(corr, axis=1) <= 3).all()  # 2 peers + self


class TestEvaluate:
    def test_single_variant_report(self, data_dir, model_dir, tmp_path, capsys):
        out = tmp_path / "rep"
        assert cli.main(["evaluate", "--data", str(data_dir),
                         "--user-ckpt", str(model_dir / "user_net.ckpt"),
                         "--variant", "user_net_only", "--s-u-mode", "static",
                         "--out", str(out)]) == 0
        payload = json.loads((out / "report_user_net_only.json").read_text())
        assert payload["n_instances"] > 0
        assert 0.0 < payload["mrr"] <= 1.0
        assert "Acc@1" in capsys.readouterr().out
        assert (out / "report_user_net_only.txt").exists()

    def test_all_variants_write_all_reports(self, data_dir, model_dir, tmp_path):
        out = tmp_path / "rep_all"
        assert cli.main(["evaluate", "--data", str(data_dir),
                         "--user-ckpt", str(model_dir / "user_net.ckpt"),
                         "--poi-ckpt", str(model_dir / "poi_net.ckpt"),
                         "--variant", "all", "--s-u-mode", "static",
                         "--out", str(out)]) == 0
        for variant in cli.VARIANTS:
            assert (out / f"report_{variant}.json").exists()

    def test_unknown_variant_is_usage_error(self, data_dir, model_dir, tmp_path):
        assert cli.main(["evaluate", "--data", str(data_dir),
                         "--user-ckpt", str(model_dir / "user_net.ckpt"),
                         "--variant", "oracle",
                         "--out", str(tmp_path / "r")]) == cli.EXIT_USAGE

    def test_variant_without_needed_checkpoint(self, data_dir, model_dir, tmp_path):
        assert cli.main(["evaluate", "--data", str(data_dir),
                         "--poi-ckpt", str(model_dir / "poi_net.ckpt"),
                         "--variant", "full",
                         "--out", str(tmp_path / "r")]) == cli.EXIT_USAGE

    def test_variant_without_place_checkpoint(self, data_dir, model_dir, tmp_path, capsys):
        out = tmp_path / "r"
        assert cli.main(["evaluate", "--data", str(data_dir),
                         "--user-ckpt", str(model_dir / "user_net.ckpt"),
                         "--variant", "full", "--out", str(out)]) == cli.EXIT_USAGE
        assert "--poi-ckpt" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_checkpoint_file_is_data_error(self, data_dir, model_dir, tmp_path):
        assert cli.main(["evaluate", "--data", str(data_dir),
                         "--user-ckpt", str(model_dir / "absent.ckpt"),
                         "--variant", "user_net_only",
                         "--out", str(tmp_path / "r")]) == cli.EXIT_DATA

    def test_checkpoint_from_another_dataset_is_data_error(self, data_dir, model_dir,
                                                            tmp_path, capsys):
        other = tmp_path / "other"
        assert cli.main(["synth", "--seed", "1", *SMALL_SET, "--set", "n_users=12",
                         "--out", str(other / "data")]) == 0
        assert cli.main(["train", "--data", str(other / "data"), "--net", "user",
                         "--epochs", "0", "--dim", "4", "--out", str(other)]) == 0
        out = tmp_path / "r"
        assert cli.main(["evaluate", "--data", str(data_dir),
                         "--user-ckpt", str(other / "user_net.ckpt"),
                         "--poi-ckpt", str(model_dir / "poi_net.ckpt"),
                         "--variant", "all", "--out", str(out)]) == cli.EXIT_DATA
        assert "12 users" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ks", ["0", "1,-5", ","])
    def test_ks_below_one_is_usage_error(self, data_dir, model_dir, tmp_path, ks):
        assert cli.main(["evaluate", "--data", str(data_dir),
                         "--user-ckpt", str(model_dir / "user_net.ckpt"),
                         "--variant", "user_net_only", "--ks", ks,
                         "--out", str(tmp_path / "r")]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("mode", ["static", "stepwise"])
    def test_all_variants_match_one_variant_runs(self, data_dir, model_dir, tmp_path, mode):
        """Similarities and place rows built once for --variant all give the
        same bytes as each variant evaluated on its own."""
        nets = ["--user-ckpt", str(model_dir / "user_net.ckpt"),
                "--poi-ckpt", str(model_dir / "poi_net.ckpt"), "--s-u-mode", mode]
        assert cli.main(["evaluate", "--data", str(data_dir), *nets, "--variant", "all",
                         "--out", str(tmp_path / "all")]) == 0
        for variant in cli.VARIANTS:
            one = tmp_path / variant
            assert cli.main(["evaluate", "--data", str(data_dir), *nets,
                             "--variant", variant, "--out", str(one)]) == 0
            for suffix in ("json", "txt"):
                name = f"report_{variant}.{suffix}"
                assert (one / name).read_bytes() == (tmp_path / "all" / name).read_bytes()

    def test_reruns_byte_identical(self, data_dir, model_dir, tmp_path):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            assert cli.main(["evaluate", "--data", str(data_dir),
                             "--user-ckpt", str(model_dir / "user_net.ckpt"),
                             "--variant", "user_net_only", "--s-u-mode", "static",
                             "--out", str(d)]) == 0
        assert fingerprint(dirs[0]) == fingerprint(dirs[1])


class TestAblate:
    def test_small_battery(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("n_users = 10\nn_pois = 20\n"
                        "events_per_user = 80\nn_zones = 2\n")
        out = tmp_path / "abl"
        assert cli.main(["ablate", "--spec", str(spec), "--seeds", "0",
                         "--epochs", "2", "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text().splitlines()
        assert len(summary) == len(cli.VARIANTS)
        payload = json.loads((out / "report_full.json").read_text())
        assert payload["seeds"] == [0]

    def test_needs_a_source(self, tmp_path):
        assert cli.main(["ablate", "--out", str(tmp_path / "x")]) == cli.EXIT_USAGE

    def test_showcase_rejects_fixed_data(self, data_dir, tmp_path):
        assert cli.main(["ablate", "--data", str(data_dir), "--showcase",
                         "--out", str(tmp_path / "x")]) == cli.EXIT_USAGE


class TestStats:
    def test_all_kinds_written(self, data_dir, tmp_path):
        out = tmp_path / "stats"
        assert cli.main(["stats", "--data", str(data_dir),
                         "--out", str(out)]) == 0
        for kind in cli.evaluate.STAT_KINDS:
            assert (out / f"{kind}.csv").exists()
        header, *rows = (out / "visit_counts.csv").read_text().splitlines()
        assert header == "poi,threshold,n_users"
        assert rows

    def test_single_kind(self, data_dir, tmp_path):
        out = tmp_path / "one"
        assert cli.main(["stats", "--data", str(data_dir),
                         "--which", "user_sim_vs_common", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()
                      if p.suffix == ".csv") == ["user_sim_vs_common.csv"]


class TestCase:
    def test_report_written(self, data_dir, model_dir, tmp_path, capsys):
        out = tmp_path / "case"
        assert cli.main(["case", "--data", str(data_dir),
                         "--user-ckpt", str(model_dir / "user_net.ckpt"),
                         "--poi-ckpt", str(model_dir / "poi_net.ckpt"),
                         "--user", "u003", "--poi", "p007", "--k", "3",
                         "--out", str(out)]) == 0
        payload = json.loads((out / "case_u003_p007.json").read_text())
        assert payload["user"] == "u003"
        assert len(payload["top_pois_for_user"]) == 3
        assert json.loads(capsys.readouterr().out) == payload

    def test_unknown_raw_id(self, data_dir, model_dir, tmp_path):
        assert cli.main(["case", "--data", str(data_dir),
                         "--user-ckpt", str(model_dir / "user_net.ckpt"),
                         "--poi-ckpt", str(model_dir / "poi_net.ckpt"),
                         "--user", "u999", "--poi", "p007"]) == cli.EXIT_DATA


class TestConfig:
    def test_precedence_flags_over_file_over_defaults(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("epochs = 7\nlr = 0.5\n")
        assert RunConfig().epochs == 150
        assert load_run_config(path).epochs == 7
        cfg = load_run_config(path, {"epochs": 2, "lr": None})
        assert cfg.epochs == 2
        assert cfg.lr == 0.5          # None override falls through to the file

    def test_unknown_key_names_the_valid_ones(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("learning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="valid keys"):
            load_run_config(path)

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match="'epochs'"):
            load_run_config(None, {"epochs": "ten"})

    def test_flat_file_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("# full line comment\n\ndim = 6  # trailing\n")
        assert parse_flat_file(path) == {"dim": "6"}

    def test_flat_file_requires_assignment(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("dim\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_flat_file(path)

    def test_tuple_and_optional_fields(self):
        cfg = load_run_config(None, {"top_ks": "1,3", "batch_size": "none"})
        assert cfg.top_ks == (1, 3)
        assert cfg.batch_size is None
        assert load_run_config(None, {"batch_size": "8"}).batch_size == 8

    @pytest.mark.parametrize("text,expected", [("true", True), ("1", True),
                                               ("False", False), ("off", False)])
    def test_bool_words_parse(self, text, expected):
        spec = coerce_into(SyntheticSpec, {"split_plans": text})
        assert spec.split_plans is expected

    def test_bool_garbage_rejected(self):
        with pytest.raises(ConfigError, match="split_plans"):
            coerce_into(SyntheticSpec, {"split_plans": "maybe"})

    def test_config_hash_tracks_content(self):
        base = config_hash(RunConfig())
        assert base == config_hash(RunConfig())
        assert base != config_hash(RunConfig(epochs=151))
        assert len(base) == 64 and set(base) <= set("0123456789abcdef")
