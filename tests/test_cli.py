"""End-to-end driver tests: every subcommand through cli.main."""

import dataclasses
import hashlib
import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextloc import association, cli
from nextloc import autodiff as ad
from nextloc.config import (ConfigError, RunConfig, coerce_into, config_hash,
                            load_run_config, parse_flat_file)
from nextloc.data import SyntheticSpec, format_timestamp, load_dataset
from nextloc.net import WindowNet
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


@pytest.fixture(scope="module")
def twelve_slots(tmp_path_factory):
    """A twin of ``data_dir`` cut into 12 time slots, not 24, and an
    untrained place-side checkpoint built for it."""
    out = tmp_path_factory.mktemp("slots")
    assert cli.main(["synth", "--seed", "1", *SMALL_SET, "--set", "slots=12",
                     "--out", str(out / "data")]) == 0
    assert cli.main(["train", "--data", str(out / "data"), "--net", "poi", "--epochs", "0",
                     "--dim", "4", "--slot-dim", "2", "--out", str(out)]) == 0
    return out


def slot_mismatches(data_dir, model_dir, twelve_slots):
    """(dataset, place-side checkpoint, slots it was built for, the dataset's
    slots) in both directions."""
    return [(twelve_slots / "data", model_dir / "poi_net.ckpt", 24, 12),
            (data_dir, twelve_slots / "poi_net.ckpt", 12, 24)]


@pytest.fixture(scope="module")
def bad_user_ckpts(model_dir, tmp_path_factory):
    """Files given as --user-ckpt that must end in a data error, with the
    text the message must carry."""
    out = tmp_path_factory.mktemp("bad")
    text = out / "notes.txt"
    text.write_text("not a checkpoint at all\n")
    arrays = ad.load_checkpoint(model_dir / "user_net.ckpt")
    arrays["b_out"] = arrays["b_out"][:, :1]     # broadcastable into (1, n_pois)
    shape = out / "narrow_bias.ckpt"
    ad.save_checkpoint(shape, {name: ad.Tensor(a) for name, a in arrays.items()})
    return {"wrong_kind": (model_dir / "poi_net.ckpt", "not a next-place"),
            "not_a_checkpoint": (text, "not a checkpoint"),
            "wrong_shape": (shape, "b_out")}


@pytest.fixture(scope="module")
def unusable_ckpts(model_dir, tmp_path_factory):
    """Checkpoints whose scores are not finite: both trained networks with
    every parameter scaled by 1e200 (finite parameters that overflow), and
    both with every parameter NaN."""
    out = tmp_path_factory.mktemp("unusable")
    for case, factor in (("overflow", 1e200), ("nan", np.nan)):
        (out / case).mkdir()
        for net in ("user", "poi"):
            spoilt = (UserNet if net == "user" else PoiNet).load(model_dir / f"{net}_net.ckpt")
            for tensor in spoilt.parameters():
                tensor.values *= factor
            spoilt.save(out / case / f"{net}_net.ckpt")
    return {case: out / case for case in ("overflow", "nan")}


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

    def test_synth_files_are_pinned(self, tmp_path):
        """A spec and seed always give the same bytes."""
        out = tmp_path / "pinned"
        assert cli.main(["synth", "--seed", "1", "--set", "n_users=160", "--set", "n_pois=120",
                         "--set", "n_zones=12", "--out", str(out)]) == 0
        files = fingerprint(out)
        assert files["events.tsv"] == \
            "ad9c44db2d964a74082abc96c7e2a4d24fb0438ae006ed1a54d4b71130f815c5"
        assert files["meta.json"] == \
            "f1fbf3f930f2a169e0b89bc36cdc287b14865bf8b8adacbae427c3f9e30aed1a"

    def test_malformed_set_flag(self, tmp_path):
        assert cli.main(["synth", "--set", "n_users", "--out",
                         str(tmp_path / "x")]) == cli.EXIT_USAGE

    def test_unknown_spec_key(self, tmp_path):
        assert cli.main(["synth", "--set", "n_cities=3", "--out",
                         str(tmp_path / "x")]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("setting, knob", [("split_ratio=nan", "split_ratio"),
                                               ("split_ratio=1.5", "split_ratio"),
                                               ("window=1", "window"), ("slots=0", "slots")])
    def test_unusable_setting_is_usage_error(self, tmp_path, capsys, setting, knob):
        """The dataset settings are checked before the spec's feasibility,
        so the error names the knob; nothing is written."""
        out = tmp_path / "x"
        assert cli.main(["synth", *SMALL_SET, "--set", setting,
                         "--out", str(out)]) == cli.EXIT_USAGE
        assert f"error: {knob} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting, named", [
        ("noise_palette=-1", "noise_palette"), ("noise_rate=-0.5", "noise_rate"),
        ("exclusive_per_user=-1", "exclusive_per_user"), ("adopt_count=-1", "adopt_count"),
        ("drift_count=-3", "drift_count"), ("pool_overlap=-1", "pool_overlap"),
        ("n_zones=100", "n_zones"), ("events_per_user=100000", "events_per_user"),
        ("pool_overlap=0 noise_rate=1", "noise_rate"),
        ("pool_overlap=0 noise_rate=0.97", "noise_rate")])
    def test_infeasible_setting_is_named(self, tmp_path, capsys, setting, named):
        """An out-of-range count or rate, a zone layout with an empty zone, an
        event budget that cannot fill and more noise visits than a user has
        unplanted slots are data errors naming the setting; nothing is written."""
        out = tmp_path / "x"
        sets = [arg for pair in setting.split() for arg in ("--set", pair)]
        assert cli.main(["synth", *sets, "--out", str(out)]) == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith(
            f"error: infeasible synthetic spec: {named} ")
        assert not out.exists()

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
        assert set(json.loads((out / "run.json").read_text())["config"]) == set(cli.DATA_KEYS)

    def test_mostly_malformed_file_fails_with_data_exit(self, tmp_path, capsys):
        raw = tmp_path / "bad.txt"
        raw.write_text("not a record\n" * 5 +
                       "0\t2011-01-01T00:00:00Z\t1.0\t2.0\tL1\n" * 10)
        code = cli.main(["ingest", "--input", str(raw), "--min-records", "1",
                         "--out", str(tmp_path / "ds")])
        assert code == cli.EXIT_DATA
        assert "error:" in capsys.readouterr().err

    def test_undecodable_bytes_are_data_error(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        self.write_raw(raw)
        with open(raw, "ab") as f:
            f.write(b"\xff\n")
        assert cli.main(["ingest", "--input", str(raw), "--min-records", "10",
                         "--out", str(tmp_path / "ds")]) == cli.EXIT_DATA
        assert "not UTF-8" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path):
        assert cli.main(["ingest", "--input", str(tmp_path / "nope.txt"),
                         "--out", str(tmp_path / "ds")]) == cli.EXIT_DATA

    @pytest.mark.parametrize("flag, value", [("--split-ratio", "1.5"), ("--split-ratio", "nan"),
                                             ("--slots", "0")])
    def test_unloadable_setting_is_usage_error(self, tmp_path, capsys, flag, value):
        """A split ratio outside (0, 1] or fewer than one slot would write a
        directory that no command can load; nothing is written."""
        raw = tmp_path / "raw.txt"
        self.write_raw(raw)
        out = tmp_path / "ds"
        assert cli.main(["ingest", "--input", str(raw), "--min-records", "10", flag, value,
                         "--out", str(out)]) == cli.EXIT_USAGE
        assert f"{flag[2:].replace('-', '_')} must be" in capsys.readouterr().err
        assert not out.exists()


def _rewrite_manifest(directory, **changes):
    """Set manifest keys; a value of None removes the key."""
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    for key, value in changes.items():
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
    path.write_text(json.dumps(manifest))


def _add_events(directory, field, raw_id):
    """Append copies of the first three events with one raw id replaced:
    enough train events for a user of their own."""
    path = directory / "events.tsv"
    with open(path, "a", encoding="utf-8") as f:
        for text in path.read_text().splitlines()[:3]:
            fields = text.split("\t")
            fields[{"user": 0, "poi": 4}[field]] = raw_id
            f.write("\t".join(fields) + "\n")


def _drop_user_events(directory, raw_id):
    path = directory / "events.tsv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if line.split("\t")[0] != raw_id))


BROKEN_DATASETS = {
    "invalid_manifest": lambda d: (d / "manifest.json").write_text("{not json"),
    "no_split_ratio": lambda d: _rewrite_manifest(d, split_ratio=None),
    "window_not_a_number": lambda d: _rewrite_manifest(d, window="x"),
    "window_zero": lambda d: _rewrite_manifest(d, window=0),
    "id_map_line_without_tab": lambda d: (d / "users.tsv").write_text(
        (d / "users.tsv").read_text().replace("\t", " ", 1)),
    "event_of_unknown_user": lambda d: _add_events(d, "user", "ghost"),
    "event_at_unknown_place": lambda d: _add_events(d, "poi", "nowhere"),
    "last_user_without_events": lambda d: _drop_user_events(d, "u009"),
    "manifest_n_users_differs": lambda d: _rewrite_manifest(d, n_users=11),
    "manifest_n_pois_differs": lambda d: _rewrite_manifest(d, n_pois=19),
    "manifest_n_events_differs": lambda d: _rewrite_manifest(d, n_events=1),
}


class TestBrokenDatasetDirectory:
    @pytest.mark.parametrize("case", sorted(BROKEN_DATASETS))
    def test_is_data_error(self, data_dir, tmp_path, capsys, case):
        broken = tmp_path / "data"
        shutil.copytree(data_dir, broken)
        BROKEN_DATASETS[case](broken)
        assert cli.main(["stats", "--data", str(broken),
                         "--out", str(tmp_path / "stats")]) == cli.EXIT_DATA
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("case, message", [
        ("last_user_without_events", "user 'u009' of users.tsv has no events"),
        ("manifest_n_users_differs", "n_users is 11, but the directory holds 10"),
        ("manifest_n_pois_differs", "n_pois is 19, but the directory holds 20"),
        ("manifest_n_events_differs", "n_events is 1, but the directory holds 800"),
    ])
    def test_parts_that_disagree_are_named(self, data_dir, tmp_path, capsys, case, message):
        broken = tmp_path / "data"
        shutil.copytree(data_dir, broken)
        BROKEN_DATASETS[case](broken)
        assert cli.main(["train", "--data", str(broken), "--net", "user", "--epochs", "1",
                         "--out", str(tmp_path / "m")]) == cli.EXIT_DATA
        assert message in capsys.readouterr().err


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

    def test_manifest_ignores_keys_train_does_not_read(self, data_dir, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("s_u_mode = static\n")
        common = ["train", "--data", str(data_dir), "--net", "user", "--epochs", "1",
                  "--dim", "4"]
        assert cli.main([*common, "--out", str(tmp_path / "plain")]) == 0
        assert cli.main([*common, "--config", str(config),
                         "--out", str(tmp_path / "configured")]) == 0
        plain = (tmp_path / "plain" / "run.json").read_bytes()
        assert plain == (tmp_path / "configured" / "run.json").read_bytes()
        assert set(json.loads(plain)["config"]) == set(cli.TRAIN_KEYS)

    def test_negative_epochs_is_usage_error(self, data_dir, tmp_path, capsys):
        out = tmp_path / "neg"
        assert cli.main(["train", "--data", str(data_dir), "--net", "user",
                         "--epochs", "-3", "--out", str(out)]) == cli.EXIT_USAGE
        assert "epochs" in capsys.readouterr().err
        assert not (out / "user_net.ckpt").exists()

    @pytest.mark.parametrize("net", ["user", "poi"])
    def test_diverging_training_is_numeric_error(self, data_dir, tmp_path, capsys, net):
        assert cli.main(["train", "--data", str(data_dir), "--net", net, "--epochs", "3",
                         "--lr", "1e300", "--dim", "4",
                         "--out", str(tmp_path / "m")]) == cli.EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("net", ["user", "poi"])
    @pytest.mark.parametrize("batch_size", ["0", "-3"])
    def test_batch_size_below_one_is_usage_error(self, data_dir, tmp_path, capsys, net,
                                                 batch_size):
        out = tmp_path / "m"
        assert cli.main(["train", "--data", str(data_dir), "--net", net, "--epochs", "1",
                         "--dim", "4", "--batch-size", batch_size,
                         "--out", str(out)]) == cli.EXIT_USAGE
        assert f"batch_size must be at least 1, got {batch_size}" in capsys.readouterr().err
        assert not (out / f"{net}_net.ckpt").exists()

    @pytest.mark.parametrize("net", ["user", "poi"])
    @pytest.mark.parametrize("batch_size", ["0", "-3"])
    def test_batch_size_below_one_is_usage_error_at_zero_epochs(self, data_dir, tmp_path,
                                                                capsys, net, batch_size):
        out = tmp_path / "m"
        assert cli.main(["train", "--data", str(data_dir), "--net", net, "--epochs", "0",
                         "--dim", "4", "--batch-size", batch_size,
                         "--out", str(out)]) == cli.EXIT_USAGE
        assert f"batch_size must be at least 1, got {batch_size}" in capsys.readouterr().err
        assert not (out / f"{net}_net.ckpt").exists()
        assert not (out / "run.json").exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-0.01"])
    def test_lr_not_finite_and_positive_is_usage_error(self, data_dir, tmp_path, capsys, lr):
        out = tmp_path / "m"
        assert cli.main(["train", "--data", str(data_dir), "--net", "user", "--epochs", "1",
                         "--dim", "4", "--lr", lr, "--out", str(out)]) == cli.EXIT_USAGE
        assert "lr must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("net", ["user", "poi"])
    def test_overflowing_parameters_are_numeric_error(self, data_dir, tmp_path, capsys, net):
        """One step at lr 1e300 leaves finite parameters whose scores
        overflow: exit 4, and no checkpoint that evaluate would refuse."""
        out = tmp_path / "m"
        assert cli.main(["train", "--data", str(data_dir), "--net", net, "--epochs", "1",
                         "--lr", "1e300", "--dim", "4", "--out", str(out)]) == cli.EXIT_NUMERIC
        assert "non-finite scores" in capsys.readouterr().err
        assert not out.exists()

    def test_batch_size_none_is_full_batch(self, data_dir, tmp_path):
        """``--batch-size none`` reads as its config-file line does."""
        common = ["train", "--data", str(data_dir), "--net", "user", "--epochs", "1",
                  "--dim", "4"]
        assert cli.main([*common, "--out", str(tmp_path / "default")]) == 0
        assert cli.main([*common, "--batch-size", "none", "--out", str(tmp_path / "none")]) == 0
        assert fingerprint(tmp_path / "default") == fingerprint(tmp_path / "none")

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


@pytest.fixture(scope="module")
def all_train(tmp_path_factory):
    """A dataset ingested with split ratio 1.0 (no test events; 10 users and
    12 places, enough candidates for every default top-k), and both networks
    trained on it for one epoch."""
    out = tmp_path_factory.mktemp("all_train")
    raw = out / "raw.txt"
    raw.write_text("".join(f"u{u}\t{format_timestamp(1_300_000_000 + (k * 10 + u) * 3600)}"
                           f"\t40.{u}\t-75.{k % 9}\tL{(k + u) % 12}\n"
                           for u in range(10) for k in range(30)))
    assert cli.main(["ingest", "--input", str(raw), "--min-records", "10",
                     "--split-ratio", "1.0", "--out", str(out / "data")]) == 0
    for net in ("user", "poi"):
        assert cli.main(["train", "--data", str(out / "data"), "--net", net,
                         "--epochs", "1", "--dim", "4", "--out", str(out)]) == 0
    return out


class TestEvaluate:
    def test_dataset_without_test_events_is_data_error(self, all_train, tmp_path, capsys):
        out = tmp_path / "r"
        assert cli.main(["evaluate", "--data", str(all_train / "data"),
                         "--user-ckpt", str(all_train / "user_net.ckpt"),
                         "--poi-ckpt", str(all_train / "poi_net.ckpt"),
                         "--variant", "full", "--out", str(out)]) == cli.EXIT_DATA
        assert "no test events" in capsys.readouterr().err
        assert not out.exists()

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
        assert set(json.loads((out / "run.json").read_text())["config"]) == set(cli.EVAL_KEYS)

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

    def test_slot_count_mismatch_is_data_error(self, data_dir, model_dir, twelve_slots,
                                               tmp_path, capsys):
        for data, ckpt, built, held in slot_mismatches(data_dir, model_dir, twelve_slots):
            out = tmp_path / f"r{built}"
            assert cli.main(["evaluate", "--data", str(data), "--poi-ckpt", str(ckpt),
                             "--variant", "poi_net_only", "--out", str(out)]) == cli.EXIT_DATA
            err = capsys.readouterr().err
            assert f"built for {built} time slots" in err and f"has {held}" in err
            assert not out.exists()

    @pytest.mark.parametrize("case", ["wrong_kind", "not_a_checkpoint", "wrong_shape"])
    def test_bad_checkpoint_is_data_error(self, data_dir, bad_user_ckpts, tmp_path,
                                          capsys, case):
        path, message = bad_user_ckpts[case]
        out = tmp_path / "r"
        assert cli.main(["evaluate", "--data", str(data_dir), "--user-ckpt", str(path),
                         "--variant", "user_net_only", "--out", str(out)]) == cli.EXIT_DATA
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_removed_place_row_mode_key_is_usage_error(self, data_dir, model_dir,
                                                        tmp_path, capsys):
        """Place-side rows have one protocol; a config that still picks one
        is refused by name rather than ignored."""
        conf = tmp_path / "run.conf"
        conf.write_text("s_l_mode = static\n")
        assert cli.main(["evaluate", "--data", str(data_dir),
                         "--user-ckpt", str(model_dir / "user_net.ckpt"),
                         "--variant", "user_net_only", "--config", str(conf),
                         "--out", str(tmp_path / "r")]) == cli.EXIT_USAGE
        assert "unknown config key 's_l_mode'" in capsys.readouterr().err

    @pytest.mark.parametrize("fusion", ["weighted_add:nan,nan", "weighted_add:inf,-inf",
                                        "maxpool:7,9", "weighted_add:0.7",
                                        "weighted_add:0.7,0.3,0", "weighted_add:a,b"])
    def test_bad_fusion_text_is_usage_error(self, data_dir, model_dir, tmp_path, capsys,
                                            fusion):
        """Weights go only with weighted_add, exactly two finite ones; the
        text is checked before the dataset is read."""
        nets = ["--user-ckpt", str(model_dir / "user_net.ckpt"),
                "--poi-ckpt", str(model_dir / "poi_net.ckpt"), "--fusion", fusion]
        for data in (data_dir, tmp_path / "absent"):
            out = tmp_path / "r"
            assert cli.main(["evaluate", "--data", str(data), *nets,
                             "--out", str(out)]) == cli.EXIT_USAGE
            assert repr(fusion) in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("case", ["overflow", "nan"])
    @pytest.mark.parametrize("variant", ["user_net_only", "poi_net_only", "all"])
    def test_non_finite_scores_are_numeric_error(self, data_dir, unusable_ckpts, tmp_path,
                                                 capsys, case, variant):
        """Rows that are not finite would rank every truth first; they end in
        exit 4, and numpy's warnings (errors under this suite) stay silent."""
        ckpts = unusable_ckpts[case]
        out = tmp_path / "r"
        assert cli.main(["evaluate", "--data", str(data_dir),
                         "--user-ckpt", str(ckpts / "user_net.ckpt"),
                         "--poi-ckpt", str(ckpts / "poi_net.ckpt"),
                         "--variant", variant, "--out", str(out)]) == cli.EXIT_NUMERIC
        assert "non-finite scores" in capsys.readouterr().err
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
        assert set(json.loads((out / "run.json").read_text())["config"]) == set(cli.ABLATE_KEYS)

    def test_seeds_come_only_from_the_flag(self, tmp_path, capsys):
        config = tmp_path / "c.txt"
        config.write_text("seeds = 3\n")
        assert cli.main(["ablate", "--showcase", "--config", str(config),
                         "--out", str(tmp_path / "x")]) == cli.EXIT_USAGE
        assert "unknown config key 'seeds'" in capsys.readouterr().err

    def test_dataset_without_test_events_is_data_error(self, all_train, tmp_path, capsys,
                                                       monkeypatch):
        """Refused before any training, at the default 150 epochs."""
        def train(*args, **kwargs):
            raise AssertionError("trained a network on a dataset it must refuse")

        monkeypatch.setattr(WindowNet, "train", train)
        out = tmp_path / "abl"
        assert cli.main(["ablate", "--data", str(all_train / "data"), "--seeds", "0",
                         "--out", str(out)]) == cli.EXIT_DATA
        assert "no test events" in capsys.readouterr().err
        assert not out.exists()

    def test_needs_a_source(self, tmp_path):
        assert cli.main(["ablate", "--out", str(tmp_path / "x")]) == cli.EXIT_USAGE

    def test_showcase_rejects_fixed_data(self, data_dir, tmp_path):
        assert cli.main(["ablate", "--data", str(data_dir), "--showcase",
                         "--out", str(tmp_path / "x")]) == cli.EXIT_USAGE


class TestSeeds:
    @pytest.mark.parametrize("argv, flag", [
        (["synth", *SMALL_SET, "--seed", "-1"], "--seed"),
        (["synth", *SMALL_SET, "--seed", "1,2"], "--seed"),
        (["train", "--data", "no-such-dir", "--net", "user", "--seed", "x"], "--seed"),
        (["ablate", "--spec", "no-such-spec", "--seeds", "0,-1"], "--seeds"),
        (["ablate", "--showcase", "--seeds", "0,x"], "--seeds"),
        (["ablate", "--showcase", "--seeds", ""], "--seeds"),
    ])
    def test_bad_seed_is_usage_error_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                      argv, flag):
        """Checked before the inputs are read (a missing --data or --spec would
        be a data error) and before any training; nothing is written."""
        def train(*args, **kwargs):
            raise AssertionError("trained before the seeds were checked")

        monkeypatch.setattr(WindowNet, "train", train)
        out = tmp_path / "x"
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_USAGE
        assert f"error: {flag} expects" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("case", ["wrong_kind", "not_a_checkpoint", "wrong_shape"])
    def test_bad_checkpoint_is_data_error(self, data_dir, model_dir, bad_user_ckpts,
                                          capsys, case):
        path, message = bad_user_ckpts[case]
        assert cli.main(["case", "--data", str(data_dir), "--user-ckpt", str(path),
                         "--poi-ckpt", str(model_dir / "poi_net.ckpt"),
                         "--user", "u003", "--poi", "p007"]) == cli.EXIT_DATA
        assert message in capsys.readouterr().err

    def test_slot_count_mismatch_is_data_error(self, data_dir, model_dir, twelve_slots,
                                               capsys):
        for data, ckpt, built, held in slot_mismatches(data_dir, model_dir, twelve_slots):
            assert cli.main(["case", "--data", str(data),
                             "--user-ckpt", str(model_dir / "user_net.ckpt"),
                             "--poi-ckpt", str(ckpt),
                             "--user", "u003", "--poi", "p007"]) == cli.EXIT_DATA
            err = capsys.readouterr().err
            assert f"built for {built} time slots" in err and f"has {held}" in err

    @pytest.mark.parametrize("case", ["overflow", "nan"])
    def test_non_finite_scores_are_numeric_error(self, data_dir, unusable_ckpts, tmp_path,
                                                 capsys, case):
        ckpts = unusable_ckpts[case]
        out = tmp_path / "case"
        assert cli.main(["case", "--data", str(data_dir),
                         "--user-ckpt", str(ckpts / "user_net.ckpt"),
                         "--poi-ckpt", str(ckpts / "poi_net.ckpt"),
                         "--user", "u003", "--poi", "p007",
                         "--out", str(out)]) == cli.EXIT_NUMERIC
        assert "non-finite scores" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_raw_id(self, data_dir, model_dir, tmp_path):
        assert cli.main(["case", "--data", str(data_dir),
                         "--user-ckpt", str(model_dir / "user_net.ckpt"),
                         "--poi-ckpt", str(model_dir / "poi_net.ckpt"),
                         "--user", "u999", "--poi", "p007"]) == cli.EXIT_DATA


#: Each command's run.json ``config_sha256`` at default settings: where a
#: setting is declared must not change a manifest.
DEFAULT_CONFIG_SHA256 = {
    "ingest": "47f1477ce7d9bc4675b61c7aef0e32d2d6fae70e5d4783bf845362d7cb9c29be",
    "train:user": "b9e8d037a5675eeab30b6395e0013aa0129e94005aa3d8d14f4b397a3e013b19",
    "train:poi": "b9e8d037a5675eeab30b6395e0013aa0129e94005aa3d8d14f4b397a3e013b19",
    "evaluate": "f47167c893bb514f46b114acba506c6bbd24598e5b014eb9e14676300a7b594b",
    "ablate": "8f6c89f4826f5398be2909d1a5c077e04a8f15c1e0bd36728f3792a2c59ed7bc",
}


#: (argv whose input does not exist, key, bad text, error text): a bad
#: setting exits 2 before any input is read, given as a flag or in a file.
BAD_SETTINGS = [
    (["ingest", "--input", "{absent}"], "format", "foo", "unknown format 'foo'"),
    (["ingest", "--input", "{absent}"], "min_records", "0",
     "min_records must be at least 1, got 0"),
    (["ingest", "--input", "{absent}"], "min_poi_records", "-5",
     "min_poi_records must be at least 0, got -5"),
    (["ingest", "--input", "{absent}"], "window", "1", "window must be an integer >= 2"),
    (["train", "--data", "{absent}", "--net", "user"], "optimizer", "foo",
     "unknown optimizer 'foo'"),
    (["train", "--data", "{absent}", "--net", "user"], "dim", "0",
     "dim must be at least 1, got 0"),
    (["train", "--data", "{absent}", "--net", "user"], "dim", "-2",
     "dim must be at least 1, got -2"),
    (["train", "--data", "{absent}", "--net", "poi"], "slot_dim", "0",
     "slot_dim must be at least 1, got 0"),
    (["train", "--data", "{absent}", "--net", "user"], "epochs", "ten", "bad value for 'epochs'"),
    (["evaluate", "--data", "{absent}"], "s_u_mode", "foo", "unknown s_u_mode 'foo'"),
    (["evaluate", "--data", "{absent}"], "variant", "oracle", "unknown variant 'oracle'"),
    (["evaluate", "--data", "{absent}"], "top_ks", "0", "top_ks must be"),
    (["ablate", "--showcase"], "lr", "0", "lr must be finite and positive"),
]


class TestSettings:
    @pytest.mark.parametrize("argv, key, text, message", BAD_SETTINGS,
                             ids=[f"{a[0]}-{k}={t}" for a, k, t, _ in BAD_SETTINGS])
    def test_flag_and_file_fail_alike_before_input(self, tmp_path, capsys, argv, key, text,
                                                   message):
        argv = [arg.format(absent=tmp_path / "absent") for arg in argv]
        flag = "--ks" if key == "top_ks" else "--" + key.replace("_", "-")
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {text}\n")
        errors = []
        for given in ([flag, text], ["--config", str(conf)]):
            out = tmp_path / "out"
            assert cli.main([*argv, *given, "--out", str(out)]) == cli.EXIT_USAGE
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: ") and message in errors[0]

    def test_showcase_records_the_battery_settings_that_trained(self, tmp_path):
        out = tmp_path / "abl"
        assert cli.main(["ablate", "--showcase", "--seeds", "0", "--epochs", "1",
                         "--out", str(out)]) == 0
        config = json.loads((out / "run.json").read_text())["config"]
        assert (config["lr"], config["beta"], config["epochs"]) == (0.01, 1.0, 1)
        trained = cli.evaluate.synthetic_battery(
            seeds=(0,), settings=dataclasses.replace(cli.evaluate.BATTERY_SETTINGS, epochs=1))
        assert (out / "report_full.json").read_text() == trained["full"].to_json()

    def test_showcase_config_file_matches_flags(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("fusion = minpool\nepochs = 1\n")
        showcase = ["ablate", "--showcase", "--seeds", "0"]
        assert cli.main([*showcase, "--fusion", "minpool", "--epochs", "1",
                         "--out", str(tmp_path / "flags")]) == 0
        assert cli.main([*showcase, "--config", str(conf), "--out", str(tmp_path / "file")]) == 0
        assert fingerprint(tmp_path / "flags") == fingerprint(tmp_path / "file")


class TestManifests:
    def test_default_config_hashes_are_pinned(self, tmp_path):
        """ingest, train, evaluate and ablate at default settings, on 10
        users of 100 check-ins over 12 places (enough candidates for the
        default top-k)."""
        raw = tmp_path / "raw.txt"
        raw.write_text("".join(f"u{u}\t{format_timestamp(1_300_000_000 + (k * 10 + u) * 3600)}"
                               f"\t40.{u}\t-75.{k % 9}\tL{(k + u) % 12}\n"
                               for u in range(10) for k in range(100)))
        data, model = tmp_path / "data", tmp_path / "model"
        ckpts = ["--user-ckpt", str(model / "user_net.ckpt"),
                 "--poi-ckpt", str(model / "poi_net.ckpt")]
        runs = [("ingest", ["ingest", "--input", str(raw), "--out", str(data)], data),
                ("train:user", ["train", "--data", str(data), "--net", "user",
                                "--out", str(model)], model),
                ("train:poi", ["train", "--data", str(data), "--net", "poi",
                               "--out", str(model)], model),
                ("evaluate", ["evaluate", "--data", str(data), *ckpts,
                              "--out", str(tmp_path / "report")], tmp_path / "report"),
                ("ablate", ["ablate", "--data", str(data), "--seeds", "0",
                            "--out", str(tmp_path / "ablation")], tmp_path / "ablation")]
        for command, argv, out in runs:
            assert cli.main(argv) == 0
            payload = json.loads((out / "run.json").read_text())
            assert payload["command"] == command
            assert payload["config_sha256"] == DEFAULT_CONFIG_SHA256[command]

    def test_every_config_key_is_read_by_some_command(self):
        read = set(cli.DATA_KEYS) | set(cli.TRAIN_KEYS) | set(cli.EVAL_KEYS) | set(cli.ABLATE_KEYS)
        assert read == {field.name for field in dataclasses.fields(RunConfig)}


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

    def test_flat_file_bytes_not_utf8(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_bytes(b"dim = \xff\n")
        with pytest.raises(ConfigError, match=r"c\.conf: not UTF-8"):
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


@pytest.fixture(scope="module")
def flat_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "c.conf"


FLAT_LINE = st.one_of(
    st.text(max_size=12),
    st.tuples(st.text(max_size=8), st.text(max_size=8)).map("=".join))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=40),
                 st.lists(FLAT_LINE, max_size=5).map(lambda ls: "\n".join(ls).encode())))
def test_flat_file_fuzz_parses_or_raises_config_error(flat_path, data):
    """Any bytes either parse to a str -> str dict or raise ConfigError."""
    flat_path.write_bytes(data)
    try:
        parsed = parse_flat_file(flat_path)
    except ConfigError:
        return
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in parsed.items())
