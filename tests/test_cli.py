"""CLI smoke tests (fast subcommands only)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if hasattr(a, "choices") and a.choices)
        assert set(sub.choices) == {"table1", "table2", "fig5",
                                    "table3", "cost", "batch",
                                    "deploy", "floor", "serve",
                                    "loadgen", "dataset",
                                    "telemetry-report"}

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults_parsed(self):
        args = build_parser().parse_args(["fig5"])
        assert args.train == 600
        assert args.tolerance == 0.01

    def test_table3_defaults_differ(self):
        args = build_parser().parse_args(["table3"])
        assert args.guard == 0.03
        assert args.train == 1000

    def test_overrides(self):
        args = build_parser().parse_args(
            ["fig5", "--train", "50", "--tolerance", "0.05"])
        assert args.train == 50
        assert args.tolerance == 0.05

    def test_jobs_default_serial(self):
        for command in ("fig5", "batch"):
            assert build_parser().parse_args([command]).jobs == 1

    def test_jobs_only_on_engine_commands(self):
        """--jobs must not be advertised where it would be a no-op."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table3", "--jobs", "2"])

    def test_sim_jobs_on_simulating_commands(self):
        for command in ("fig5", "table3", "cost", "batch"):
            args = build_parser().parse_args([command])
            assert args.sim_jobs == 1
            args = build_parser().parse_args([command, "--sim-jobs", "4"])
            assert args.sim_jobs == 4

    def test_sim_jobs_not_on_table_printers(self):
        """table1/table2 measure one nominal instance: no population."""
        for command in ("table1", "table2"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--sim-jobs", "2"])

    def test_sim_engine_on_simulating_commands(self):
        """The kernel follows the DUT's capability: no simulating
        command offers a choice."""
        for argv in (["fig5"], ["table3"], ["cost"], ["batch"],
                     ["deploy"],
                     ["dataset", "generate", "/tmp/s", "--rows", "1"],
                     ["dataset", "extend", "/tmp/s", "--rows", "1"]):
            assert not hasattr(build_parser().parse_args(argv),
                               "sim_engine")
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + ["--sim-engine",
                                                  "batched"])

    def test_sim_engine_choices_validated(self):
        """Neither a once-valid value nor an unknown one is accepted."""
        for value in ("scalar", "batched", "warp"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["fig5", "--sim-engine", value])

    def test_sim_engine_on_floor(self):
        argv = ["floor", "--artifact", "x.rtp"]
        assert not hasattr(build_parser().parse_args(argv), "sim_engine")
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--sim-engine", "batched"])

    def test_deploy_options(self):
        args = build_parser().parse_args(["deploy"])
        assert args.device == "opamp"
        assert args.out is None
        assert args.lookup_resolution is None
        assert args.jobs == 1 and args.sim_jobs == 1
        args = build_parser().parse_args(
            ["deploy", "--device", "mems", "--out", "x.rtp",
             "--lookup-resolution", "auto", "--jobs", "2"])
        assert args.device == "mems"
        assert args.out == "x.rtp"
        assert args.lookup_resolution == "auto"
        args = build_parser().parse_args(
            ["deploy", "--lookup-resolution", "25"])
        assert args.lookup_resolution == 25

    def test_deploy_rejects_bad_lookup_resolution_at_parse_time(self):
        """Must fail before minutes of simulation, not after."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["deploy", "--lookup-resolution", "fine"])

    def test_floor_options(self):
        args = build_parser().parse_args(
            ["floor", "--artifact", "x.rtp"])
        assert args.artifact == "x.rtp"
        assert args.devices == 2000
        assert args.lots == 1
        assert args.policy == "full_retest"
        assert args.batch_size == 8192
        assert args.device is None
        assert args.sim_jobs == 1

    def test_floor_requires_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["floor"])

    def test_floor_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["floor", "--artifact", "x.rtp", "--policy", "flip"])

    def test_floor_takes_no_training_options(self):
        """floor serves an existing artifact: no train/tolerance."""
        for flag in ("--train", "--tolerance"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["floor", "--artifact", "x.rtp", flag, "5"])

    def test_batch_options(self):
        args = build_parser().parse_args(
            ["batch", "--lots", "3", "--device", "mems", "--jobs", "2"])
        assert args.lots == 3
        assert args.device == "mems"
        assert args.jobs == 2
        assert args.train == 300


class TestServeLoadgenParser:
    def test_serve_artifact_specs(self):
        args = build_parser().parse_args(
            ["serve", "--artifact", "opamp=o.rtp",
             "--artifact", "mems=3=m.rtp"])
        assert args.artifact == [("opamp", "1", "o.rtp"),
                                 ("mems", "3", "m.rtp")]
        assert args.port == 8731
        assert args.max_batch == 512

    def test_serve_requires_an_artifact_or_state_dir(self, capsys):
        # The parser accepts a bare `serve` (a --state-dir restart can
        # boot purely from the journal), but the command itself refuses
        # to start with nothing to serve and no journal to replay.
        args = build_parser().parse_args(["serve"])
        assert args.artifact is None
        assert args.state_dir is None
        assert main(["serve"]) == 2
        err = capsys.readouterr().err
        assert "--artifact" in err and "--state-dir" in err

    def test_serve_worker_defaults_and_overrides(self):
        args = build_parser().parse_args(
            ["serve", "--artifact", "opamp=o.rtp"])
        assert args.workers == 1
        assert args.health_interval == 0.5
        args = build_parser().parse_args(
            ["serve", "--artifact", "opamp=o.rtp",
             "--workers", "4", "--health-interval", "0.2"])
        assert args.workers == 4
        assert args.health_interval == 0.2

    def test_serve_rejects_zero_workers(self, capsys):
        assert main(["serve", "--artifact", "opamp=o.rtp",
                     "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_serve_cluster_missing_artifact_file(self, capsys):
        # The cluster path must refuse a missing artifact before
        # spawning workers that would each discover it independently.
        assert main(["serve", "--artifact", "opamp=/no/such.rtp",
                     "--workers", "2"]) == 2
        assert "/no/such.rtp" in capsys.readouterr().err

    def test_serve_rejects_malformed_spec(self):
        for bad in ("plain-path.rtp", "a=b=c=d", "=x.rtp"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", "--artifact", bad])

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(
            ["loadgen", "--url", "http://127.0.0.1:8731",
             "--artifact", "o.rtp"])
        assert args.device == "opamp"
        assert args.name is None
        assert args.clients == 4
        assert args.max_chunk == 16
        assert args.policy == "full_retest"

    def test_loadgen_requires_url_and_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen", "--artifact", "o.rtp"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["loadgen", "--url", "http://h:1"])

    def test_serve_loadgen_take_no_training_options(self):
        for command, extra in (("serve", ["--artifact", "a=b.rtp"]),
                               ("loadgen", ["--url", "http://h:1",
                                            "--artifact", "b.rtp"])):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, *extra, "--train", "5"])


class TestCleanErrors:
    """Operator errors exit 2 with a one-line message, no traceback."""

    def _last_error(self, capsys):
        err = [line for line in capsys.readouterr().err.splitlines()
               if line]
        assert err, "expected an error line on stderr"
        assert err[-1].startswith("error: ")
        return err[-1]

    def test_floor_missing_artifact(self, capsys):
        assert main(["floor", "--artifact", "/no/such.rtp"]) == 2
        assert "/no/such.rtp" in self._last_error(capsys)

    def test_floor_corrupt_artifact(self, tmp_path, capsys):
        path = tmp_path / "corrupt.rtp"
        path.write_bytes(b"not a pickle at all")
        assert main(["floor", "--artifact", str(path)]) == 2
        assert "artifact" in self._last_error(capsys)

    def test_floor_wrong_payload_artifact(self, tmp_path, capsys):
        """A valid pickle that is not a repro artifact is refused."""
        import pickle

        path = tmp_path / "other.rtp"
        path.write_bytes(pickle.dumps({"magic": "something-else"}))
        assert main(["floor", "--artifact", str(path)]) == 2
        assert "artifact" in self._last_error(capsys)

    def test_floor_artifact_naming_unknown_device(self, tmp_path, capsys):
        """One ``error:`` line, like every other operator error."""
        from repro.core.guardband import GuardBandedClassifier
        from repro.floor import TestProgramArtifact
        from tests.synthetic import make_synthetic_dataset

        train = make_synthetic_dataset(n=20, seed=1)
        model = GuardBandedClassifier(train.names).fit(train)
        path = tmp_path / "widget.rtp"
        TestProgramArtifact(model, train.specifications,
                            provenance={"device": "widget"}).save(str(path))
        assert main(["floor", "--artifact", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "'widget'" in err[0] and "--device" in err[0]

    def test_deploy_missing_output_directory(self, capsys):
        """Must fail before minutes of simulation, not at the save."""
        assert main(["deploy", "--device", "opamp",
                     "--out", "/no/such/dir/x.rtp"]) == 2
        assert "/no/such/dir" in self._last_error(capsys)

    def test_deploy_refuses_a_profile_with_guard_bands(self, tmp_path,
                                                       capsys):
        """Rules carry no guard bands; a profile with one is refused by
        field name before any population is simulated."""
        path = tmp_path / "grades.json"
        path.write_text(json.dumps({
            "name": "opamp-speed-grades", "default_bin": "REJECT",
            "rules": [{"bin": "FAST", "conditions": {"ugf": [2.9, 3.35]},
                       "guard": {"ugf": 0.05}}]}))
        assert main(["deploy", "--device", "opamp", "--profile", str(path),
                     "--out", str(tmp_path / "x.rtp")]) == 2
        captured = capsys.readouterr()
        assert "Simulating" not in captured.err
        errors = [line for line in captured.err.splitlines() if line]
        assert len(errors) == 1 and errors[0].startswith("error: ")
        assert "'guard'" in errors[0]

    def test_loadgen_missing_artifact(self, capsys):
        assert main(["loadgen", "--url", "http://127.0.0.1:1",
                     "--artifact", "/no/such.rtp"]) == 2
        assert "/no/such.rtp" in self._last_error(capsys)

    def test_loadgen_bad_url(self, capsys):
        assert main(["loadgen", "--url", "bogus",
                     "--artifact", "x.rtp"]) == 2
        assert "URL" in self._last_error(capsys)

    def test_serve_missing_artifact_file(self, capsys):
        assert main(["serve", "--artifact", "opamp=/no/such.rtp"]) == 2
        assert "/no/such.rtp" in self._last_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["fig5", "--train", "20", "--test", "10", "--sim-jobs", "0"],
        ["fig5", "--train", "20", "--test", "10", "--jobs", "0"],
        ["batch", "--lots", "1", "--train", "20", "--test", "10",
         "--jobs", "0"],
        ["batch", "--lots", "1", "--train", "20", "--test", "10",
         "--sim-jobs", "0"],
        ["floor", "--artifact", "/no/such.rtp", "--sim-jobs", "0"],
    ], ids=["fig5-sim-jobs", "fig5-jobs", "batch-jobs", "batch-sim-jobs",
            "floor-sim-jobs"])
    def test_zero_worker_count_refused_before_simulating(self, argv,
                                                         capsys):
        """A zero worker count is a usage error found at parse time, not
        a traceback after the populations were simulated."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1
        assert argv[-2] in errors[0] and "must not be 0" in errors[0]

    @pytest.mark.parametrize("argv", [
        ["fig5", "--train", "20", "--test", "10", "--tolerance", "nan"],
        ["fig5", "--train", "20", "--test", "10", "--tolerance", "-1"],
        ["fig5", "--train", "20", "--test", "10", "--tolerance", "inf"],
        ["deploy", "--train", "20", "--test", "10", "--guard", "-1"],
        ["table3", "--train", "20", "--test", "10", "--guard", "nan"],
        ["fig5", "--train", "20", "--test", "10", "--guard", "0.5"],
        ["batch", "--train", "20", "--test", "10", "--lots", "0"],
        ["batch", "--train", "20", "--test", "10", "--lots", "-2"],
        ["floor", "--artifact", "/no/such.rtp", "--lots", "0"],
        ["floor", "--artifact", "/no/such.rtp", "--batch-size", "0"],
        ["floor", "--artifact", "/no/such.rtp", "--batch-size", "-1"],
        ["floor", "--artifact", "/no/such.rtp", "--devices", "0"],
        ["floor", "--artifact", "/no/such.rtp", "--devices", "-1"],
        ["dataset", "generate", "/no/such/store", "--rows", "8",
         "--shard-rows", "0"],
        ["dataset", "generate", "/no/such/store", "--rows", "8",
         "--shard-rows", "-3"],
        ["dataset", "generate", "/no/such/store", "--rows", "0"],
        ["dataset", "extend", "/no/such/store", "--rows", "0"],
        ["fig5", "--test", "5", "--train", "0"],
        ["fig5", "--train", "5", "--test", "0"],
        ["table3", "--test", "5", "--train", "0"],
        ["table3", "--train", "5", "--test", "-1"],
        ["cost", "--test", "5", "--train", "0"],
        ["cost", "--train", "5", "--test", "0"],
        ["batch", "--test", "5", "--train", "-2"],
        ["batch", "--train", "5", "--test", "0"],
        ["deploy", "--test", "5", "--train", "0"],
        ["deploy", "--train", "5", "--test", "0"],
    ], ids=["tolerance-nan", "tolerance-negative", "tolerance-inf",
            "guard-negative", "guard-nan", "guard-collapses",
            "batch-lots-zero", "batch-lots-negative", "floor-lots-zero",
            "floor-batch-size-zero", "floor-batch-size-negative",
            "floor-devices-zero", "floor-devices-negative",
            "dataset-shard-rows-zero", "dataset-shard-rows-negative",
            "dataset-generate-rows-zero", "dataset-extend-rows-zero",
            "fig5-train-zero", "fig5-test-zero", "table3-train-zero",
            "table3-test-negative", "cost-train-zero", "cost-test-zero",
            "batch-train-negative", "batch-test-zero", "deploy-train-zero",
            "deploy-test-zero"])
    def test_out_of_range_value_refused_before_simulating(self, argv,
                                                          capsys):
        """A NaN, negative or collapsing value is a usage error found at
        parse time, not a run that keeps every test or a traceback
        after the populations were simulated."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Simulating" not in captured.err
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and argv[-2] in errors[0]


class TestFastCommands:
    def test_table1_prints_eleven_specs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        for name in ("gain", "slew_rate", "isc"):
            assert name in out

    def test_table2_prints_twelve_tests(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "quality_factor@-40C" in out
        assert "bw_3db@80C" in out


class TestDatasetParser:
    def test_generate_options(self):
        args = build_parser().parse_args(
            ["dataset", "generate", "/tmp/store", "--device", "mems",
             "--rows", "500", "--seed", "3", "--shard-rows", "64",
             "--sim-jobs", "2"])
        assert (args.root, args.device, args.rows, args.seed) == \
            ("/tmp/store", "mems", 500, 3)
        assert (args.shard_rows, args.sim_jobs) == (64, 2)

    def test_generate_requires_rows(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dataset", "generate", "/tmp/s"])

    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dataset"])

    def test_dataset_flag_on_simulating_commands(self):
        for command in ("fig5", "table3", "cost", "batch"):
            args = build_parser().parse_args(
                [command, "--dataset", ".cache/ds"])
            assert args.dataset == ".cache/ds"
        args = build_parser().parse_args(
            ["floor", "--artifact", "a.rtp", "--dataset", "d"])
        assert args.dataset == "d"

    def test_dataset_flag_defaults_off(self):
        assert build_parser().parse_args(["fig5"]).dataset is None


class TestDatasetCommands:
    def _generate(self, root, rows=12, seed=5):
        return main(["dataset", "generate", str(root),
                     "--device", "opamp", "--rows", str(rows),
                     "--seed", str(seed), "--shard-rows", "8"])

    def test_generate_info_verify_extend(self, tmp_path, capsys):
        root = tmp_path / "store"
        assert self._generate(root) == 0
        out = capsys.readouterr().out
        assert "rows 0 -> 12" in out

        assert main(["dataset", "info", str(root)]) == 0
        out = capsys.readouterr().out
        assert "shard-00000.npz" in out
        assert "8:12" in out  # second shard's row range

        assert main(["dataset", "verify", str(root)]) == 0
        assert "ok: 2 shard(s), 12 rows verified" in \
            capsys.readouterr().out

        assert main(["dataset", "extend", str(root),
                     "--rows", "15"]) == 0
        out = capsys.readouterr().out
        assert "rows 12 -> 15" in out
        assert main(["dataset", "verify", str(root)]) == 0

    def test_generate_refuses_existing_store(self, tmp_path, capsys):
        root = tmp_path / "store"
        assert self._generate(root) == 0
        capsys.readouterr()
        assert self._generate(root) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error:")
        assert "already holds a shard store" in err[-1]

    def test_info_on_missing_store_fails_cleanly(self, tmp_path,
                                                 capsys):
        assert main(["dataset", "info", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_verify_detects_corruption(self, tmp_path, capsys):
        root = tmp_path / "store"
        assert self._generate(root) == 0
        capsys.readouterr()
        path = root / "shard-00000.npz"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        assert main(["dataset", "verify", str(root)]) == 2
        assert capsys.readouterr().err.startswith("error:")
