"""Tests for the unified registry + declarative experiment API (repro.api)."""

from __future__ import annotations

import json

import pytest

from repro.api import MODELS, Experiment, Registry, all_registries, filter_kwargs
from repro.experiments.cli import build_parser, main
from repro.experiments.configs import (
    ExperimentConfig,
    available_configs,
    config_spec,
    make_config,
)
from repro.experiments.harness import (
    _build_compute_distribution,
    default_methods,
    parse_method_spec,
)
from repro.models.registry import build_model, infer_image_geometry, register_model
from repro.runtime.distributions import ParetoDelay


class TestRegistry:
    def test_register_and_get(self):
        reg = Registry("widget")
        reg.register("a", int)
        assert reg.get("a") is int
        assert reg.names() == ["a"]
        assert "a" in reg and "b" not in reg
        assert len(reg) == 1

    def test_decorator_form_returns_target(self):
        reg = Registry("widget")

        @reg.register("fn")
        def fn():
            return 42

        assert fn() == 42
        assert reg.get("fn") is fn

    def test_duplicate_raises_value_error_listing_names(self):
        reg = Registry("widget")
        reg.register("a", int)
        with pytest.raises(ValueError, match=r"already registered.*\['a'\]"):
            reg.register("a", float)

    def test_overwrite_replaces(self):
        reg = Registry("widget")
        reg.register("a", int)
        reg.register("a", float, overwrite=True)
        assert reg.get("a") is float

    def test_unknown_lists_available(self):
        reg = Registry("widget")
        reg.register("a", int)
        with pytest.raises(ValueError, match=r"unknown widget 'b'.*\['a'\]"):
            reg.get("b")

    def test_build_calls_factory(self):
        reg = Registry("widget")
        reg.register("pair", lambda x, y: (x, y))
        assert reg.build("pair", x=1, y=2) == (1, 2)

    def test_build_filtered_drops_unknown_kwargs(self):
        reg = Registry("widget")
        reg.register("one", lambda x: x)
        assert reg.build_filtered("one", x=3, y="dropped") == 3

    def test_unregister(self):
        reg = Registry("widget")
        reg.register("a", int)
        reg.unregister("a")
        assert "a" not in reg
        with pytest.raises(ValueError):
            reg.unregister("a")

    def test_lazy_populate_runs_once(self):
        calls = []
        reg = Registry("widget", populate=lambda: calls.append(1) or reg.register("x", int))
        assert reg.names() == ["x"]
        assert reg.get("x") is int
        assert calls == [1]

    def test_failed_populate_reraises_root_cause_on_retry(self):
        calls = []

        def populate():
            calls.append(1)
            if len(calls) == 1:
                raise ImportError("missing dependency")
            reg.register("x", int)

        reg = Registry("widget", populate=populate)
        with pytest.raises(ImportError, match="missing dependency"):
            reg.get("x")
        # The second lookup retries population instead of reporting an empty
        # registry that masks the real import failure.
        assert reg.get("x") is int
        assert calls == [1, 1]

    def test_filter_kwargs_respects_var_keyword(self):
        assert filter_kwargs(lambda **kw: kw, {"a": 1}) == {"a": 1}
        assert filter_kwargs(lambda a: a, {"a": 1, "b": 2}) == {"a": 1}

    def test_all_registries_are_populated(self):
        for key, reg in all_registries().items():
            assert reg.names(), f"registry {key} is empty"


class TestModelRegistry:
    def test_duplicate_register_model_raises_value_error(self):
        with pytest.raises(ValueError, match="already registered"):
            register_model("mlp", lambda **kw: None)

    def test_register_model_overwrite_roundtrip(self):
        original = MODELS.get("mlp")
        sentinel = lambda **kw: None  # noqa: E731
        register_model("mlp", sentinel, overwrite=True)
        try:
            assert MODELS.get("mlp") is sentinel
        finally:
            register_model("mlp", original, overwrite=True)

    def test_build_model_unknown_error_message_shape(self):
        with pytest.raises(ValueError, match=r"unknown model 'transformer-xxl'; available: \["):
            build_model("transformer-xxl")

    def test_infer_image_geometry(self):
        assert infer_image_geometry(192) == (3, 8)  # 3x8x8 synthetic CIFAR
        assert infer_image_geometry(16) == (1, 4)
        with pytest.raises(ValueError):
            infer_image_geometry(17)

    def test_cnn_builder_adapts_to_flat_features(self):
        model = build_model("vgg_lite_cnn", n_features=16, n_classes=4, rng=0)
        import numpy as np

        assert model(np.zeros((2, 16))).shape == (2, 4)

    def test_cnn_builder_keeps_explicit_image_size_kwarg(self):
        model = build_model("resnet_lite_cnn", image_size=4, n_classes=3, rng=0)
        import numpy as np

        assert model(np.zeros((2, 3, 4, 4))).shape == (2, 3)

    def test_cnn_builder_rejects_geometry_mismatching_features(self):
        # Explicit geometry that cannot view the dataset's flat features must
        # fail at build time, not with a reshape error deep in forward().
        with pytest.raises(ValueError, match="does not match"):
            build_model("vgg_lite_cnn", n_features=192, in_channels=1, rng=0)


class TestConfigSerialization:
    @pytest.mark.parametrize("name", available_configs())
    def test_round_trip_every_named_config(self, name):
        cfg = make_config(name)
        payload = json.loads(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_dict(payload) == cfg

    def test_from_dict_rejects_unknown_field(self):
        payload = make_config("smoke").to_dict()
        payload["warp_factor"] = 9
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_dict(payload)

    def test_from_dict_rejects_unknown_model(self):
        payload = make_config("smoke").to_dict()
        payload["model"] = "transformer-xxl"
        with pytest.raises(ValueError, match="unknown model"):
            ExperimentConfig.from_dict(payload)

    def test_from_dict_rejects_unknown_dataset(self):
        payload = make_config("smoke").to_dict()
        payload["dataset"] = "imagenet"
        with pytest.raises(ValueError, match="unknown dataset"):
            ExperimentConfig.from_dict(payload)

    def test_to_dict_rejects_dataset_fn_escape_hatch(self):
        cfg = make_config("smoke", dataset_fn=lambda **kw: None)
        with pytest.raises(ValueError, match="dataset_fn"):
            cfg.to_dict()

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("lr", float("nan"), "lr must be finite and positive"),
            ("lr", float("inf"), "lr must be finite and positive"),
            ("lr", 0.0, "lr must be finite and positive"),
            ("lr", -0.1, "lr must be finite and positive"),
            ("lr", "nan", "lr must be a number"),
            ("lr", True, "lr must be a number"),
            ("n_workers", 0, "n_workers must be an integer >= 1"),
            ("n_workers", 2.0, "n_workers must be an integer >= 1"),
            ("batch_size", 0, "batch_size must be an integer >= 1"),
            ("batch_size", -4, "batch_size must be an integer >= 1"),
            ("momentum", 1.5, r"momentum must be finite and in \[0, 1\)"),
            ("momentum", 1.0, r"momentum must be finite and in \[0, 1\)"),
            ("momentum", -0.1, r"momentum must be finite and in \[0, 1\)"),
            ("momentum", float("nan"), r"momentum must be finite and in \[0, 1\)"),
            ("momentum", "0.9", "momentum must be a number"),
            ("block_momentum_beta", 1.0, r"block_momentum_beta must be finite and in \[0, 1\)"),
            ("block_momentum_beta", float("nan"), r"block_momentum_beta must be finite"),
            ("wall_time_budget", -1.0, "wall_time_budget must be finite and positive"),
            ("wall_time_budget", float("nan"), "wall_time_budget must be finite and positive"),
            ("wall_time_budget", float("inf"), "wall_time_budget must be finite and positive"),
            ("adacomm_interval", 0.0, "adacomm_interval must be finite and positive"),
            ("adacomm_interval", float("nan"), "adacomm_interval must be finite and positive"),
            ("eval_every_rounds", 0, "eval_every_rounds must be an integer >= 1"),
            ("eval_every_rounds", 2.5, "eval_every_rounds must be an integer >= 1"),
        ],
    )
    def test_validate_rejects_bad_numeric_field(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            make_config("smoke", **{field: value}).validate()

    def test_validate_accepts_integer_lr_and_numpy_scalars(self):
        import numpy as np

        make_config("smoke", lr=1, n_workers=np.int64(3), batch_size=np.int32(4)).validate()

    def test_from_dict_rejects_nan_lr(self):
        payload = make_config("smoke").to_dict()
        payload["lr"] = float("nan")
        with pytest.raises(ValueError, match="lr must be finite"):
            ExperimentConfig.from_dict(payload)

    def test_config_spec_is_a_copy(self):
        spec = config_spec("smoke")
        spec["n_workers"] = 99
        assert config_spec("smoke")["n_workers"] == 2

    def test_scale_grows_training_set(self):
        base = make_config("smoke")
        scaled = make_config("smoke", scale=2.0)
        assert scaled.n_train == 2 * base.n_train
        assert scaled.wall_time_budget == pytest.approx(2 * base.wall_time_budget)


class TestMethodSpecs:
    def test_default_lineup_matches_seed(self):
        cfg = make_config("smoke")
        labels = [m.label for m in default_methods(cfg)]
        assert labels == ["sync-sgd", "pasgd-tau8", "adacomm"]

    def test_methods_field_drives_lineup(self):
        cfg = make_config("smoke", methods=("sync-sgd", "pasgd-tau4"))
        labels = [m.label for m in default_methods(cfg)]
        assert labels == ["sync-sgd", "pasgd-tau4"]

    def test_spec_with_kwargs(self):
        cfg = make_config("smoke")
        method = parse_method_spec("fixed:tau=4", cfg)
        assert method.label == "pasgd-tau4"
        assert method.schedule_fn().next_tau() == 4

    def test_adacomm_spec_uses_config_defaults(self):
        cfg = make_config("smoke")
        schedule = parse_method_spec("adacomm", cfg).schedule_fn()
        assert schedule.next_tau() == cfg.adacomm_initial_tau

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError, match="unknown communication schedule"):
            parse_method_spec("quantum-annealing", make_config("smoke"))

    def test_list_valued_spec_argument(self):
        cfg = make_config("smoke")
        method = parse_method_spec("sequence:taus=[4,2,1]", cfg)
        assert method.label == "sequence-3"
        schedule = method.schedule_fn()
        assert [schedule.next_tau() for _ in range(4)] == [4, 2, 1, 1]

    def test_missing_required_argument_raises_value_error(self):
        with pytest.raises(ValueError, match="missing or invalid arguments"):
            parse_method_spec("fixed", make_config("smoke"))

    def test_malformed_pasgd_tau_names_the_spec(self):
        for bad in ("pasgd-tau", "pasgd-taux"):
            with pytest.raises(ValueError, match="malformed tau"):
                parse_method_spec(bad, make_config("smoke"))


class TestDelaySpecs:
    def test_pareto_moment_matched_to_config(self):
        cfg = make_config("smoke", delay="pareto")
        dist = _build_compute_distribution(cfg)
        assert isinstance(dist, ParetoDelay)
        assert dist.mean == pytest.approx(cfg.compute_time)
        assert dist.std == pytest.approx(cfg.compute_time_std_fraction * cfg.compute_time)

    def test_dict_spec_passes_params_verbatim(self):
        cfg = make_config("smoke", delay={"kind": "pareto", "scale": 1.0, "alpha": 3.0})
        dist = _build_compute_distribution(cfg)
        assert isinstance(dist, ParetoDelay) and dist.alpha == 3.0

    def test_zero_std_degenerates_to_constant(self):
        cfg = make_config("smoke", delay="exponential", compute_time_std_fraction=0.0)
        assert _build_compute_distribution(cfg).variance == 0.0

    def test_unknown_delay_raises(self):
        with pytest.raises(ValueError, match="unknown delay distribution"):
            _build_compute_distribution(make_config("smoke", delay="weibull"))

    def test_dict_spec_requires_kind(self):
        with pytest.raises(ValueError, match="'kind'"):
            _build_compute_distribution(make_config("smoke", delay={"scale": 1.0}))

    def test_pareto_delay_runs_end_to_end(self):
        from repro.experiments.harness import run_method

        cfg = make_config("smoke", delay="pareto", wall_time_budget=10.0)
        record = run_method(cfg, "sync-sgd")
        assert record.points, "pareto run produced no metric points"


class TestExperimentBuilder:
    def test_issue_chain_smoke_run(self):
        store = (
            Experiment("smoke")
            .model("vgg_lite_cnn")
            .delay("pareto")
            .methods("sync-sgd", "adacomm")
            .set(wall_time_budget=10.0, adacomm_interval=5.0)
            .run()
        )
        assert set(store.names()) == {"sync-sgd", "adacomm"}

    def test_build_returns_validated_config(self):
        cfg = Experiment("smoke").model("softmax").workers(3).seed(11).build()
        assert (cfg.model, cfg.n_workers, cfg.seed) == ("softmax", 3, 11)

    def test_unknown_component_fails_at_builder_time(self):
        with pytest.raises(ValueError, match="unknown model"):
            Experiment("smoke").model("transformer-xxl")
        with pytest.raises(ValueError, match="unknown delay distribution"):
            Experiment("smoke").delay("weibull")
        with pytest.raises(ValueError, match="unknown communication schedule"):
            Experiment("smoke").methods("quantum-annealing")

    def test_underspecified_method_fails_at_builder_time(self):
        with pytest.raises(ValueError, match="missing or invalid arguments"):
            Experiment("smoke").methods("pasgd")

    def test_dataset_with_intrinsic_features_sizes_the_model(self):
        # spirals ignores n_features (always 2-D); the model must follow the
        # data, not the config knob.
        store = (
            Experiment("smoke")
            .dataset("spirals")
            .methods("sync-sgd")
            .set(wall_time_budget=5.0, n_classes=3)
            .run()
        )
        assert store.names() == ["sync-sgd"]

    def test_delay_with_params_becomes_dict_spec(self):
        cfg = Experiment("smoke").delay("pareto", scale=1.0, alpha=3.0).build()
        assert cfg.delay == {"kind": "pareto", "scale": 1.0, "alpha": 3.0}

    def test_save_and_reload(self, tmp_path):
        path = Experiment("smoke").model("softmax").save(str(tmp_path / "cfg.json"))
        with open(path, encoding="utf-8") as fh:
            cfg = ExperimentConfig.from_dict(json.load(fh))
        assert cfg.model == "softmax"

    def test_accepts_ready_config(self):
        base = make_config("smoke", lr=0.123)
        assert Experiment(base).build().lr == 0.123


class TestCLI:
    def test_set_and_model_parsing(self):
        args = build_parser().parse_args(
            ["--config", "smoke", "--model", "vgg_lite_cnn",
             "--set", "n_workers=4", "--set", "alpha=2.0", "--set", "delay=pareto"]
        )
        assert args.model == "vgg_lite_cnn"
        assert dict(args.overrides) == {"n_workers": 4, "alpha": 2.0, "delay": "pareto"}

    def test_set_rejects_malformed_pair(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--set", "n_workers"])

    def test_list_models(self, capsys):
        assert main(["--list", "models"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "mlp" in out and "vgg_lite_cnn" in out

    def test_list_configs(self, capsys):
        assert main(["--list", "configs"]) == 0
        assert "smoke" in capsys.readouterr().out.splitlines()

    def test_list_delays_includes_pareto(self, capsys):
        assert main(["--list", "delays"]) == 0
        assert "pareto" in capsys.readouterr().out.splitlines()

    def test_json_config_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        cfg = make_config("smoke", wall_time_budget=10.0, methods=("sync-sgd", "adacomm"))
        path.write_text(json.dumps(cfg.to_dict()))
        assert main(["--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sync-sgd" in out and "adacomm" in out

    def test_invalid_set_key_exits_with_message(self):
        with pytest.raises(SystemExit, match="invalid --set override"):
            main(["--config", "smoke", "--set", "warp_factor=9"])

    def test_unknown_model_exits_with_message(self):
        with pytest.raises(SystemExit, match="unknown model"):
            main(["--config", "smoke", "--model", "transformer-xxl"])

    @pytest.mark.parametrize(
        "override,message",
        [("lr=nan", "lr must be a number"), ("lr=-1.0", "lr must be finite"),
         ("n_workers=0", "n_workers must be"), ("batch_size=0", "batch_size must be"),
         ("momentum=1.5", "momentum must be"), ("momentum=nan", "momentum must be"),
         ("block_momentum_beta=1.0", "block_momentum_beta must be"),
         ("eval_every_rounds=0", "eval_every_rounds must be"),
         ("wall_time_budget=-1", "wall_time_budget must be"),
         ("wall_time_budget=nan", "wall_time_budget must be"),
         ("adacomm_interval=0", "adacomm_interval must be")],
    )
    def test_invalid_field_is_a_usage_error(self, override, message, capsys):
        with pytest.raises(SystemExit, match=message) as excinfo:
            main(["--config", "smoke", "--set", override])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_json_config_missing_name_exits_with_message(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dataset": "synth_cifar10"}')
        with pytest.raises(SystemExit, match="cannot load config"):
            main(["--config", str(path)])

    def test_json_config_unknown_model_exits_with_message(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "model": "nope"}')
        with pytest.raises(SystemExit, match="cannot load config"):
            main(["--config", str(path)])

    def test_model_override_runs_end_to_end(self, capsys):
        assert main(
            ["--config", "smoke", "--model", "vgg_lite_cnn",
             "--set", "n_workers=4", "--set", "alpha=2.0",
             "--set", "wall_time_budget=10.0", "--points", "2"]
        ) == 0
        assert "model=vgg_lite_cnn" in capsys.readouterr().out
