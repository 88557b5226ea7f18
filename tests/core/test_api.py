"""Unit tests for the declarative Scenario/RunResult API."""

import json

import pytest

from repro.api import MODES, Scenario, run
from repro.core.experiment import (
    RESULT_SCHEMA,
    ExperimentRunner,
    RunResult,
)
from repro.drivers import (
    AdaptiveCoalescing,
    DynamicItr,
    FixedItr,
    policy_from_spec,
    policy_to_spec,
)


class TestScenarioValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            Scenario(mode="warp")

    def test_variant_default_filled_in(self):
        assert Scenario(mode="intervm").variant == "sriov"
        assert Scenario(mode="migrate").variant == "dnis"

    def test_variant_on_plain_mode_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            Scenario(mode="sriov", variant="pv")

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            Scenario(mode="migrate", variant="teleport")

    def test_bad_enumish_fields_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Scenario(kind="container")
        with pytest.raises(ValueError, match="kernel"):
            Scenario(kernel="5.4")
        with pytest.raises(ValueError, match="protocol"):
            Scenario(protocol="sctp")

    def test_bad_opts_fail_at_construction(self):
        with pytest.raises(TypeError):
            Scenario(opts={"warp_drive": True})


class TestScenarioFaults:
    def test_faults_normalized_at_construction(self):
        scenario = Scenario(faults=[{"kind": "link_flap", "at": 1}])
        assert scenario.faults == [{"kind": "link_flap", "at": 1.0,
                                    "duration": 0.5, "port": 0}]

    def test_invalid_fault_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Scenario(faults=[{"kind": "gremlin"}])

    def test_empty_faults_collapse_to_none(self):
        assert Scenario(faults=[]) == Scenario(faults=None) == Scenario()

    def test_to_dict_omits_empty_faults(self):
        assert "faults" not in Scenario().to_dict()
        data = Scenario(faults=[{"kind": "link_flap", "at": 1.0}]).to_dict()
        assert data["faults"][0]["kind"] == "link_flap"

    def test_faulty_scenario_round_trips(self):
        scenario = Scenario(mode="migrate", variant="dnis",
                            faults=[{"kind": "link_flap", "at": 2.0},
                                    {"kind": "migration_degrade",
                                     "factor": 3.0}])
        assert (Scenario.from_dict(json.loads(json.dumps(
            scenario.to_dict()))) == scenario)


class TestScenarioRoundTrip:
    def test_to_dict_from_dict_identity(self):
        scenario = Scenario(mode="intervm", variant="pv", kind="pvm",
                            message_bytes=4000,
                            policy={"kind": "fixed_itr", "hz": 2000},
                            opts={"msi_acceleration": True}, seed=7)
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_round_trip_through_json(self):
        scenario = Scenario(mode="sriov", policy={"kind": "aic"})
        assert (Scenario.from_dict(json.loads(json.dumps(
            scenario.to_dict()))) == scenario)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="vm_cuont"):
            Scenario.from_dict({"mode": "sriov", "vm_cuont": 3})

    def test_with_replaces_fields(self):
        base = Scenario(mode="sriov", vm_count=10)
        assert base.with_(vm_count=20).vm_count == 20
        assert base.vm_count == 10

    def test_every_mode_constructs(self):
        for mode in MODES:
            if mode == "cluster":
                # Cluster is the one mode with a required field: the
                # placement cannot be defaulted.
                Scenario(mode=mode, hosts=[{"name": "h0"}, {"name": "h1"}])
            else:
                Scenario(mode=mode)


class TestRunResultRoundTrip:
    def _result(self):
        return run(Scenario(mode="sriov", vm_count=1, ports=1,
                            policy={"kind": "fixed_itr", "hz": 2000},
                            warmup=0.2, duration=0.1))

    def test_to_dict_from_dict_identity(self):
        result = self._result()
        clone = RunResult.from_dict(result.to_dict())
        assert clone == result
        assert clone.to_dict() == result.to_dict()

    def test_dict_is_json_clean(self):
        data = self._result().to_dict()
        assert data["schema"] == RESULT_SCHEMA
        assert json.loads(json.dumps(data)) == data

    def test_live_handles_are_dropped(self):
        result = run(Scenario(mode="sriov", vm_count=1, ports=1,
                              warmup=0.2, duration=0.1), telemetry=True)
        assert result.telemetry is not None
        data = result.to_dict()
        assert "telemetry" not in data and "profiler" not in data
        assert RunResult.from_dict(data).telemetry is None

    def test_wrong_schema_rejected(self):
        data = self._result().to_dict()
        data["schema"] = "repro-result/0"
        with pytest.raises(ValueError, match="schema"):
            RunResult.from_dict(data)

    def test_migrate_extras_round_trip(self):
        result = run(Scenario(mode="migrate", variant="pv", start_at=0.5))
        data = result.to_dict()
        clone = RunResult.from_dict(json.loads(json.dumps(data)))
        assert clone.extras["migration"]["downtime"] > 0
        assert clone.extras["timeline"]["series"]["rx_bytes"]["times"]


class TestPolicySpecs:
    def test_spec_round_trip(self):
        for spec in [{"kind": "fixed_itr", "hz": 2000},
                     {"kind": "dynamic_itr"}, {"kind": "aic"}]:
            assert policy_to_spec(policy_from_spec(spec))["kind"] == \
                spec["kind"]

    def test_spec_builds_the_right_policy(self):
        assert isinstance(policy_from_spec({"kind": "fixed_itr",
                                            "hz": 2000}), FixedItr)
        assert isinstance(policy_from_spec({"kind": "dynamic_itr"}),
                          DynamicItr)
        assert isinstance(policy_from_spec({"kind": "aic"}),
                          AdaptiveCoalescing)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            policy_from_spec({"kind": "psychic"})

    def test_policy_factory_is_removed_with_a_hard_error(self):
        runner = ExperimentRunner(warmup=0.2, duration=0.1)
        factory = lambda: FixedItr(2000)
        calls = [
            lambda: runner.run_sriov(1, ports=1, policy_factory=factory),
            lambda: runner.run_sriov_tx(1, ports=1, policy_factory=factory),
            lambda: runner.run_native(1, ports=1, policy_factory=factory),
            lambda: runner.run_intervm_sriov(policy_factory=factory),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="policy_factory"):
                call()

    def test_policy_spec_replaces_the_removed_factory(self):
        runner = ExperimentRunner(warmup=0.2, duration=0.1)
        result = runner.run_sriov(1, ports=1,
                                  policy={"kind": "fixed_itr", "hz": 2000})
        spec_result = run(Scenario(mode="sriov", vm_count=1, ports=1,
                                   policy={"kind": "fixed_itr",
                                           "hz": 2000},
                                   warmup=0.2, duration=0.1))
        assert result.throughput_bps == spec_result.throughput_bps


def test_figures_cli_smoke(tmp_path, capsys):
    from repro.cli import run_cli
    code = run_cli(["figures", "--only", "fig15", "--quick",
                    "--cache-dir", str(tmp_path / "cache"),
                    "--out-dir", str(tmp_path / "figs")])
    assert code == 0
    out = capsys.readouterr().out
    assert "fig15" in out
    assert "cache summary:" in out
    assert (tmp_path / "figs" / "fig15.json").exists()
