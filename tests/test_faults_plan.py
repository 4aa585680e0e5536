"""FaultPlan / FaultEvent schema: validation, serialisation, file loading."""

from __future__ import annotations

import os

import pytest

from repro.cluster.topology import ClusterSpec
from repro.faults.plan import ACTIONS, FaultEvent, FaultPlan, FaultPlanError

PLANS_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "plans")


class TestFaultEvent:
    def test_actions_catalogue_is_closed(self):
        with pytest.raises(FaultPlanError, match="unknown action"):
            FaultEvent(at=1.0, action="explode", dc=0, partition=0)

    def test_negative_time_rejected(self):
        with pytest.raises(FaultPlanError, match="non-negative"):
            FaultEvent(at=-0.1, action="heal")

    @pytest.mark.parametrize("action", ["crash", "recover", "skew"])
    def test_server_actions_need_dc_and_partition(self, action):
        with pytest.raises(FaultPlanError, match="'dc' and 'partition'"):
            FaultEvent(at=1.0, action=action, dc=0)

    def test_partition_needs_exactly_one_target_form(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(at=1.0, action="partition")
        with pytest.raises(FaultPlanError):
            FaultEvent(at=1.0, action="partition", dc=0, dcs=(0, 1))

    def test_dcs_must_be_a_distinct_pair(self):
        with pytest.raises(FaultPlanError, match="distinct"):
            FaultEvent(at=1.0, action="partition", dcs=(2, 2))

    def test_degrade_needs_an_effect(self):
        with pytest.raises(FaultPlanError, match="extra_latency"):
            FaultEvent(at=1.0, action="degrade", dcs=(0, 1))

    def test_loss_range(self):
        with pytest.raises(FaultPlanError, match="loss"):
            FaultEvent(at=1.0, action="degrade", dcs=(0, 1), loss=1.0)

    def test_offset_only_for_skew(self):
        with pytest.raises(FaultPlanError, match="offset"):
            FaultEvent(at=1.0, action="crash", dc=0, partition=0, offset=0.1)

    def test_irrelevant_fields_rejected_per_action(self):
        # A "lossy partition" would silently drop its loss: reject it.
        with pytest.raises(FaultPlanError, match="does not use"):
            FaultEvent(at=1.0, action="partition", dcs=(0, 1), loss=0.5)
        with pytest.raises(FaultPlanError, match="does not use"):
            FaultEvent(at=1.0, action="crash", dc=0, partition=1, dcs=(0, 1))
        with pytest.raises(FaultPlanError, match="does not use"):
            FaultEvent(at=1.0, action="heal", dcs=(0, 1), extra_latency=0.1)
        # dc=0 is a real DC id, not "unset": it must still be rejected.
        with pytest.raises(FaultPlanError, match="does not use"):
            FaultEvent(at=1.0, action="degrade", dcs=(1, 2), loss=0.1, dc=0)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(FaultPlanError, match="unknown fault event keys"):
            FaultEvent.from_dict({"at": 1.0, "action": "heal", "frobnicate": True})

    def test_from_dict_rejects_missing_keys(self):
        with pytest.raises(FaultPlanError, match="missing"):
            FaultEvent.from_dict({"action": "heal"})

    def test_every_action_roundtrips(self):
        samples = {
            "crash": FaultEvent(at=1.0, action="crash", dc=0, partition=1),
            "recover": FaultEvent(at=2.0, action="recover", dc=0, partition=1),
            "partition": FaultEvent(at=1.0, action="partition", dcs=(0, 2)),
            "heal": FaultEvent(at=2.0, action="heal"),
            "degrade": FaultEvent(
                at=1.0, action="degrade", dcs=(1, 2), extra_latency=0.05, loss=0.1
            ),
            "restore": FaultEvent(at=2.0, action="restore", dcs=(1, 2)),
            "skew": FaultEvent(at=1.0, action="skew", dc=1, partition=0, offset=-0.002),
            "add_replica": FaultEvent(at=1.0, action="add_replica", dc=2, partition=0),
            "remove_replica": FaultEvent(
                at=2.0, action="remove_replica", dc=2, partition=0
            ),
            "add_dc": FaultEvent(at=1.0, action="add_dc", dc=1),
            "remove_dc": FaultEvent(at=2.0, action="remove_dc", dc=1),
        }
        assert set(samples) == set(ACTIONS)
        for event in samples.values():
            assert FaultEvent.from_dict(event.to_dict()) == event


class TestFaultPlan:
    def test_out_of_order_events_rejected(self):
        # Membership and crash/recover pairings are order-sensitive; a plan
        # listed out of order is rejected, never silently re-sorted.
        with pytest.raises(FaultPlanError, match="out of order"):
            FaultPlan(
                events=(
                    FaultEvent(at=2.0, action="heal"),
                    FaultEvent(at=1.0, action="partition", dcs=(0, 1)),
                )
            )

    def test_equal_time_events_keep_plan_order(self):
        plan = FaultPlan(
            events=(
                FaultEvent(at=1.0, action="partition", dcs=(0, 1)),
                FaultEvent(at=1.0, action="partition", dcs=(1, 2)),
                FaultEvent(at=2.0, action="heal"),
            )
        )
        assert plan.events[0].dcs == (0, 1)
        assert plan.events[1].dcs == (1, 2)

    def test_horizon(self):
        assert FaultPlan().horizon == 0.0
        plan = FaultPlan(events=(FaultEvent(at=3.5, action="heal"),))
        assert plan.horizon == 3.5

    def test_double_crash_rejected(self):
        with pytest.raises(FaultPlanError, match="crashed twice"):
            FaultPlan(
                events=(
                    FaultEvent(at=1.0, action="crash", dc=0, partition=0),
                    FaultEvent(at=2.0, action="crash", dc=0, partition=0),
                )
            )

    def test_recover_without_crash_rejected(self):
        with pytest.raises(FaultPlanError, match="without a prior crash"):
            FaultPlan(events=(FaultEvent(at=1.0, action="recover", dc=0, partition=0),))

    def test_json_roundtrip(self):
        plan = FaultPlan(
            events=(
                FaultEvent(at=1.0, action="crash", dc=0, partition=0),
                FaultEvent(
                    at=1.5, action="degrade", dcs=(0, 1), extra_latency=0.01, loss=0.05
                ),
                FaultEvent(at=2.0, action="recover", dc=0, partition=0),
            ),
            name="roundtrip",
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_json_rejects_garbage(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(FaultPlanError, match="unknown fault plan keys"):
            FaultPlan.from_json('{"events": [], "extra": 1}')

    def test_validate_for_checks_dc_range(self):
        spec = ClusterSpec.from_machines(n_dcs=3, machines_per_dc=2, replication_factor=2)
        plan = FaultPlan(events=(FaultEvent(at=1.0, action="partition", dcs=(0, 7)),))
        with pytest.raises(FaultPlanError, match="out of range"):
            plan.validate_for(spec)

    def test_validate_for_checks_replica_placement(self):
        spec = ClusterSpec.from_machines(n_dcs=3, machines_per_dc=2, replication_factor=2)
        hosted = spec.dc_partitions(0)
        missing = next(p for p in range(spec.n_partitions) if p not in hosted)
        plan = FaultPlan(events=(FaultEvent(at=1.0, action="crash", dc=0, partition=missing),))
        with pytest.raises(FaultPlanError, match="hosts no replica"):
            plan.validate_for(spec)

    def test_dump_and_load(self, tmp_path):
        plan = FaultPlan(
            events=(FaultEvent(at=1.0, action="partition", dc=2),), name="disk"
        )
        path = str(tmp_path / "plan.json")
        plan.dump(path)
        assert FaultPlan.load(path) == plan


class TestMembershipValidation:
    """Contradictory membership event pairs are rejected with a fix hint.

    ``validate_for`` simulates the membership the plan induces, so every
    check below is against the placement *at the event's firing time*.
    """

    def spec(self):
        return ClusterSpec.from_machines(n_dcs=3, machines_per_dc=2, replication_factor=2)

    def hosted_and_missing(self, spec, dc=0):
        hosted = spec.dc_partitions(dc)
        missing = next(p for p in range(spec.n_partitions) if p not in hosted)
        return hosted[0], missing

    def test_remove_of_non_member_rejected(self):
        spec = self.spec()
        _home, missing = self.hosted_and_missing(spec)
        plan = FaultPlan(
            events=(FaultEvent(at=1.0, action="remove_replica", dc=0, partition=missing),)
        )
        with pytest.raises(FaultPlanError, match="hosts no replica"):
            plan.validate_for(spec)

    def test_double_remove_rejected_against_induced_membership(self):
        spec = self.spec()
        home, _missing = self.hosted_and_missing(spec)
        plan = FaultPlan(
            events=(
                FaultEvent(at=1.0, action="remove_replica", dc=0, partition=home),
                FaultEvent(at=2.0, action="remove_replica", dc=0, partition=home),
            )
        )
        with pytest.raises(FaultPlanError, match="hosts no replica"):
            plan.validate_for(spec)

    def test_add_of_existing_member_rejected(self):
        spec = self.spec()
        home, _missing = self.hosted_and_missing(spec)
        plan = FaultPlan(
            events=(FaultEvent(at=1.0, action="add_replica", dc=0, partition=home),)
        )
        with pytest.raises(FaultPlanError, match="already hosts a replica"):
            plan.validate_for(spec)

    def test_remove_of_crashed_replica_rejected(self):
        spec = self.spec()
        home, _missing = self.hosted_and_missing(spec)
        plan = FaultPlan(
            events=(
                FaultEvent(at=1.0, action="crash", dc=0, partition=home),
                FaultEvent(at=2.0, action="remove_replica", dc=0, partition=home),
            )
        )
        with pytest.raises(FaultPlanError, match="cannot drain"):
            plan.validate_for(spec)

    def test_remove_after_recovery_is_fine(self):
        spec = self.spec()
        home, _missing = self.hosted_and_missing(spec)
        FaultPlan(
            events=(
                FaultEvent(at=1.0, action="crash", dc=0, partition=home),
                FaultEvent(at=1.5, action="recover", dc=0, partition=home),
                FaultEvent(at=2.0, action="remove_replica", dc=0, partition=home),
            )
        ).validate_for(spec)

    def test_remove_dc_with_crashed_replica_rejected(self):
        spec = self.spec()
        home = spec.dc_partitions(0)[0]
        plan = FaultPlan(
            events=(
                FaultEvent(at=1.0, action="crash", dc=0, partition=home),
                FaultEvent(at=2.0, action="remove_dc", dc=0),
            )
        )
        with pytest.raises(FaultPlanError, match="cannot drain"):
            plan.validate_for(spec)

    def test_add_dc_of_active_dc_rejected(self):
        spec = self.spec()
        plan = FaultPlan(events=(FaultEvent(at=1.0, action="add_dc", dc=0),))
        with pytest.raises(FaultPlanError, match="already active"):
            plan.validate_for(spec)

    def test_remove_of_last_copy_rejected(self):
        spec = self.spec()
        dcs = spec.replica_dcs(0)
        events = tuple(
            FaultEvent(at=1.0 + 0.1 * i, action="remove_replica", dc=dc, partition=0)
            for i, dc in enumerate(dcs)
        )
        with pytest.raises(FaultPlanError, match="last replica"):
            FaultPlan(events=events).validate_for(spec)

    def test_crash_of_replica_created_by_earlier_join_accepted(self):
        spec = self.spec()
        _home, missing = self.hosted_and_missing(spec)
        FaultPlan(
            events=(
                FaultEvent(at=1.0, action="add_replica", dc=0, partition=missing),
                FaultEvent(at=2.0, action="crash", dc=0, partition=missing),
                FaultEvent(at=3.0, action="recover", dc=0, partition=missing),
            )
        ).validate_for(spec)

    def test_crash_of_replica_retired_by_earlier_leave_rejected(self):
        spec = self.spec()
        home, _missing = self.hosted_and_missing(spec)
        plan = FaultPlan(
            events=(
                FaultEvent(at=1.0, action="remove_replica", dc=0, partition=home),
                FaultEvent(at=2.0, action="crash", dc=0, partition=home),
            )
        )
        with pytest.raises(FaultPlanError, match="hosts no replica"):
            plan.validate_for(spec)

    def test_remove_dc_then_add_dc_roundtrip_validates(self):
        spec = self.spec()
        FaultPlan(
            events=(
                FaultEvent(at=1.0, action="remove_dc", dc=2),
                FaultEvent(at=2.0, action="add_dc", dc=2),
            )
        ).validate_for(spec)


class TestCommittedPlans:
    def test_partition_stall_plan_is_valid(self):
        plan = FaultPlan.load(os.path.join(PLANS_DIR, "partition_stall.json"))
        spec = ClusterSpec.from_machines(n_dcs=3, machines_per_dc=2, replication_factor=2)
        plan.validate_for(spec)
        assert [e.action for e in plan] == ["partition", "heal"]
        assert plan.name == "partition-stall"

    def test_reconfig_membership_plan_is_valid(self):
        plan = FaultPlan.load(os.path.join(PLANS_DIR, "reconfig_membership.json"))
        spec = ClusterSpec.from_machines(n_dcs=3, machines_per_dc=2, replication_factor=2)
        plan.validate_for(spec)
        actions = [e.action for e in plan]
        assert actions.count("add_replica") >= 1
        assert actions.count("remove_replica") >= 1
        assert plan.name == "reconfig-membership"


NAN, INF = float("nan"), float("inf")


class TestFieldTypes:
    """Plans arrive from files and HTTP bodies: a mistyped field is a
    FaultPlanError (exit 2, or a 400), never a TypeError or a coerced value."""

    @pytest.mark.parametrize(
        "event, field",
        [
            ({"at": "0.5", "action": "heal"}, "'at'"),
            ({"at": NAN, "action": "heal"}, "'at'"),
            ({"at": INF, "action": "heal"}, "'at'"),
            ({"at": True, "action": "heal"}, "'at'"),
            ({"at": 1.0, "action": "partition", "dc": True}, "'dc'"),
            ({"at": 1.0, "action": "partition", "dc": 1.0}, "'dc'"),
            ({"at": 1.0, "action": "crash", "dc": 0, "partition": "1"}, "'partition'"),
            ({"at": 1.0, "action": "partition", "dcs": 5}, "'dcs'"),
            ({"at": 1.0, "action": "partition", "dcs": [0, True]}, "'dcs'"),
            ({"at": 1.0, "action": "partition", "dcs": "01"}, "'dcs'"),
            ({"at": 1.0, "action": "skew", "dc": 0, "partition": 0, "offset": NAN}, "'offset'"),
            ({"at": 1.0, "action": "degrade", "dcs": [0, 1], "extra_latency": INF}, "'extra_latency'"),
            ({"at": 1.0, "action": "degrade", "dcs": [0, 1], "extra_latency": NAN}, "'extra_latency'"),
            ({"at": 1.0, "action": "degrade", "dcs": [0, 1], "loss": "0.1"}, "'loss'"),
        ],
    )
    def test_mistyped_field_rejected(self, event, field):
        with pytest.raises(FaultPlanError, match=field):
            FaultEvent.from_dict(event)

    def test_nan_time_rejected_in_a_plan_document(self):
        # json.loads accepts NaN; a NaN time would break the kernel's heap order.
        with pytest.raises(FaultPlanError, match="finite"):
            FaultPlan.from_json('{"events": [{"at": NaN, "action": "heal"}]}')

    def test_plan_name_must_be_a_string(self):
        with pytest.raises(FaultPlanError, match="'name'"):
            FaultPlan.from_dict({"name": 3, "events": []})

    def test_unhashable_action_is_an_unknown_action(self):
        with pytest.raises(FaultPlanError, match="unknown action"):
            FaultEvent.from_dict({"at": 1.0, "action": ["heal"]})
