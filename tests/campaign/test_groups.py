"""Scenario groups in a campaign: members that run as one call.

A :class:`ScenarioGroup` runs its members through one function that
does their shared work once, but each member keeps its own content
address.  These tests pin what the store sees (one entry per member,
under the address the member has alone), what a partly cached group
runs (only its missing members, as a smaller group or alone), how a
failure is reported (every member of the failed group), and that a
pool runs a group as one task.
"""

from concurrent import futures

import numpy as np
import pytest

from repro.campaign.runner import CampaignError, CampaignRunner
from repro.campaign.store import ResultStore
from repro.core.scenario import Scenario, ScenarioGroup

#: sizes of the calls each group function received (this process).
GROUP_CALLS: list[int] = []


def shifted_draw(rng, shift, fail=False):
    """A member alone: three normal draws, shifted."""
    if fail:
        raise RuntimeError("boom")
    return rng.standard_normal(3) + shift


def shifted_draws(calls):
    """The members together: one draw, shared by every member (their
    generators are seeded alike)."""
    GROUP_CALLS.append(len(calls))
    if any(call.get("fail") for call in calls):
        raise RuntimeError("boom")
    base = calls[0]["rng"].standard_normal(3)
    return [base + call["shift"] for call in calls]


def members(*shifts, fail=False):
    return [Scenario(name=f"s{shift:g}", fn=shifted_draw, seed=7,
                     rng_param="rng",
                     params=dict(shift=shift, fail=fail))
            for shift in shifts]


def group(*shifts, fail=False):
    return ScenarioGroup.of(members(*shifts, fail=fail), shifted_draws)


@pytest.fixture(autouse=True)
def fresh_calls():
    GROUP_CALLS.clear()


def test_group_equals_its_members_run_alone(tmp_path):
    """A group's values are its members' own, each stored under the
    address the member has alone: the members run alone hit all."""
    store = ResultStore(tmp_path, salt="s")
    grouped = CampaignRunner([group(0, 1, 2)], store=store).run()
    assert (grouped.executed, grouped.cached) == (3, 0)
    assert GROUP_CALLS == [3]
    assert [r.name for r in grouped.results] == ["s0", "s1", "s2"]
    alone = CampaignRunner(members(0, 1, 2)).run()
    for a, b in zip(grouped.results, alone.results):
        np.testing.assert_array_equal(a.value, b.value)
    assert sorted(e.key for e in store.entries()) == sorted(
        store.scenario_key(s) for s in members(0, 1, 2))
    replay = CampaignRunner(members(0, 1, 2), store=store).run()
    assert (replay.executed, replay.cached) == (0, 3)


def test_partly_cached_group_runs_only_its_missing_members(tmp_path):
    """With some members in the store the rest run as a smaller group
    (a lone one runs alone), and the replay executes nothing."""
    store = ResultStore(tmp_path, salt="s")
    CampaignRunner(members(1), store=store).run()
    report = CampaignRunner([group(0, 1, 2)], store=store).run()
    assert (report.executed, report.cached) == (2, 1)
    assert GROUP_CALLS == [2]
    assert [r.cached for r in report.results] == [False, True, False]
    GROUP_CALLS.clear()
    CampaignRunner(members(3), store=store).run()
    report = CampaignRunner([group(0, 1, 2, 3, 4)], store=store).run()
    assert (report.executed, report.cached) == (1, 4)
    assert GROUP_CALLS == []
    replay = CampaignRunner([group(0, 1, 2, 3, 4)], store=store).run()
    assert (replay.executed, replay.cached) == (0, 5)
    alone = CampaignRunner(members(0, 1, 2, 3, 4)).run()
    for a, b in zip(replay.results, alone.results):
        np.testing.assert_array_equal(a.value, b.value)


@pytest.mark.parametrize("processes", [None, 2])
def test_failure_names_every_member_of_the_group(tmp_path, processes):
    """One member failing fails its group: the error names every
    member, and a sibling scenario completed first stays checkpointed."""
    store = ResultStore(tmp_path, salt="s")
    runner = CampaignRunner(
        [*members(9), group(0, 1, 2, fail=True)], processes=processes,
        store=store)
    with pytest.raises(CampaignError, match="boom") as info:
        runner.run()
    assert [name for name, _ in info.value.failures] == ["s0", "s1", "s2"]
    assert info.value.checkpointed == 1
    assert len(store.entries()) == 1


def test_pool_runs_a_group_as_one_task(tmp_path, monkeypatch):
    """Over a pool each group is one task, and the values equal the
    serial run's."""
    serial = CampaignRunner([group(0, 1), group(5, 6, 7)]).run()
    tasks = []
    submit = futures.ProcessPoolExecutor.submit

    def counting(self, fn, *args, **kwargs):
        tasks.append(args)
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(futures.ProcessPoolExecutor, "submit", counting)
    pooled = CampaignRunner([group(0, 1), group(5, 6, 7)], processes=2,
                            store=ResultStore(tmp_path, salt="s")).run()
    assert len(tasks) == 2
    assert (pooled.executed, pooled.cached) == (5, 0)
    for a, b in zip(serial.results, pooled.results):
        assert a.name == b.name
        np.testing.assert_array_equal(a.value, b.value)


def test_group_of_one_is_its_member():
    (only,) = members(4)
    assert ScenarioGroup.of([only], shifted_draws) is only
    assert group(0, 1).name == "s0+s1"


def test_group_wall_is_shared_among_its_members():
    report = CampaignRunner([group(0, 1, 2)]).run()
    walls = {r.wall_time for r in report.results}
    assert len(walls) == 1 and walls.pop() > 0


def test_group_returning_too_few_values_fails():
    bad = ScenarioGroup(members=tuple(members(0, 1)),
                        fn=lambda calls: [0.0])
    with pytest.raises(ValueError, match="1 values for 2 members"):
        CampaignRunner([bad]).run()
