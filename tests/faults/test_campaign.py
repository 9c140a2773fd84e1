"""Campaign determinism and outcome coverage.

The acceptance criteria for the resilience subsystem: a quick seeded
campaign observes all five outcome classes, and repeating it with the
same seed reproduces a byte-identical table.
"""

import pytest

from repro.faults import (
    OUTCOMES,
    CampaignSpec,
    campaign_dict,
    format_campaign,
    run_campaign,
)

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def quick_campaign():
    return run_campaign(CampaignSpec.quick(seed=42))


def test_quick_campaign_covers_all_outcome_classes(quick_campaign):
    assert quick_campaign.outcome_classes() == set(OUTCOMES)


def test_quick_campaign_is_byte_identical_on_repeat(quick_campaign):
    again = run_campaign(CampaignSpec.quick(seed=42))
    assert format_campaign(again) == format_campaign(quick_campaign)
    assert campaign_dict(again) == campaign_dict(quick_campaign)


def test_campaign_counts_shape(quick_campaign):
    counts = quick_campaign.counts()
    assert set(counts) == {("cv32e40p", "vanilla"), ("cv32e40p", "SLT")}
    spec = CampaignSpec.quick()
    per_combo = spec.faults_per_combo + 4  # + targeted probes
    for row in counts.values():
        assert set(row) == set(OUTCOMES)
        assert sum(row.values()) == per_combo * len(spec.workloads)


def test_format_campaign_mentions_seed_and_classes(quick_campaign):
    text = format_campaign(quick_campaign)
    assert "seed 42" in text
    for outcome in OUTCOMES:
        assert outcome in text
    assert "outcome classes observed:" in text


def test_campaign_dict_is_json_ready(quick_campaign):
    import json

    payload = campaign_dict(quick_campaign)
    assert payload["seed"] == 42
    assert payload["outcomes"]
    for entry in payload["outcomes"]:
        assert entry["outcome"] in OUTCOMES
    json.dumps(payload)  # must not raise


def test_golden_runs_recorded(quick_campaign):
    assert all(cycles > 0 for cycles in quick_campaign.golden_cycles.values())
    assert ("cv32e40p", "SLT", "yield_pingpong") in quick_campaign.golden_cycles


def test_different_seed_changes_the_campaign(quick_campaign):
    other = run_campaign(CampaignSpec.quick(seed=7))
    assert campaign_dict(other) != campaign_dict(quick_campaign)
    # Structured hang/crash handling is seed-independent: still no
    # unclassified outcome.
    assert other.outcome_classes() <= set(OUTCOMES)


def test_cli_faults_quick_runs(capsys):
    from repro.cli import main

    assert main(["faults", "--seed", "42", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "seed 42" in out
    assert "outcome classes observed:" in out


def test_cli_faults_rejects_a_negative_count(capsys):
    from repro.cli import main

    assert main(["faults", "--seed", "42", "--quick", "--faults", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --faults must be >= 0, got -1\n"
    assert captured.out == ""


def test_parallel_campaign_matches_serial(quick_campaign):
    """--jobs fans injection runs over a pool without changing results."""
    parallel = run_campaign(CampaignSpec.quick(seed=42), jobs=2)
    assert campaign_dict(parallel) == campaign_dict(quick_campaign)
    assert format_campaign(parallel) == format_campaign(quick_campaign)


def test_cli_faults_jobs_flag(capsys):
    from repro.cli import main

    assert main(["faults", "--seed", "42", "--quick", "--jobs", "2"]) == 0
    assert "outcome classes observed:" in capsys.readouterr().out
