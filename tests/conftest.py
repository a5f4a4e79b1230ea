"""Shared fixtures: cached beam artifacts, one reference Monte Carlo
campaign of the clamped-free beam, and the acceptance-line reporter.

Everything heavy is session-scoped; individual tests read from these
caches instead of re-simulating.
"""

from __future__ import annotations

import pytest

from omabench.harness import (CampaignConfig, DEFAULT_NOISE_LEVELS, _noisy_record,
                              default_beams, run_campaign, simulate_beam)

MASTER_SEED = 42
CAMPAIGN_LEVELS = (0.0,) + DEFAULT_NOISE_LEVELS


@pytest.fixture(scope="session")
def beam_artifacts():
    """Simulated artifacts for the four standard beams at the master seed."""
    return {bc.beam_id: simulate_beam(bc, MASTER_SEED) for bc in default_beams()}


@pytest.fixture(scope="session")
def cf(beam_artifacts):
    return beam_artifacts["CF"]


@pytest.fixture(scope="session")
def noisy_record(beam_artifacts):
    """Factory for corrupted records using the campaign seed convention.

    ``noisy_record(beam_id, level, run)`` reproduces exactly the record the
    benchmark harness would process for that (level, run) cell.
    """
    config = CampaignConfig(noise_levels=CAMPAIGN_LEVELS, master_seed=MASTER_SEED)

    def make(beam_id: str, level: float, run: int = 0):
        rec, _ = _noisy_record(beam_artifacts[beam_id], config,
                               CAMPAIGN_LEVELS.index(level), run)
        return rec

    return make


@pytest.fixture(scope="session")
def cf_campaign(beam_artifacts):
    """Full clamped-free campaign: 8 levels x 20 runs x PP/FDD/SSI.

    Two workers halve the suite's longest build; the report does not depend
    on ``jobs`` (acceptance 7 compares ``jobs=1`` with ``jobs=2``).
    """
    cfg = CampaignConfig(
        beams=tuple(b for b in default_beams() if b.beam_id == "CF"),
        noise_levels=CAMPAIGN_LEVELS,
        runs=20,
        methods=("PP", "FDD", "SSI"),
        master_seed=MASTER_SEED,
    )
    return run_campaign(cfg, jobs=2)


_ACCEPTANCE_LINES: list[tuple[str, bool, str]] = []


@pytest.fixture
def acceptance():
    """Recorder for one acceptance-criterion verdict line."""
    def record(criterion: str, passed: bool, detail: str) -> None:
        _ACCEPTANCE_LINES.append((criterion, passed, detail))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, passed, detail in _ACCEPTANCE_LINES:
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {criterion}: {verdict} - {detail}")
