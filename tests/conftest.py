"""Shared fixtures: a pinned start time and canned run configurations."""

import dataclasses
from datetime import datetime

import pytest
from hypothesis import Phase, settings

from paraloq import Channel, Constant, RunConfig

START = datetime(2026, 8, 10, 12, 0, 0)

# Find a failing example but do not shrink it: tests/ci/mutants.py reads only
# whether a selection fails, and shrinking one took most of its run.
settings.register_profile("no-shrink", phases=[Phase.explicit, Phase.reuse, Phase.generate])


@pytest.fixture
def fixed_start():
    return START


def constant_run_config(dry_c=20.0, wet_c=18.0, **kwargs):
    kwargs.setdefault("duration_s", 2.0)
    kwargs.setdefault("start_time", START)
    kwargs.setdefault(
        "stimuli", {Channel.DRY: Constant(dry_c), Channel.WET: Constant(wet_c)}
    )
    return RunConfig(**kwargs)


def with_stimulus(cfg, channel, stimulus):
    """cfg with channel's stimulus replaced; a built RunConfig cannot change."""
    return dataclasses.replace(cfg, stimuli={**cfg.stimuli, channel: stimulus})
