"""Run configuration: validation of every numeric field."""

import math
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from ads_null_flows.config import DEFAULT, RunConfig

COUNTS = ("no", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_rejects_non_finite_and_non_positive(value):
    with pytest.raises(ValueError):
        RunConfig(tol_floquet=value)
    with pytest.raises(ValueError):
        replace(DEFAULT, integrator_rel_tol=value)


def test_readme_config_paragraph_names_every_field():
    """README's configuration paragraph states the field count and names
    exactly the fields of RunConfig, each in backticks."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lead = "Numeric configuration lives in one dataclass"
    paragraph = lead + readme.split(lead, 1)[1].split("\n\n", 1)[0]
    names = {f.name for f in fields(RunConfig)}
    assert f"with {COUNTS[len(names)]} fields" in paragraph
    assert set(re.findall(r"`([a-z_]+)`", paragraph)) == names
