"""The README's examples: its configs validate and its library code runs."""

import json
import re
from pathlib import Path

from cransim.experiments import validate_config

README = Path(__file__).resolve().parent.parent / "README.md"


def code_blocks(language, text):
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


def test_readme_configs_validate():
    blocks = [json.loads(block) for block in code_blocks("json", README.read_text())]
    configs = [cfg for cfg in blocks if isinstance(cfg, dict) and "experiment" in cfg]
    # one example per config section
    assert {cfg["experiment"] for cfg in configs} == {"cell_outage", "net_sweep"}
    for cfg in configs:
        assert validate_config(cfg) == [], cfg["experiment"]


def test_readme_library_use_runs():
    # the blocks build on each other, so they run in order in one namespace
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = code_blocks("python", section)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["acc"].sumsq_bits.shape == (1, 3, 2, 2)
    assert namespace["acc"].cross_bits.shape == (1, 3, 2)
