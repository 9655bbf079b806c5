"""Every demo script runs to completion against the package in src/, with
RuntimeWarnings as errors and nothing on stderr, and prints the same bytes
as when its output was recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: sha256 of each demo's stdout.
STDOUT_SHA256 = {
    "01_state_transfer_walkthrough": "2494e866a68ae009f1a339f381403c9f242feb7e967afdbd2b98693e69928df5",
    "02_consistency_conditions": "1c616b7358c5341596a113e450c16549b0a2126ee0091118cc3e4558a62419bc",
    "03_misbehavior_and_collapse": "526d94e01bb7b9443f9e220a30c11eccdf74ebb75d7e03a3721374e3805da084",
    "04_resources_and_teleportation": "bfe8bb44fe0d44efc1766b416a1fca01d953675bc7d4936e7e3911dbc9f02d7f",
    "05_branching_topology_and_single_use": "1598b40e70fa587cf80e1a4cbe07d0f555b4b84f8f8065741976c4d64645b113",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    command = [sys.executable, "-W", "error::RuntimeWarning", str(demo)]
    result = subprocess.run(command, capture_output=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr == b""
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
