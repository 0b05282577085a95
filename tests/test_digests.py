"""Byte-identical output: the shipped configs' trajectory files are pinned.

The README promises that two runs of one config produce byte-identical
files on any platform. These digests pin that output across code changes:
a faster kernel, a refactor or a new formatter must leave them as they are.
"""

from __future__ import annotations

import hashlib
from importlib import resources

import pytest

from repopsim.cli import EXIT_OK, cli_main

SHIPPED_DIGESTS = {
    "baseline.json": "9d1dcaa9e29aa5274d98c11b9fb00c154974b40e65137a7b17f4960064b2c1a4",
    "mixing.json": "f864de74e99c527c9db593dc89645e12c673eb37c68162db2298117055f500ca",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_DIGESTS))
def test_shipped_config_trajectory_digest(name, tmp_path):
    config = str(resources.files("repopsim").joinpath(f"data/{name}"))
    out = tmp_path / "trajectory.csv"
    assert cli_main(["run", "--config", config, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SHIPPED_DIGESTS[name]
