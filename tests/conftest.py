"""Shared fixtures: one simulated hardware set for the whole session,
and ``repro-bench serve`` as a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.experiments.common import Testbed, build_testbed
from repro.measurement.patterns import PatternTable
from repro.phased_array import Codebook, PhasedArray, talon_codebook
from repro.service.client import ServiceClient


@pytest.fixture(scope="session")
def testbed() -> Testbed:
    """Devices plus the measured 3D pattern table (memoized globally)."""
    return build_testbed()


@pytest.fixture(scope="session")
def antenna(testbed) -> PhasedArray:
    return testbed.dut_antenna


@pytest.fixture(scope="session")
def codebook(testbed) -> Codebook:
    return testbed.dut_codebook


@pytest.fixture(scope="session")
def pattern_table(testbed) -> PatternTable:
    return testbed.pattern_table


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture()
def serve_process(tmp_path):
    """``repro-bench serve`` as a subprocess on ``tmp_path / "state"``:
    ``start(...)`` returns ``(process, client)``; every start shares
    that state dir, so a second one is a restart."""
    procs = []
    clients = []

    def start(*args: str, prelude: str = "", stderr=subprocess.DEVNULL):
        """Serve with ``args``, after running ``prelude`` in the process."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part
            for part in (str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH"))
            if part
        )
        argv = ["serve", "--port", "0", "--state-dir", str(tmp_path / "state"), *args]
        program = (
            f"{prelude}\nimport sys\nfrom repro.cli import main\n"
            f"sys.exit(main({argv!r}))"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", program],
            env=env, stdout=subprocess.PIPE, stderr=stderr, text=True,
        )
        procs.append(proc)
        line = proc.stdout.readline()
        assert "listening on http://" in line, line
        clients.append(ServiceClient(port=int(line.strip().rsplit(":", 1)[1])))
        return proc, clients[-1]

    yield start
    for client in clients:
        client.close()
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
