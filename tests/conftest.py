"""Shared fixtures.

Coefficient training is cached per node type inside
:mod:`repro.ear.models.coefficients`; the session fixtures below warm
that cache once so individual tests don't pay for it repeatedly.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.ear.config import EarConfig
from repro.ear.models import train_coefficients
from repro.hw.node import GPU_NODE, SD530, Node
from repro.workloads.generator import synthetic_workload


#: working-tree directories the CLI writes by default; a test that lands
#: files there leaks state into the next run (a stale journal, a cache
#: entry answering for changed code).
_GUARDED = (Path("results") / ".journal", Path("results") / ".cache")


def _files_under(directories) -> dict[Path, int]:
    """Every file under ``directories`` with its modification time."""
    return {
        p: p.stat().st_mtime_ns
        for d in directories
        if d.is_dir()
        for p in d.rglob("*")
        if p.is_file()
    }


@pytest.fixture(scope="session", autouse=True)
def _hermetic_working_tree():
    """Fail the session if any test wrote under ``results/.journal`` or
    ``results/.cache`` (relative to the repository or the working
    directory).  Files that were there before the session and stay
    untouched are fine."""
    roots = {Path(__file__).resolve().parent.parent, Path.cwd().resolve()}
    directories = [root / d for root in roots for d in _GUARDED]
    before = _files_under(directories)
    yield
    after = _files_under(directories)
    leaked = sorted(str(p) for p, mtime in after.items() if before.get(p) != mtime)
    if leaked:
        pytest.fail(
            "tests wrote into the working tree (route them to tmp_path): "
            + ", ".join(leaked),
            pytrace=False,
        )


@pytest.fixture(scope="session")
def sd530_coefficients():
    """Trained coefficient table for the main testbed node type."""
    return train_coefficients(SD530)


@pytest.fixture(scope="session")
def gpu_coefficients():
    return train_coefficients(GPU_NODE)


@pytest.fixture()
def node() -> Node:
    """A fresh SD530 node."""
    return Node(SD530)


@pytest.fixture()
def gpu_node() -> Node:
    return Node(GPU_NODE)


@pytest.fixture()
def ear_config() -> EarConfig:
    """The paper's default configuration (5 % / 2 %, eUFS on)."""
    return EarConfig()


def make_fast_workload(
    *,
    core_share: float = 0.85,
    unc_share: float = 0.06,
    mem_share: float = 0.05,
    n_nodes: int = 1,
    n_iterations: int = 150,
    vpi: float = 0.0,
):
    """A small synthetic workload for engine/policy tests (~75 s sim)."""
    return synthetic_workload(
        name=f"fast-{core_share:.2f}-{mem_share:.2f}",
        node_config=SD530,
        core_share=core_share,
        unc_share=unc_share,
        mem_share=mem_share,
        vpi=vpi,
        n_nodes=n_nodes,
        n_iterations=n_iterations,
    )


@pytest.fixture()
def fast_workload():
    return make_fast_workload()


@pytest.fixture()
def memory_workload():
    return make_fast_workload(core_share=0.12, unc_share=0.2, mem_share=0.6)
