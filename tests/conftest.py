"""Shared fixtures: small, fast environments for the whole suite."""

from pathlib import Path

import pytest

from repro.acpi.platform import build_platform
from repro.core.rack import Rack
from repro.lint import check_sources, load_sources
from repro.lint.callgraph import build_graph
from repro.lint.engine import parse_sources
from repro.rdma.fabric import Fabric
from repro.units import GiB, MiB

REPO_SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def real_sources():
    """The text of every file under ``src/``, read once per session."""
    return load_sources([str(REPO_SRC)])


@pytest.fixture(scope="session")
def real_findings(real_sources):
    """The pristine tree's findings for every rule, analyzed once."""
    findings, _ = check_sources(real_sources)
    return findings


@pytest.fixture(scope="session")
def real_trees(real_sources):
    """The pristine tree's modules, parsed once."""
    trees, _ = parse_sources(real_sources)
    return trees


@pytest.fixture(scope="session")
def real_graph(real_trees):
    """The pristine tree's call graph, built once."""
    return build_graph(real_trees)


@pytest.fixture
def platform():
    """A 1 GiB Sz-capable server platform."""
    return build_platform("test-server", memory_bytes=1 * GiB)


@pytest.fixture
def fabric():
    return Fabric()


@pytest.fixture
def small_rack():
    """Three 512 MiB servers with 16 MiB buffers — fast to build."""
    return Rack(["s1", "s2", "s3"], memory_bytes=512 * MiB,
                buff_size=16 * MiB)


@pytest.fixture
def rack_with_zombie(small_rack):
    """The small rack with s3 already pushed to Sz."""
    small_rack.make_zombie("s3")
    return small_rack
