import re
from pathlib import Path

import numpy as np
import pytest

from viewfuse.model import EmbeddingVector


def make_emb(*values) -> EmbeddingVector:
    return EmbeddingVector(np.asarray(values, dtype=np.float64))


def segment_lines(kind_dir: Path) -> list[tuple[str, bytes]]:
    """(entry name, payload) of each whole line of the cache segments in
    `kind_dir`, in the order a reader indexes them."""
    lines = []
    for seg in sorted(kind_dir.glob("*.seg")):
        for line in seg.read_bytes().split(b"\n")[:-1]:
            name, _, payload = line.partition(b"\t")
            lines.append((name.decode("ascii"), payload))
    return lines


def segment_entries(kind_dir: Path) -> dict[str, bytes]:
    """Entry name -> payload of the cache segments in `kind_dir`; a later line wins."""
    return dict(segment_lines(kind_dir))


def rewrite_entry(kind_dir: Path, name: str, payload: bytes) -> None:
    """Give every line of entry `name` in `kind_dir`'s segments the payload `payload`."""
    for seg in kind_dir.glob("*.seg"):
        lines = seg.read_bytes().split(b"\n")
        prefix = name.encode("ascii") + b"\t"
        seg.write_bytes(b"\n".join(prefix + payload if line.startswith(prefix) else line for line in lines))


@pytest.fixture
def mk():
    """Shorthand embedding constructor: mk(1.0, 0.0) -> EmbeddingVector."""
    return make_emb


CRITERION_TITLES = {
    1: "gate threshold derivation reference constants",
    2: "grid-search minimizer matches solver root",
    3: "ucb1 convergence and sublinear regret",
    4: "bandit bookkeeping equals brute force",
    5: "confidence / relevance / composite unit checks",
    6: "clustering matches reachability-closure oracle",
    7: "end-to-end determinism and warm cache",
    8: "low-similarity objects routed to flagged export",
    9: "cost estimate reference value",
    10: "bandit selection beats uniform random",
}

_CRITERION_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion that was run."""
    rows: dict[int, str] = {}
    for key, outcome in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(key, []):
            match = _CRITERION_RE.search(getattr(report, "nodeid", ""))
            if match:
                num = int(match.group(1))
                if rows.get(num) != "FAIL":
                    rows[num] = outcome
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(rows):
        title = CRITERION_TITLES.get(num, "")
        terminalreporter.write_line(f"criterion {num:02d}: {rows[num]}  {title}")
