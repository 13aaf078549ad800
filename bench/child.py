"""One benchmark pass in a fresh process: `run_corpus` over one corpus.

Usage: python3 bench/child.py PASS.json
PASS.json names the corpus, config file, output directory, whether to
use mock providers and whether to trace. The result goes to PASS.json's
`result` path.
Imports stay minimal before `run_corpus` is entered, because the time
up to that point is the benchmark's set-up time.
"""

import json
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """High-water resident set of this process's own address space.

    Not `ru_maxrss`: across exec that also carries the spawning
    process's peak, here that of bench/run.py.
    """
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import viewfuse  # noqa: F401  the package import a CLI user pays for
    from viewfuse.config import PipelineConfig
    from viewfuse.pipeline import run_corpus

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.install()
    cfg = PipelineConfig.from_file(spec["config"])
    entered = time.monotonic()
    summary = run_corpus(spec["corpus"], cfg, mock=spec["mock"], out_dir=spec["out"])
    result = {
        "entered": entered,
        "wall_s": time.monotonic() - entered,
        "peak_rss_kb": peak_rss_kb(),
        "summary": summary,
        "viewfuse_file": viewfuse.__file__,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracing.write_spans(tracer, Path(spec["spans"]))
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
