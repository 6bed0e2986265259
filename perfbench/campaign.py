"""One campaign in a fresh interpreter; prints one JSON result line.

Started by ``run.py`` once per campaign so that peak memory is the
campaign's own and no heap state leaks from one campaign into the next.
Run it by hand from the repository root with::

    PYTHONPATH=src python3 perfbench/campaign.py --workload fleet_default \\
        --seed 0 --jobs 1 --trace 0 --workdir perfbench/out

``--trace 1`` installs the layer wrappers before anything is built and
adds per-layer figures, the wrappers that fired and any wrapper left
behind after restoration to the result. ``--trace 0`` samples the
host-speed reference (``hostspeed.py``) during the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None,
                        help="traced pass: write the spans here (JSON lines)")
    args = parser.parse_args()

    import tracer as tracing
    from hostspeed import Sampler
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        run_id = f"{args.workload}-{args.seed}-j{args.jobs}"
        tracer = tracing.Tracer(run_id=run_id).install()
    prepared = workload.prepare(args.seed, args.workdir)
    ready = time.monotonic()
    # A traced pass does not sample: slices would land in layer self times.
    sampler = Sampler() if tracer is None else None
    with sampler if sampler is not None else contextlib.nullcontext():
        start = time.perf_counter()
        result = workload.run(prepared, args.jobs)
        wall = time.perf_counter() - start
    report = {"ready": ready, "wall_s": wall}
    if sampler is not None:
        report.update(sampler.report())
    if tracer is not None:
        tracer.restore()
        report["layers"] = tracing.layer_metrics(tracer, wall)
        report["fired"] = tracer.fired()
        report["leftover"] = tracing.leftover_wrappers()
        if args.spans:
            tracer.write_spans(args.spans)
    outcome = workload.judge(prepared, result)
    report.update(
        ops=outcome.ops,
        failed=outcome.failed,
        digest=outcome.digest,
        events=outcome.events,
        devices=outcome.devices,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
