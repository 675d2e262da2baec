"""Profile the per-I/O hot path of the simulator under cProfile.

Runs a closed-loop FIO job against one of the bundled device models and
prints the top-N functions by the chosen sort key -- the tool used to find
and verify the call-count reductions behind the kernel roundtrip speedup
(see ``benchmarks/test_bench_kernel.py``, metric
``request_roundtrips_per_sec``).

Usage::

    PYTHONPATH=src python benchmarks/profile_roundtrip.py
    PYTHONPATH=src python benchmarks/profile_roundtrip.py --device ssd --ios 20000
    PYTHONPATH=src python benchmarks/profile_roundtrip.py --sort cumtime
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys


def build_device(name: str, sim):
    """Construct one of the profiled device models on ``sim``."""
    if name == "loopback":
        from repro.devices.loopback import LoopbackDevice
        # Same shape as the roundtrip microbenchmark.
        return LoopbackDevice(sim, capacity_bytes=1 << 28,
                              service_time_us=2.0, service_slots=4)
    if name == "ssd":
        from repro.ssd.ssd import SsdDevice
        device = SsdDevice(sim)
        device.preload()
        return device
    if name == "essd":
        from repro.ebs.essd import EssdDevice
        return EssdDevice(sim)
    raise ValueError(f"unknown device {name!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--device", choices=("loopback", "ssd", "essd"),
                        default="loopback",
                        help="device model to drive (default: loopback, the "
                             "roundtrip-microbenchmark shape)")
    parser.add_argument("--ios", type=int, default=12000,
                        help="number of I/Os to issue (default: 12000)")
    parser.add_argument("--queue-depth", type=int, default=8,
                        help="closed-loop workers (default: 8)")
    parser.add_argument("--io-size", type=int, default=4096,
                        help="I/O size in bytes (default: 4096)")
    parser.add_argument("--pattern", default="randread",
                        help="access pattern (default: randread)")
    parser.add_argument("--top", type=int, default=25,
                        help="functions to print (default: 25)")
    parser.add_argument("--sort", choices=("tottime", "cumtime", "ncalls"),
                        default="tottime",
                        help="pstats sort key (default: tottime)")
    args = parser.parse_args(argv)

    from repro.sim import Simulator
    from repro.workload.fio import FioJob, run_job

    sim = Simulator()
    device = build_device(args.device, sim)
    job = FioJob(pattern=args.pattern, io_size=args.io_size,
                 queue_depth=args.queue_depth, io_count=args.ios)

    profiler = cProfile.Profile()
    profiler.enable()
    result = run_job(sim, device, job)
    profiler.disable()

    duration_s = result.duration_us / 1e6 if result.duration_us > 0 else 0.0
    print(f"# {args.device}: {result.ios_completed} I/Os "
          f"({args.pattern}, {args.io_size}B, qd={args.queue_depth}); "
          f"simulated {duration_s:.3f}s")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
