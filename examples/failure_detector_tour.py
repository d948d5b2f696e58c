#!/usr/bin/env python3
"""A tour of the in-switch failure detector (§5.2).

Demonstrates, on a live cell:
  * the healthy heartbeat stream (max inter-packet gap vs the timeout),
  * detection latency across SIGKILLs at all 56 tick phases of a slot,
  * the false-positive / detection-latency trade-off when sweeping the
    timeout T around the healthy-gap envelope.

Run:  python examples/failure_detector_tour.py
"""

from repro.experiments import ablations, sec52_detector, sec86_switch


def main() -> None:
    print("Measuring the healthy heartbeat envelope (idle + busy)...")
    switch_result = sec86_switch.run(gap_duration_s=2.0)
    print(f"  max healthy inter-packet gap: idle "
          f"{switch_result.max_gap_idle_us:.0f} us, busy "
          f"{switch_result.max_gap_busy_us:.0f} us "
          f"(paper measured 393 us; timeout set to 450 us)")

    print("\nKilling the primary at every tick phase of a slot...")
    detector_result = sec52_detector.run(healthy_seconds=1.0)
    print(f"  detection latency: median {detector_result.median_us():.0f} us, "
          f"max {detector_result.max_us():.0f} us over "
          f"{len(detector_result.detection_latencies_us)} kills; "
          f"false positives in healthy run: {detector_result.false_positives}")

    print("\nSweeping the timeout T (the design trade-off):")
    print("  T(us)   false positives   detection latency (us)")
    for point in ablations.detector_timeout_sweep():
        latency = (
            f"{point.detection_latency_us:.0f}"
            if point.detection_latency_us is not None
            else "-"
        )
        print(f"  {point.timeout_us:6.0f}  {point.false_positives:15d}   {latency:>10s}")
    print(
        "\nBelow the ~390 us healthy gap, the detector false-positives on\n"
        "ordinary jitter; far above it, failures linger for extra TTIs.\n"
        "450 us sits just past the envelope — the paper's choice."
    )


if __name__ == "__main__":
    main()
