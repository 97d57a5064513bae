"""Budget event rate and bandwidth; thin a stream through the rate controller.

Event cameras can momentarily produce far more events than the readout link
carries. This demo builds a stream with a sharp burst, reports mean/peak rate
under two byte encodings, and shows what the on-sensor rate controller would
keep.
"""

import numpy as np

from evfuse import (
    DEFAULT_SATURATION_EVPS,
    ErcConfig,
    EventStream,
    StreamHeader,
    erc_filter,
    make_events,
    rate_report,
)

rng = np.random.default_rng(7)
# Quiet background at ~50 kEv/s for 100 ms, plus a 2 ms burst at 150 MEv/s.
quiet = rng.integers(0, 100_000, size=5_000)
burst = rng.integers(40_000, 42_000, size=300_000)
t = np.sort(np.concatenate([quiet, burst]).astype(np.uint64))
n = t.size
events = make_events(t, rng.integers(0, 640, n), rng.integers(0, 480, n),
                     rng.choice(np.array([-1, 1], dtype=np.int8), n))
stream = EventStream(StreamHeader(640, 480), events)

for encoding in ("esf1", "fixed8"):
    rep = rate_report(stream, encoding=encoding)
    print(f"{encoding:6s} mean {rep.mean_evps / 1e6:7.3f} MEv/s  peak {rep.peak_evps / 1e6:7.1f} MEv/s  "
          f"mean {rep.mean_bps / 1e6:6.2f} MB/s  peak {rep.peak_bps / 1e6:7.1f} MB/s  "
          f"saturated bins: {len(rep.saturated_bins)}")
print(f"(saturation threshold: {DEFAULT_SATURATION_EVPS / 1e6:.0f} MEv/s — "
      "the burst blows through it, the mean hides it)")

cfg = ErcConfig(cap_evps=20_000_000, period_us=1000)
kept = erc_filter(events, cfg)
print(f"\nrate controller at {cfg.cap_evps / 1e6:.0f} MEv/s "
      f"(budget {cfg.budget} events per {cfg.period_us} us period):")
print(f"  kept {len(kept)} of {n} events ({len(kept) / n:.1%})")

thinned = rate_report(EventStream(StreamHeader(640, 480), kept))
print(f"  peak after thinning: {thinned.peak_evps / 1e6:.1f} MEv/s")

again = erc_filter(kept, cfg)
assert np.array_equal(again, kept)
print("  filtering twice changes nothing — the controller is idempotent")
