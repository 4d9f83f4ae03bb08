"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of a Python thread drifts by up to a factor of two
over seconds to minutes (other tenants on the same cores and caches), so raw
times of the same code differ more between runs than any change worth
measuring. The benchmark therefore times a fixed pure-Python reference loop
around and during every timed span, and reports the span's time scaled to the
reference's nominal speed:

    calibrated_s = raw_s * NOMINAL_REFERENCE_S / harmonic_mean(reference samples)

Samples are taken just before and just after the span and, in untraced runs,
every SAMPLE_INTERVAL_S while it runs, from a SIGALRM handler whose own time
is left out of raw_s. The harmonic mean of sample times is the inverse of the
mean speed over samples spread evenly in time, so it follows a host that
flips between a fast and a slow state within a span (a median picks one of
the two), and a sample stretched by preemption barely moves it. The
reference is independent of relpsi, so a change to relpsi moves calibrated
times exactly as it moves raw ones at a fixed machine speed. Raw times are
kept in each run's full record.

The drift does not slow every kind of interpreter work alike, so there are two
references, and each workload uses the one closest to its hot path (see
workloads.REFERENCE): "group" composes permutations as tuples and stores them
in a dict, like relpsi's group code; "integer" does integer arithmetic with a
modulus and dict stores, like numtheory's trial division. Over several
minutes of drift on a 2-vCPU Intel Xeon VM, the spread (quartile distance over
median) of single relpsi commands' times was 0.25-0.5 raw, 0.04-0.10 scaled
by the matching reference and 0.07-0.28 scaled by the other one.
"""

import random
import signal
from statistics import harmonic_mean
from time import perf_counter

# seconds one reference sample of either kind takes on a 2-vCPU Intel Xeon VM
# under Python 3.11; only sets the scale of the calibrated times
NOMINAL_REFERENCE_S = 0.0025
BRACKET_SAMPLES = 4  # samples taken back to back before and after a span
SAMPLE_INTERVAL_S = 0.05

_rng = random.Random(0)
_PERMUTATIONS = [tuple(_rng.sample(range(12), 12)) for _ in range(64)]


def _group_loop() -> float:
    perms = _PERMUTATIONS
    seen = {}
    x = perms[0]
    start = perf_counter()
    for step in range(1_600):
        y = perms[step & 63]
        x = tuple([y[i] for i in x])
        seen[x] = step
    return perf_counter() - start


def _integer_loop() -> float:
    table = {}
    acc = 0
    start = perf_counter()
    for i in range(10_000):
        table[i & 1023] = acc
        acc = (acc * 31 + i) % 1000003
    return perf_counter() - start


REFERENCES = {"group": _group_loop, "integer": _integer_loop}


def bracket(kind: str) -> list[float]:
    loop = REFERENCES[kind]
    return [loop() for _ in range(BRACKET_SAMPLES)]


def calibrated(raw_s: float, samples: list[float]) -> float:
    """raw_s scaled to the nominal reference speed (see the module docstring)."""
    return raw_s * NOMINAL_REFERENCE_S / harmonic_mean(samples)


class Sampler:
    """Takes reference samples from a SIGALRM handler every SAMPLE_INTERVAL_S
    while active, and adds up the seconds spent in the handler."""

    def __init__(self, kind: str):
        self.loop = REFERENCES[kind]
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        start = perf_counter()
        self.samples.append(self.loop())
        self.handler_s += perf_counter() - start

    def __enter__(self):
        self.samples, self.handler_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
