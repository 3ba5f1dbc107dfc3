"""Machine-speed probes for timings taken on a shared, drifting host.

On a host shared with other tenants the speed of one core drifts by tens of
percent over minutes, and that drift moves every timing of a run together.
A probe is a fixed piece of work, independent of kreincalc, that the
benchmark times between requests. Each request time is scaled by the probe's
`reference_s` over the median probe time around that request, so reported
times are wall times at the speed where the probe takes `reference_s`. The
raw wall times are printed beside them.

Two probes, because in-process compute and process start-up drift apart:
`ComputeProbe` does small dense linear algebra and pure-Python loops over
complex numbers, like an in-process request, and uses numpy only, so that
scipy is resident in the benchmark process only when kreincalc loads it;
`ImportProbe` starts a fresh
interpreter that imports numpy, like the start of a CLI call. Measured on a
2-vCPU VM over 3 minutes in which raw CLI call times drifted from 460 to
710 ms, CLI time over the `ImportProbe` time stayed within 3.15..3.29, over
a bare interpreter start within 7.7..9.1, and over `ComputeProbe` within
214..266.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np
import numpy.polynomial.polynomial as npp


class ComputeProbe:
    reference_s = 2.0e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.tall = rng.normal(size=(32, 16)) + 1j * rng.normal(size=(32, 16))
        self.x = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        self.y = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        self.herm = self.x + self.x.conj().T
        self.coeffs = rng.normal(size=9)
        for _ in range(5):     # lazy set-up inside numpy is not speed
            self.sample()

    def _work(self):
        acc = 0j
        for _ in range(2):
            s = np.linalg.svd(self.tall, compute_uv=False)
            e = np.linalg.eigvals(np.linalg.solve(self.x, self.y))
            h = np.linalg.eigh(self.herm)[0]
            r = npp.polyroots(self.coeffs)
            z = np.linalg.solve(self.x, self.y)
            acc += s[0] + e[0] + h[0] + r[0] + z[0, 0]
        vals = sorted((complex(v) for v in r), key=lambda t: (t.real, t.imag))
        for _ in range(40):
            centers: list[complex] = []
            for v in vals:
                if not any(abs(v - c) <= 1e-6 * max(1.0, abs(c)) for c in centers):
                    centers.append(v)
        jet = np.zeros(12, dtype=complex)
        for j in range(12):
            a = complex(j)
            for k in range(j):
                a -= jet[k] * (k + 1)
            jet[j] = a
        return acc

    def sample(self) -> list[float]:
        """Wall seconds of one probe, as a list of samples."""
        start = time.perf_counter()
        self._work()
        return [time.perf_counter() - start]


class ImportProbe:
    reference_s = 0.15

    def __init__(self, run_child):
        self.argv = [sys.executable, "-c", "import numpy"]
        self.run_child = run_child
        self.sample()          # writes bytecode caches

    def sample(self) -> list[float]:
        start = time.perf_counter()
        self.run_child(self.argv)
        return [time.perf_counter() - start]


def scaled(durations, probes, half_width, reference_s):
    """durations[i] * reference_s / median of the probes taken around event i.

    probes[i] holds the probe samples taken right after event i (possibly
    none); the window spans events i - half_width .. i + half_width.
    """
    out = []
    for i, seconds in enumerate(durations):
        near = [p for group in probes[max(0, i - half_width): i + half_width + 1] for p in group]
        out.append(seconds * reference_s / statistics.median(near))
    return out
