"""Host time in reference seconds.

The machine is a shared VM whose speed switches between levels up to 1.7x
apart, for tens of milliseconds to minutes at a time, in CPU time as much as
in wall time. So every timed stretch of work is followed by a fixed
calibration kernel, and the stretch's seconds are scaled by ``C_REF`` over
the mean calibration time before and after it. A calibration is the fastest
of three kernel runs, which leaves out one-off stalls. A reference second is
then a second of the reference machine at its median speed, and the drift
largely cancels.

The kernel repeats the operations a model step and a decoding round are made
of. It does not use delsim, so a change to delsim leaves it alone."""

from __future__ import annotations

import hashlib
import time

import numpy as np

# median calibration time on the reference machine (2-core x86-64 VM,
# Python 3.11, numpy 2.4)
C_REF = 0.00144

_ROW = np.random.default_rng(0).random(64)
_KEY = b"calibration-key"


def kernel() -> int:
    """Per iteration: a keyed hash, a re-keyed Philox stream, beta and
    uniform draws, a (32, 64) matrix built and reduced, list and dict glue --
    the operations a model step and a decoding round are made of."""
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    s = 0
    seen = []
    for i in range(30):
        digest = hashlib.blake2b(i.to_bytes(8, "little") + bytes(seen[-8:]), digest_size=16,
                                 key=_KEY).digest()
        state = bitgen.state
        state["state"]["counter"][:] = 0
        state["state"]["key"][:] = np.frombuffer(digest, np.uint64)
        bitgen.state = state
        agree = rng.random(31) < 0.5
        conf = np.where(agree, rng.beta(8.0, 2.0, 31), rng.beta(2.0, 8.0, 31))
        mat = np.empty((32, 64))
        mat[:31] = ((1.0 - conf) / 63)[:, None]
        mat[np.arange(31), (conf * 63).astype(np.intp)] = conf
        mat[31] = _ROW
        s += int(mat[-1].argmax()) + int(mat.max(axis=1).argmax())
        seen.append(s % 256)
        d = {"a": i, "b": s}
        s += len(seen) + d["a"]
    return s


class RefClock:
    """Laps of work in reference seconds; calibration time is in no lap."""

    def __init__(self):
        self.speeds: list[float] = []  # C_REF over each calibration
        self.scale = 1.0  # reference seconds per host second of the last lap
        self.raw = 0.0  # host seconds of the last lap
        self._cal = self.calibrate()
        self._t = time.perf_counter()

    def calibrate(self) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        return min(times)

    def lap(self) -> float:
        """Reference seconds since the previous lap."""
        dt = time.perf_counter() - self._t
        cal = self.calibrate()
        self.speeds.append(C_REF / cal)
        self.raw = dt
        self.scale = 2 * C_REF / (self._cal + cal)
        self._cal = cal
        self._t = time.perf_counter()
        return dt * self.scale
