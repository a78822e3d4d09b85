"""Reference kernel: how fast the machine runs at the moment.

    python3 perfbench/reference.py

Times PASSES passes, after one warm-up pass, of a fixed numpy mix like a
bundle's own: a forward and inverse FFT of a length with a large prime
factor (7 * 3793, a CFR frame length) with envelope clipping, a complex Gram
matrix and a cubic basis column (elementwise), and a complex QR on the
BLAS/LAPACK threads, as in the least-squares solves. It runs no pwdpd code,
so no change to the package moves it. The caller runs it in a process of
its own just before and just after each bundle, so that the bundle's peak
memory is its own. The last line of standard output is a JSON list of the
pass times in seconds.
"""

from __future__ import annotations

import json
import time

import numpy as np

PASSES = 5


def one_pass(x, band, a, m) -> float:
    start = time.perf_counter()
    for _ in range(2):
        y = np.fft.ifft(np.fft.fft(x) * band)
        env = np.abs(y)
        over = env > 1.5
        y[over] *= 1.5 / env[over]
        a.conj().T @ a
        a * np.abs(a) ** 2
    np.linalg.qr(m)
    return time.perf_counter() - start


def main() -> None:
    rng = np.random.default_rng(0)
    x = rng.standard_normal(26551) + 1j * rng.standard_normal(26551)
    band = np.abs(np.fft.fftfreq(x.size)) <= 0.4
    a = rng.standard_normal((20000, 24)) + 1j * rng.standard_normal((20000, 24))
    m = rng.standard_normal((4000, 96)) + 1j * rng.standard_normal((4000, 96))
    one_pass(x, band, a, m)
    print(json.dumps([one_pass(x, band, a, m) for _ in range(PASSES)]))


if __name__ == "__main__":
    main()
