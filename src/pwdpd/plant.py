"""Simulated nonlinear active-array transmitter.

The plant models L power-amplifier branches behind phase-only beamforming
weights, nearest-neighbor antenna coupling (a load-modulation stand-in),
over-the-air combining toward an aligned receiver, and the phase-aligned
observation combiner used for learning.

PA kinds:

  memoryless_poly   b(n) = sum_q c_q u(n)|u(n)|^(q-1)
  memory_poly       b(n) = sum_{q,m} c_{q,m} u(n-m)|u(n-m)|^(q-1)
  doherty_like      two memoryless branches blended across an amplitude
                    crossover, producing strongly local nonlinearity
  dual_input_lumped four-term dual-wave model whose coupled-wave terms are
                    driven by the branch response f_i = sum_l w_l lambda_il * mu_l

For the three simple kinds, the drive u is the incident wave w_i * a1 plus
the coupled neighbor wave scaled by coupling_strength and the steering-angle
factor; with coupling_strength = 0 the nonlinear response is exactly
steering-invariant. A smooth envelope limiter at saturation_level bounds the
drive to |u| <= saturation_level * (1 + 4 eps) (eps the float64 epsilon), and
hence the output, for every drive whose |u| / saturation_level is finite;
saturation_level = inf disables it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .signals import IqSignal

PA_KINDS = ("memoryless_poly", "memory_poly", "doherty_like", "dual_input_lumped")

# |x|/sat above which the limiter's (1 + r^4)^(1/4) is r to double precision
_LIMIT_FLAT = 2.0 ** 14


def _check_poly_table(table: dict) -> dict:
    out = {}
    for (order, tap), coef in table.items():
        if order % 2 == 0 or order < 1:
            raise ConfigError(f"PA polynomial orders must be odd, got {order}")
        if tap < 0:
            raise ConfigError("memory taps must be non-negative")
        out[(int(order), int(tap))] = complex(coef)
    return out


@dataclass(frozen=True)
class PaModel:
    """Behavioral PA model for one array element."""

    kind: str
    coefficients: dict
    saturation_level: float = math.inf

    def __post_init__(self):
        if self.kind not in PA_KINDS:
            raise ConfigError(f"unknown PA kind {self.kind!r}")
        if self.saturation_level <= 0:
            raise ConfigError("saturation_level must be positive")
        if self.kind in ("memoryless_poly", "memory_poly"):
            object.__setattr__(self, "coefficients", _check_poly_table(self.coefficients))
        elif self.kind == "doherty_like":
            c = dict(self.coefficients)
            c["main"] = _check_poly_table(c["main"])
            c["aux"] = _check_poly_table(c["aux"])
            c.setdefault("crossover", 0.5)
            c.setdefault("blend_width", 0.1)
            object.__setattr__(self, "coefficients", c)
        else:  # dual_input_lumped
            c = dict(self.coefficients)
            for key in ("alpha", "beta", "zeta"):
                c.setdefault(key, {})
            c.setdefault("beta0", {})
            object.__setattr__(self, "coefficients", c)

    def output_ceiling(self) -> float:
        """Worst-case |b| bound under the envelope limiter (simple kinds)."""
        sat = self.saturation_level
        if not math.isfinite(sat):
            raise ConfigError("output ceiling undefined without a finite saturation_level")

        def table_bound(table):
            return sum(abs(c) * sat ** q for (q, _), c in table.items())

        if self.kind in ("memoryless_poly", "memory_poly"):
            return table_bound(self.coefficients)
        if self.kind == "doherty_like":
            return max(table_bound(self.coefficients["main"]),
                       table_bound(self.coefficients["aux"]))
        raise ConfigError("output ceiling is only defined for the simple PA kinds")


def _soft_limit(x: np.ndarray, sat: float) -> np.ndarray:
    """Smooth envelope limiter x / (1 + r^4)^(1/4), r = |x|/sat (Rapp, knee 2).

    Wherever r is finite, |out| <= sat * (1 + 4 eps) (eps the float64
    epsilon) and, up to that rounding, |out| never decreases as |x| grows.
    Beyond r = _LIMIT_FLAT the fourth root is taken at _LIMIT_FLAT and scaled
    by r / _LIMIT_FLAT, which is exact to double precision there, so no power
    overflows.
    """
    if not math.isfinite(sat):
        return x
    r = np.abs(x) / sat
    r2 = np.square(np.minimum(r, _LIMIT_FLAT))
    return x * (1.0 / (np.sqrt(np.sqrt(1.0 + r2 * r2)) * np.maximum(r / _LIMIT_FLAT, 1.0)))


def _lagged(x: np.ndarray, m: int) -> np.ndarray:
    if m == 0:
        return x
    out = np.zeros_like(x)
    out[m:] = x[:-m]
    return out


def _causal_fir(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """sum_k taps[k] x(n-k) over the first x.size outputs: np.convolve(x, taps)[:x.size]."""
    n = x.size
    out = taps[0] * x
    for k in range(1, min(taps.size, n)):
        out[k:] += taps[k] * x[:n - k]
    return out


def _power(x: np.ndarray) -> np.ndarray:
    """Instantaneous power |x|^2 as re^2 + im^2."""
    env2 = np.square(x.real)
    env2 += np.square(x.imag)
    return env2


def _envelope_poly(env2: np.ndarray, coefs: dict):
    """sum_p coefs[p] env2^p by Horner's rule; the bare coefficient if p = 0 only."""
    top = max(coefs)
    if top == 0:
        return coefs[0]
    g = complex(coefs[top]) * env2
    for p in range(top - 1, 0, -1):
        g += coefs.get(p, 0.0)
        g *= env2
    g += coefs.get(0, 0.0)
    return g


def _poly_memory(u: np.ndarray, env2: np.ndarray, table: dict) -> np.ndarray:
    """sum_{q,m} c_{q,m} u(n-m)|u(n-m)|^(q-1) given env2 = |u|^2: per tap m,
    u(n-m) times one polynomial in env2(n-m)."""
    by_tap: dict[int, dict[int, complex]] = {}
    for (order, tap), coef in table.items():
        by_tap.setdefault(tap, {})[order // 2] = coef
    n = u.size
    out = np.zeros_like(u)
    for tap, coefs in by_tap.items():
        if tap < n:
            out[tap:] += u[:n - tap] * _envelope_poly(env2[:n - tap], coefs)
    return out


def _doherty(u: np.ndarray, coeffs: dict, sat: float) -> np.ndarray:
    env2 = _power(u)
    main = _poly_memory(u, env2, coeffs["main"])
    aux = _poly_memory(u, env2, coeffs["aux"])
    center = coeffs["crossover"] * (sat if math.isfinite(sat) else 1.0)
    width = coeffs["blend_width"] * (sat if math.isfinite(sat) else 1.0)
    blend = 0.5 * (1 + np.tanh((np.sqrt(env2) - center) / width))
    return (1 - blend) * main + blend * aux


@dataclass(frozen=True)
class ArrayPlant:
    """L-element transmit array with coupling and an aligned LOS channel.

    coupling holds per-pair FIR impulse responses (L x L x taps) whose
    diagonal is the identity pulse; off-diagonal entries are scaled by
    coupling_strength * (1 + angle_coupling_slope * |sin(steer angle)|) when
    the coupled drive is formed.
    """

    elements: tuple[PaModel, ...]
    weights: np.ndarray
    coupling: np.ndarray
    branch_filters: np.ndarray
    channel: np.ndarray
    coupling_strength: float = 0.0
    steer_angle_deg: float = 0.0
    angle_coupling_slope: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.complex128))
        object.__setattr__(self, "coupling", np.asarray(self.coupling, dtype=np.complex128))
        object.__setattr__(self, "branch_filters", np.asarray(self.branch_filters, dtype=np.complex128))
        object.__setattr__(self, "channel", np.asarray(self.channel, dtype=np.complex128))
        L = len(self.elements)
        if L < 1:
            raise ConfigError("plant needs at least one element")
        if self.weights.shape != (L,) or self.channel.shape != (L,):
            raise ConfigError("weights and channel must have one entry per element")
        if self.coupling.shape[:2] != (L, L):
            raise ConfigError("coupling must be L x L x taps")
        if self.branch_filters.shape[0] != L:
            raise ConfigError("branch_filters must have one row per element")
        ident = np.zeros(self.coupling.shape[2], dtype=np.complex128)
        ident[0] = 1.0
        for i in range(L):
            if not np.allclose(self.coupling[i, i], ident):
                raise ConfigError("coupling diagonal must be the identity pulse")
        if self.coupling_strength < 0:
            raise ConfigError("coupling_strength must be non-negative")

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def angle_factor(self) -> float:
        return 1.0 + self.angle_coupling_slope * abs(math.sin(math.radians(self.steer_angle_deg)))

    def _neighbor_fir(self, element: int) -> np.ndarray:
        """Composite FIR sum_{l != i} w_l lambda_il * mu_l of element i, unscaled."""
        taps = self.coupling.shape[2] + self.branch_filters.shape[1] - 1
        f = np.zeros(taps, dtype=np.complex128)
        for l in range(self.n_elements):
            if l != element:
                f += self.weights[l] * np.convolve(self.coupling[element, l],
                                                   self.branch_filters[l])
        return f

    def drive_signal(self, a1: np.ndarray, element: int) -> np.ndarray:
        """PA input of one element: incident wave w_i a1 plus the scaled coupled wave."""
        if self.coupling_strength == 0.0:
            return self.weights[element] * a1
        taps = self.coupling_strength * self.angle_factor * self._neighbor_fir(element)
        taps[0] += self.weights[element]
        return _causal_fir(a1, taps)

    def branch_response(self, element: int) -> np.ndarray:
        """f_i = sum_l w_l lambda_il * mu_l with the scaled off-diagonal coupling."""
        scale = self.coupling_strength * self.angle_factor
        own = np.convolve(self.coupling[element, element], self.branch_filters[element])
        return self.weights[element] * own + scale * self._neighbor_fir(element)

    def to_dict(self) -> dict:
        def c2l(arr):
            return [[float(v.real), float(v.imag)] for v in np.asarray(arr).ravel()]

        def table2list(table):
            return [[list(key), [coef.real, coef.imag]] for key, coef in sorted(table.items())]

        elements = []
        for pa in self.elements:
            if pa.kind in ("memoryless_poly", "memory_poly"):
                coeffs = {"table": table2list(pa.coefficients)}
            elif pa.kind == "doherty_like":
                coeffs = {
                    "main": table2list(pa.coefficients["main"]),
                    "aux": table2list(pa.coefficients["aux"]),
                    "crossover": pa.coefficients["crossover"],
                    "blend_width": pa.coefficients["blend_width"],
                }
            else:
                coeffs = {
                    "alpha": table2list(pa.coefficients["alpha"]),
                    "beta0": [[[m], [c.real, c.imag]] for m, c in sorted(pa.coefficients["beta0"].items())],
                    "beta": table2list(pa.coefficients["beta"]),
                    "zeta": table2list(pa.coefficients["zeta"]),
                }
            elements.append({
                "kind": pa.kind,
                "saturation_level": pa.saturation_level if math.isfinite(pa.saturation_level) else None,
                "coefficients": coeffs,
            })
        return {
            "elements": elements,
            "weights": c2l(self.weights),
            "coupling": {"shape": list(self.coupling.shape), "values": c2l(self.coupling)},
            "branch_filters": {"shape": list(self.branch_filters.shape), "values": c2l(self.branch_filters)},
            "channel": c2l(self.channel),
            "coupling_strength": self.coupling_strength,
            "steer_angle_deg": self.steer_angle_deg,
            "angle_coupling_slope": self.angle_coupling_slope,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ArrayPlant":
        def l2c(pairs, shape=None):
            arr = np.asarray([complex(re, im) for re, im in pairs])
            return arr.reshape(shape) if shape else arr

        def list2table(entries):
            return {tuple(key): complex(c[0], c[1]) for key, c in entries}

        elements = []
        for e in d["elements"]:
            sat = e.get("saturation_level")
            sat = math.inf if sat is None else float(sat)
            coeffs = e["coefficients"]
            if e["kind"] in ("memoryless_poly", "memory_poly"):
                table = list2table(coeffs["table"])
            elif e["kind"] == "doherty_like":
                table = {
                    "main": list2table(coeffs["main"]),
                    "aux": list2table(coeffs["aux"]),
                    "crossover": coeffs["crossover"],
                    "blend_width": coeffs["blend_width"],
                }
            else:
                table = {
                    "alpha": list2table(coeffs["alpha"]),
                    "beta0": {key[0]: complex(c[0], c[1]) for key, c in coeffs["beta0"]},
                    "beta": list2table(coeffs["beta"]),
                    "zeta": list2table(coeffs["zeta"]),
                }
            elements.append(PaModel(e["kind"], table, sat))
        return cls(
            elements=tuple(elements),
            weights=l2c(d["weights"]),
            coupling=l2c(d["coupling"]["values"], tuple(d["coupling"]["shape"])),
            branch_filters=l2c(d["branch_filters"]["values"], tuple(d["branch_filters"]["shape"])),
            channel=l2c(d["channel"]),
            coupling_strength=d.get("coupling_strength", 0.0),
            steer_angle_deg=d.get("steer_angle_deg", 0.0),
            angle_coupling_slope=d.get("angle_coupling_slope", 1.0),
        )


def save_plant(plant: ArrayPlant, path: str | Path) -> None:
    Path(path).write_text(json.dumps(plant.to_dict(), indent=2, sort_keys=True) + "\n")


def load_plant(path: str | Path) -> ArrayPlant:
    """Read a plant written by save_plant; ConfigError when a field is missing or ill-typed."""
    d = json.loads(Path(path).read_text())
    try:
        return ArrayPlant.from_dict(d)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"malformed plant file {path}: {exc!r}") from None


def _dual_input_forward(pa: PaModel, plant: ArrayPlant, element: int,
                        a1: np.ndarray) -> np.ndarray:
    a = _soft_limit(a1, pa.saturation_level)
    w = plant.weights[element]
    f = plant.branch_response(element)
    waves = {"a": a, "f": _causal_fir(a, f)}
    cache = {}

    def la(name, m):
        """The wave delayed by m samples, zero-filled."""
        if (name, m) not in cache:
            cache[(name, m)] = _lagged(waves[name], m)
        return cache[(name, m)]

    def env(m, p):
        """|a(n-m)|^(2p) as a product of the lower powers; 1 for p <= 0."""
        if p <= 0:
            return 1.0
        if ("e", m, p) not in cache:
            if p == 1:
                cache[("e", m, p)] = _power(la("a", m))
            else:
                cache[("e", m, p)] = env(m, p - 1) * env(m, 1)
        return cache[("e", m, p)]

    out = np.zeros_like(a)
    for (order, m1), coef in pa.coefficients["alpha"].items():
        p = (order - 1) // 2
        out += coef * (w * abs(w) ** (2 * p)) * (la("a", m1) * env(m1, p))
    for m2, coef in pa.coefficients["beta0"].items():
        out += coef * la("f", m2)
    for (order, m3, m4), coef in pa.coefficients["beta"].items():
        p = (order - 1) // 2
        out += coef * abs(w) ** (2 * p) * la("f", m3) * env(m4, p)
    for (order, m5, m6), coef in pa.coefficients["zeta"].items():
        p = (order - 1) // 2
        # conjugate-wave term; |w| exponent p-1 as modeled
        term = np.conj(la("f", m5)) * la("a", m6) ** 2 * env(m6, p - 1)
        out += coef * (w ** 2 * abs(w) ** (p - 1)) * term
    return out


def _pa_outputs(plant: ArrayPlant, a1: np.ndarray) -> list[np.ndarray]:
    """Output wave of each PA branch; the one dispatch on PA kind."""
    outs = []
    for i, pa in enumerate(plant.elements):
        if pa.kind == "dual_input_lumped":
            outs.append(_dual_input_forward(pa, plant, i, a1))
            continue
        u = _soft_limit(plant.drive_signal(a1, i), pa.saturation_level)
        if pa.kind == "doherty_like":
            outs.append(_doherty(u, pa.coefficients, pa.saturation_level))
        else:
            outs.append(_poly_memory(u, _power(u), pa.coefficients))
    return outs


def array_forward(plant: ArrayPlant, a1: IqSignal) -> tuple[list[IqSignal], IqSignal]:
    """All PA outputs plus the OTA-combined signal sum_i h_i b_i."""
    outs = _pa_outputs(plant, a1.samples)
    per_element = [a1.with_samples(b) for b in outs]
    combined = np.zeros(len(a1), dtype=np.complex128)
    for i, sig in enumerate(per_element):
        combined += plant.channel[i] * sig.samples
    return per_element, a1.with_samples(combined)


def observation_receive(plant: ArrayPlant, per_element: list[IqSignal],
                        noise_floor_dbc: float | None = None,
                        rng: np.random.Generator | None = None) -> IqSignal:
    """Phase-aligned combining of the PA outputs, optionally with receiver noise.

    Noise is circular Gaussian at noise_floor_dbc relative to the combined
    signal power.
    """
    if len(per_element) != plant.n_elements:
        raise ConfigError("per_element must hold one signal per element")
    z = np.zeros(len(per_element[0]), dtype=np.complex128)
    for i, sig in enumerate(per_element):
        z += np.exp(-1j * np.angle(plant.weights[i])) * sig.samples
    if noise_floor_dbc is not None:
        rng = rng or np.random.default_rng(0)
        p_noise = np.mean(np.abs(z) ** 2) * 10 ** (noise_floor_dbc / 10)
        noise = rng.standard_normal(z.size) + 1j * rng.standard_normal(z.size)
        z = z + np.sqrt(p_noise / 2) * noise
    return per_element[0].with_samples(z)


def steer(plant: ArrayPlant, angle_deg: float) -> ArrayPlant:
    """Re-point the array: phase-only weights for a half-wavelength ULA, with
    the LOS channel re-aligned so the main beam tracks the receiver."""
    if abs(angle_deg) > 90:
        raise ConfigError("steering angle must satisfy |angle| <= 90 degrees")
    idx = np.arange(plant.n_elements)
    weights = np.exp(-1j * np.pi * idx * math.sin(math.radians(angle_deg)))
    channel = np.conj(weights)
    return replace(plant, weights=weights, channel=channel, steer_angle_deg=angle_deg)
