"""Simulated nonlinear active-array transmitter.

The plant models L power-amplifier branches behind phase-only beamforming
weights and nearest-neighbor antenna coupling (a load-modulation stand-in).
observation_receive is the one main-beam combination of the element outputs:
the phase-aligned sum an over-the-air receiver in the steered direction sees,
and the observation the learners read.

PA kinds:

  memory_poly   b(n) = sum_{q,m} c_{q,m} u(n-m)|u(n-m)|^(q-1); a memoryless
                PA is a table whose every tap m is 0
  doherty_like  two memory-polynomial branches blended across an amplitude
                crossover, producing strongly local nonlinearity

The drive u is the incident wave w_i * a1 (w_i the steering_weights phase of
the steering angle, the one stored beam state) plus the coupled neighbor wave
scaled by coupling_strength and the steering-angle factor; with
coupling_strength = 0 the nonlinear response is exactly steering-invariant.
A smooth envelope limiter at saturation_level bounds the drive to
|u| <= saturation_level * (1 + 4 eps) (eps the float64 epsilon), and hence
the output, for every drive whose |u| / saturation_level is finite;
saturation_level = inf disables it.

Every kind's terms come from one per-tap evaluator, _poly_memory. A
coefficient table is a dict keyed by (order, tap); plant JSON stores it as
sorted [[order, tap], [re, im]] rows, a memory_poly's one table as "table".
Every complex number in a plant file is an [re, im] pair of finite JSON
numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import (ConfigError, check_fields, check_keys, is_int, is_number, read_json,
                     read_pair, write_json)
from .signals import IqSignal

# the named coefficient tables and scalar settings of each PA kind, with their
# defaults (None: required)
_KIND_FIELDS = {"memory_poly": {"table": None},
                "doherty_like": {"main": None, "aux": None, "crossover": 0.5, "blend_width": 0.1}}

# the fields that are coefficient tables, each keyed by (order, tap)
_TABLES = ("table", "main", "aux")

# each PA setting's test and what it asks for: every kind's saturation_level
# and the scalar settings of _KIND_FIELDS
_SETTINGS = {"saturation_level": (lambda v: v == math.inf or is_number(v) and v > 0,
                                  "a number > 0 (inf: no limiter)"),
             "crossover": (lambda v: is_number(v) and v >= 0, "a finite number >= 0"),
             "blend_width": (lambda v: is_number(v) and v > 0, "a finite number > 0")}

# each ArrayPlant scalar's test and what it asks for
_PLANT_SCALARS = {"coupling_strength": (lambda v: is_number(v) and v >= 0, "a finite number >= 0"),
                  "steer_angle_deg": (lambda v: is_number(v) and abs(v) <= 90,
                                      "a finite number of degrees in [-90, 90]"),
                  "angle_coupling_slope": (is_number, "a finite number")}

# the fields of a plant file (the ArrayPlant scalars included), of each of its
# elements and of its coupling and branch_filters objects, each with its test
# and what it asks for
_OBJECT = (lambda v: isinstance(v, dict), "a JSON object")
_PLANT_FIELDS = {
    "elements": (lambda v: isinstance(v, list) and len(v) > 0
                 and all(isinstance(e, dict) for e in v), "a non-empty list of JSON objects"),
    "coupling": _OBJECT, "branch_filters": _OBJECT, **_PLANT_SCALARS,
}
_ELEMENT_FIELDS = {"kind": (lambda v: isinstance(v, str), "a string"), "coefficients": _OBJECT}
_MATRIX_FIELDS = {"shape": (lambda v: isinstance(v, list) and all(is_int(n) and n >= 1 for n in v),
                             "a list of integers >= 1"),
                   "values": (lambda v: isinstance(v, list), "a list of [re, im] pairs")}

# |x|/sat above which the limiter's (1 + r^4)^(1/4) is r to double precision
_LIMIT_FLAT = 2.0 ** 14


def _check_table(name: str, table) -> dict:
    """table with complex values; ConfigError unless it has a row and each key is
    two ints (bools refused), an odd order >= 1 and a tap >= 0."""
    if not (isinstance(table, dict) and table):
        raise ConfigError(f"coefficient table {name!r} must be a non-empty dict, got {table!r}")
    out = {}
    for key, coef in table.items():
        if (not isinstance(key, tuple) or len(key) != 2 or not all(map(is_int, key))
                or key[0] < 1 or key[0] % 2 == 0 or key[1] < 0):
            raise ConfigError(f"coefficient table {name!r} keys are two integers, an odd "
                              f"order >= 1 and a tap >= 0, got {key!r}")
        out[key] = complex(coef)
    return out


@dataclass(frozen=True)
class PaModel:
    """Behavioral PA model for one array element.

    coefficients holds the kind's named tables and settings (_KIND_FIELDS); a
    memory_poly may be given its one table bare, and stores it as "table".
    """

    kind: str
    coefficients: dict
    saturation_level: float = math.inf

    def __post_init__(self):
        if self.kind not in _KIND_FIELDS:
            raise ConfigError(f"unknown PA kind {self.kind!r}; have {sorted(_KIND_FIELDS)}")
        takes, given = _KIND_FIELDS[self.kind], self.coefficients
        if "table" in takes and "table" not in given:
            given = {"table": given}
        if not isinstance(given, dict) or not set(given) <= set(takes):
            raise ConfigError(f"{self.kind} coefficients take {sorted(takes)}, got {given!r}")
        # a missing required table is None; a NaN saturation_level would switch
        # the limiter off
        c = {name: _check_table(name, given.get(name)) if name in _TABLES
             else given.get(name, default) for name, default in takes.items()}
        settings = {"saturation_level": self.saturation_level, **c}
        check_fields(settings, {name: _SETTINGS[name] for name in settings if name in _SETTINGS},
                     f"{self.kind} PA")
        object.__setattr__(self, "coefficients", c)

    def output_ceiling(self) -> float:
        """Worst-case |b| bound under the envelope limiter."""
        sat = self.saturation_level
        if not math.isfinite(sat):
            raise ConfigError("output ceiling undefined without a finite saturation_level")
        tables = [t for name, t in self.coefficients.items() if name in _TABLES]
        return max(sum(abs(c) * sat ** q for (q, _), c in t.items()) for t in tables)


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
    """sum_{q,m} c_{q,m} u(n-m)|u(n-m)|^(q-1) given env2 = |u|^2: per tap m, in
    the order the taps first appear in table, u(n-m) times one polynomial in
    env2(n-m), zero before n = m."""
    per_tap: dict[int, dict[int, complex]] = {}
    for (order, tap), coef in table.items():
        per_tap.setdefault(tap, {})[order // 2] = coef
    n = u.size
    out = np.zeros_like(u)
    for m, coefs in per_tap.items():
        if m < n:
            # one expression, so numpy may write the product into the
            # polynomial's temporary: operand order fixes the last bit
            out[m:] += u[:n - m] * _envelope_poly(env2[:n - m], coefs)
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
    """L-element transmit array with coupling.

    coupling holds per-pair FIR impulse responses (L x L x taps); entry
    [i, l] couples element l into element i, scaled by coupling_strength *
    (1 + angle_coupling_slope * |sin(steer angle)|) when the coupled drive is
    formed. The diagonal [i, i] is not read.
    """

    elements: tuple[PaModel, ...]
    coupling: np.ndarray
    branch_filters: np.ndarray
    coupling_strength: float = 0.0
    steer_angle_deg: float = 0.0
    angle_coupling_slope: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        for name in ("coupling", "branch_filters"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.complex128))
        L = len(self.elements)
        if L < 1:
            raise ConfigError("plant needs at least one element")
        check_fields({name: getattr(self, name).shape for name in ("coupling", "branch_filters")}, {
            "coupling": (lambda s: len(s) == 3 and s[:2] == (L, L), f"of shape ({L}, {L}, taps)"),
            "branch_filters": (lambda s: len(s) == 2 and s[0] == L, f"of shape ({L}, taps)"),
        }, "plant")
        check_fields(vars(self), _PLANT_SCALARS, "plant")

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def weights(self) -> np.ndarray:
        """Beamforming weights, derived from steer_angle_deg by steering_weights."""
        return steering_weights(self.n_elements, self.steer_angle_deg)

    @property
    def angle_factor(self) -> float:
        return 1.0 + self.angle_coupling_slope * abs(math.sin(math.radians(self.steer_angle_deg)))

    def drive_signal(self, a1: np.ndarray, element: int) -> np.ndarray:
        """PA input of element i: incident wave w_i a1 plus the coupled wave, a1
        through one composite FIR sum_{l != i} w_l lambda_il * mu_l scaled as
        the class docstring says."""
        w = self.weights
        if self.coupling_strength == 0.0:
            return w[element] * a1
        f = np.zeros(self.coupling.shape[2] + self.branch_filters.shape[1] - 1,
                     dtype=np.complex128)
        for l in range(self.n_elements):
            if l != element:
                f += w[l] * np.convolve(self.coupling[element, l], self.branch_filters[l])
        taps = self.coupling_strength * self.angle_factor * f
        taps[0] += w[element]
        return _causal_fir(a1, taps)

    def to_dict(self) -> dict:
        def c2l(arr):
            return [[float(v.real), float(v.imag)] for v in np.asarray(arr).ravel()]

        return {
            "elements": [{
                "kind": pa.kind,
                "saturation_level": pa.saturation_level if math.isfinite(pa.saturation_level) else None,
                "coefficients": _encode_coefficients(pa.coefficients),
            } for pa in self.elements],
            "coupling": {"shape": list(self.coupling.shape), "values": c2l(self.coupling)},
            "branch_filters": {"shape": list(self.branch_filters.shape), "values": c2l(self.branch_filters)},
            "coupling_strength": self.coupling_strength,
            "steer_angle_deg": self.steer_angle_deg,
            "angle_coupling_slope": self.angle_coupling_slope,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ArrayPlant":
        """Inverse of to_dict: a missing or ill-typed field, and a key to_dict
        does not write, at the top level, in an element or in the coupling and
        branch_filters objects, are refused by name."""
        check_keys(check_fields(d, _PLANT_FIELDS, "plant"), [f.name for f in fields(cls)], "plant")
        for i, e in enumerate(d["elements"]):
            check_keys(check_fields(e, _ELEMENT_FIELDS, f"plant element {i}"),
                       [f.name for f in fields(PaModel)], f"plant element {i}")
        for name in ("coupling", "branch_filters"):
            check_keys(check_fields(d[name], _MATRIX_FIELDS, f"plant field {name!r}"),
                       _MATRIX_FIELDS, f"plant field {name!r}")

        def l2c(name):
            shape = d[name]["shape"]
            arr = np.asarray([read_pair(v, f"plant field {name!r}") for v in d[name]["values"]])
            if math.prod(shape) != arr.size:
                raise ConfigError(f"plant field {name!r} shape must have product {arr.size}, "
                                  f"its value count; got {shape!r}")
            return arr.reshape(shape)

        def sat(level):
            return math.inf if level is None else level

        return cls(
            elements=tuple(PaModel(e["kind"], _decode_coefficients(e["coefficients"]),
                                   sat(e.get("saturation_level"))) for e in d["elements"]),
            coupling=l2c("coupling"), branch_filters=l2c("branch_filters"),
            **{name: d[name] for name in _PLANT_SCALARS},
        )


def _encode_coefficients(named: dict) -> dict:
    """Plant-JSON form of named coefficients: tables as sorted [[key...], [re, im]] rows."""
    return {name: [[list(key), [coef.real, coef.imag]] for key, coef in sorted(value.items())]
            if isinstance(value, dict) else value for name, value in named.items()}


def _decode_coefficients(named: dict) -> dict:
    """Inverse of _encode_coefficients; a row that is not [[ints...], [re, im]]
    (_check_table checks its key) and a key listed twice are refused."""
    out = dict(named)
    for name, rows in named.items():
        if isinstance(rows, list):
            what = f"coefficient table {name!r}"
            for row in rows:
                if not (isinstance(row, list) and len(row) == 2 and isinstance(row[0], list)
                        and all(map(is_int, row[0]))):
                    raise ConfigError(f"{what} rows are [[order, tap], [re, im]], got {row!r}")
            out[name] = {tuple(key): read_pair(coef, what) for key, coef in rows}
            if len(out[name]) != len(rows):
                raise ConfigError(f"{what} lists a key twice")
    return out


def save_plant(plant: ArrayPlant, path: str | Path) -> None:
    write_json(path, plant.to_dict())


def load_plant(path: str | Path) -> ArrayPlant:
    """Read a plant written by save_plant; ConfigError naming the file when a
    field is missing or ill-typed."""
    return read_json(path, ArrayPlant.from_dict)


def array_forward(plant: ArrayPlant, a1: IqSignal) -> list[IqSignal]:
    """Output wave of each PA branch, by the one dispatch on PA kind;
    observation_receive combines them."""
    outs = []
    for i, pa in enumerate(plant.elements):
        u = _soft_limit(plant.drive_signal(a1.samples, i), pa.saturation_level)
        if pa.kind == "doherty_like":
            outs.append(_doherty(u, pa.coefficients, pa.saturation_level))
        else:
            outs.append(_poly_memory(u, _power(u), pa.coefficients["table"]))
    return [a1.with_samples(b) for b in outs]


def observation_receive(plant: ArrayPlant, per_element: list[IqSignal],
                        noise_floor_dbc: float | None = None,
                        rng: np.random.Generator | None = None) -> IqSignal:
    """Phase-aligned combining of the PA outputs, optionally with receiver noise.

    This is the main beam, as a receiver in the steered direction sees it.
    Noise is circular Gaussian at noise_floor_dbc relative to the combined
    signal power, drawn from rng, which a noise floor requires.
    """
    if len(per_element) != plant.n_elements:
        raise ConfigError("per_element must hold one signal per element")
    if noise_floor_dbc is not None and rng is None:
        raise ConfigError("a noise floor needs the rng its noise is drawn from")
    z = np.zeros(len(per_element[0]), dtype=np.complex128)
    w = plant.weights
    for i, sig in enumerate(per_element):
        z += np.exp(-1j * np.angle(w[i])) * sig.samples
    if noise_floor_dbc is not None:
        p_noise = np.mean(np.abs(z) ** 2) * 10 ** (noise_floor_dbc / 10)
        noise = rng.standard_normal(z.size) + 1j * rng.standard_normal(z.size)
        z = z + np.sqrt(p_noise / 2) * noise
    return per_element[0].with_samples(z)


def steering_weights(n_elements: int, angle_deg: float) -> np.ndarray:
    """Half-wavelength ULA weights exp(-j pi i sin(angle)): the main beam points at angle_deg."""
    return np.exp(-1j * np.pi * np.arange(n_elements) * math.sin(math.radians(angle_deg)))


def steer(plant: ArrayPlant, angle_deg: float) -> ArrayPlant:
    """Re-point the array at angle_deg, |angle_deg| <= 90."""
    return replace(plant, steer_angle_deg=angle_deg)
