"""Static deployment scenarios: sensor/jammer placement and channel parameters.

A scenario fixes everything that does not change from one channel use to the
next: sensor positions, large-scale gains, Rician factors, angles seen by the
receive array, sensor operating points and -- optionally -- an interfering
subspace transmitter.  Fast fading and noise are drawn per trial by the
signal model on top of a scenario.  Sensors and jammer components share one
Rician link model (``_rician_links``) and one placement draw (``_draw_links``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

# Rician-factor presets, as [low, high] bounds in dB for the per-sensor draw.
PRESETS = {
    "los": (10.0, 20.0),
    "intermediate": (-10.0, 10.0),
    "nlos": (-20.0, -10.0),
}

# Jammer presets reuse the same interval convention.
JAMMER_PRESETS = {
    "los-jam": (10.0, 20.0),
    "weak-los-jam": (-10.0, 10.0),
}

# The deployment recipe every preset shares: positions uniform in area over an
# annulus around the receiver (radii in metres), power-law path loss
# referenced to R_MIN, and log-normal shadowing given as (mean, std) of
# 10*log10(xi) in dB -- the jammer's mean is the higher one.  NOISE_POWER is
# the per-antenna noise variance (linear) a drawn scenario starts with;
# sweeps override it.
R_MIN = 100.0
R_MAX = 1000.0
PATH_LOSS_EXPONENT = 2.0
SENSOR_SHADOW_DB = (15.0, 2.0)
JAMMER_SHADOW_DB = (25.0, 2.0)
NOISE_POWER = 1.0

_RANK_RTOL = 1e-8  # smallest/largest singular value ratio for "full rank"


def steering_vector(theta, n: int) -> np.ndarray:
    """Receive-array response for a source at angle ``theta``.

    Uniform linear array with half-wavelength spacing; entry m is
    exp(j*pi*m*cos(theta)) for m = 0..n-1; one column per angle of an array.
    """
    if n < 1:
        raise ValueError(f"array size must be >= 1, got {n}")
    m = np.arange(n).reshape((n,) + (1,) * np.ndim(theta))
    return np.exp(1j * np.pi * m * np.cos(theta))


def db_to_lin(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def lin_to_db(x):
    return 10.0 * np.log10(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class SensorParams:
    """Per-sensor static parameters.

    beta is the large-scale channel gain (linear), kappa the Rician factor
    (linear), theta the bearing seen by the array in [0, pi], and (pd, pf)
    the sensor's local detection/false-alarm probabilities.
    """

    position: tuple[float, float]
    beta: float
    kappa: float
    theta: float
    pd: float
    pf: float

    def __post_init__(self):
        if not np.all(np.isfinite([*self.position, self.beta, self.kappa, self.theta,
                                   self.pd, self.pf])):
            raise ValueError(f"sensor parameters must be finite, got {self}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")
        if not (0.0 <= self.pf <= self.pd <= 1.0):
            raise ValueError(f"need 0 <= pf <= pd <= 1, got pf={self.pf} pd={self.pd}")


@dataclass(frozen=True)
class DeploymentConfig:
    """What varies between drawn deployments; the recipe itself is fixed.

    Rician factors draw kappa uniformly in dB inside ``rician_db``; every
    sensor gets the operating point (pd, pf).  Placement, path loss,
    shadowing and the starting noise power are the module constants above.
    """

    k_sensors: int = 14
    n_antennas: int = 6
    rician_db: tuple[float, float] = (10.0, 20.0)
    pd: float = 0.5
    pf: float = 0.05
    jammer_rank: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.k_sensors < 1:
            raise ValueError("k_sensors must be >= 1")
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be >= 1")
        if not (0.0 <= self.pf <= self.pd <= 1.0):
            raise ValueError(f"need 0 <= pf <= pd <= 1, got pf={self.pf} pd={self.pd}")
        if self.rician_db[0] > self.rician_db[1]:
            raise ValueError("rician_db interval reversed")
        if self.jammer_rank < 1:
            raise ValueError("jammer_rank must be >= 1")


def preset_config(preset: str, **overrides) -> DeploymentConfig:
    """DeploymentConfig with the Rician interval of a named preset."""
    try:
        interval = PRESETS[preset]
    except KeyError:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}") from None
    overrides.setdefault("rician_db", interval)
    return DeploymentConfig(**overrides)


def _lock(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _rician_links(theta, beta, kappa, n: int):
    """LOS fraction b = sqrt(kappa/(1+kappa)), scattered power nu = beta/(1+kappa)
    and LOS columns a(theta) sqrt(beta) b of Rician links to an n-antenna array."""
    b = np.sqrt(kappa / (1.0 + kappa))
    nu = beta * (1.0 - kappa / (1.0 + kappa))
    return b, nu, steering_vector(theta, n) * (np.sqrt(beta) * b)


@dataclass(frozen=True, eq=False)
class WsnScenario:
    """A realized sensor deployment plus receiver geometry/noise.

    Derived arrays (mean channel matrix, per-sensor vectors, ...) are computed
    once at construction and are read-only.  ``with_()`` re-derives them for
    a different antenna count or noise power while keeping the per-sensor
    parameters frozen -- that is how a sweep reuses one deployment across a
    grid.
    """

    sensors: tuple[SensorParams, ...]
    n_antennas: int
    noise_power: float
    # derived, filled in __post_init__
    beta: np.ndarray = field(init=False, repr=False)
    kappa: np.ndarray = field(init=False, repr=False)
    theta: np.ndarray = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)
    nu: np.ndarray = field(init=False, repr=False)
    pd: np.ndarray = field(init=False, repr=False)
    pf: np.ndarray = field(init=False, repr=False)
    a_tilde: np.ndarray = field(init=False, repr=False)
    mu_bar: np.ndarray = field(init=False, repr=False)
    nu_bar: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be >= 1")
        if not (np.isfinite(self.noise_power) and self.noise_power > 0):
            raise ValueError(f"noise_power must be finite and positive, got {self.noise_power}")
        if not self.sensors:
            raise ValueError("need at least one sensor")
        sens = tuple(self.sensors)
        object.__setattr__(self, "sensors", sens)
        set_ = object.__setattr__
        set_(self, "beta", _lock(np.array([s.beta for s in sens])))
        set_(self, "kappa", _lock(np.array([s.kappa for s in sens])))
        set_(self, "theta", _lock(np.array([s.theta for s in sens])))
        set_(self, "pd", _lock(np.array([s.pd for s in sens])))
        set_(self, "pf", _lock(np.array([s.pf for s in sens])))
        links = _rician_links(self.theta, self.beta, self.kappa, self.n_antennas)
        for name, value in zip(("b", "nu", "a_tilde"), links):  # a_tilde: mean channel
            set_(self, name, _lock(value))
        set_(self, "mu_bar", _lock(self.a_tilde.mean(axis=1)))
        set_(self, "nu_bar", float(self.nu.mean()))

    @property
    def k_sensors(self) -> int:
        return len(self.sensors)

    def rho(self, h: int) -> np.ndarray:
        """Vector of marginal transmit probabilities under hypothesis h."""
        return self.pd if h else self.pf

    def with_(self, n_antennas: int | None = None, noise_power: float | None = None) -> "WsnScenario":
        return WsnScenario(
            sensors=self.sensors,
            n_antennas=self.n_antennas if n_antennas is None else n_antennas,
            noise_power=self.noise_power if noise_power is None else noise_power,
        )


@dataclass(frozen=True, eq=False)
class JammerScenario:
    """A rank-r subspace interferer as seen by the receive array.

    Each component reaches the array over a sensor's Rician link: ``a_j``
    holds the LOS columns and ``nu`` the scattered powers, which add sum(nu)
    to the noise variance since symbols have unit modulus.  The SVD basis
    and the projector onto the interference-free subspace are precomputed
    because every interference-aware rule needs them.
    """

    phi: np.ndarray
    beta: np.ndarray
    kappa: np.ndarray
    n_antennas: int
    positions: np.ndarray | None = None
    # derived
    b: np.ndarray = field(init=False, repr=False)
    nu: np.ndarray = field(init=False, repr=False)
    a_j: np.ndarray = field(init=False, repr=False)
    u_j: np.ndarray = field(init=False, repr=False)
    p_perp: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        set_ = object.__setattr__
        phi = np.asarray(self.phi, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        kappa = np.asarray(self.kappa, dtype=float)
        if phi.ndim != 1 or beta.shape != phi.shape or kappa.shape != phi.shape:
            raise ValueError("phi, beta, kappa must be 1-d arrays of equal length")
        positions = () if self.positions is None else np.asarray(self.positions, dtype=float)
        if not (np.all(np.isfinite([phi, beta, kappa])) and np.all(np.isfinite(positions))):
            raise ValueError("jammer phi, beta, kappa and positions must be finite")
        if np.any(beta <= 0) or np.any(kappa < 0):
            raise ValueError("jammer gains must be positive and kappa nonnegative")
        r = phi.size
        n = self.n_antennas
        if not (1 <= r < n):
            raise ValueError(f"jammer rank must satisfy 1 <= r < N, got r={r}, N={n}")
        set_(self, "phi", _lock(phi))
        set_(self, "beta", _lock(beta))
        set_(self, "kappa", _lock(kappa))
        for name, value in zip(("b", "nu", "a_j"), _rician_links(phi, beta, kappa, n)):
            set_(self, name, _lock(value))
        u, s, _ = np.linalg.svd(self.a_j, full_matrices=True)
        if s[-1] <= _RANK_RTOL * s[0]:
            raise ValueError("jammer mixing matrix is (numerically) rank deficient")
        set_(self, "u_j", _lock(u))
        set_(self, "p_perp", _lock(u[:, r:] @ u[:, r:].conj().T))
        if self.positions is not None:
            set_(self, "positions", _lock(positions))

    @property
    def rank(self) -> int:
        return self.phi.size

    def los(self, psi) -> np.ndarray:
        """LOS interference (T, N) of (T, r) symbols, scaled by b sqrt(beta) on
        top of the columns of ``a_j``, which carry b sqrt(beta) already."""
        return (psi * (self.b * np.sqrt(self.beta))) @ self.a_j.T

    def with_(self, n_antennas: int) -> "JammerScenario":
        return JammerScenario(
            phi=self.phi, beta=self.beta, kappa=self.kappa,
            n_antennas=n_antennas, positions=self.positions,
        )


def _draw_links(rng: np.random.Generator, n: int, shadow_db, rician_db):
    """Positions (n, 2), gains, Rician factors and bearings of n transmitters.

    Placement and path loss follow the recipe constants, ``shadow_db`` is
    (mean, std) in dB, and Rician factors are uniform in dB in ``rician_db``.
    The bearing is the planar angle to the array axis, in [0, pi]: a linear
    array cannot tell mirror-image directions apart.
    """
    radii = np.sqrt(rng.uniform(R_MIN ** 2, R_MAX ** 2, size=n))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    px, py = radii * np.cos(angles), radii * np.sin(angles)
    xi = db_to_lin(rng.normal(shadow_db[0], shadow_db[1], size=n))
    beta = xi * (R_MIN / radii) ** PATH_LOSS_EXPONENT
    kappa = db_to_lin(rng.uniform(rician_db[0], rician_db[1], size=n))
    return np.stack([px, py], axis=1), beta, kappa, np.arccos(px / radii)


def generate_wsn(config: DeploymentConfig, rng: np.random.Generator) -> WsnScenario:
    """Draw a sensor deployment; every sensor gets the configured (pd, pf)."""
    pos, beta, kappa, theta = _draw_links(rng, config.k_sensors, SENSOR_SHADOW_DB,
                                          config.rician_db)
    sensors = tuple(
        SensorParams(position=(float(pos[i, 0]), float(pos[i, 1])), beta=float(beta[i]),
                     kappa=float(kappa[i]), theta=float(theta[i]),
                     pd=config.pd, pf=config.pf)
        for i in range(config.k_sensors)
    )
    return WsnScenario(sensors=sensors, n_antennas=config.n_antennas,
                       noise_power=NOISE_POWER)


def generate_jammer(config: DeploymentConfig, rng: np.random.Generator,
                    preset: str) -> JammerScenario:
    """Draw a rank-r jammer: r links with the (stronger) jammer shadowing and
    the Rician interval of JAMMER_PRESETS[preset]."""
    try:
        interval = JAMMER_PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown jammer preset {preset!r}; choose from {sorted(JAMMER_PRESETS)}") from None
    r = config.jammer_rank
    if r >= config.n_antennas:
        raise ValueError(
            f"jammer rank {r} must be smaller than the antenna count {config.n_antennas}")
    pos, beta, kappa, phi = _draw_links(rng, r, JAMMER_SHADOW_DB, interval)
    return JammerScenario(phi=phi, beta=beta, kappa=kappa,
                          n_antennas=config.n_antennas, positions=pos)


# ---------------------------------------------------------------------------
# scenario files: JSON with the raw parameters; derived matrices are always
# recomputed on load so the stored file stays small and readable.  The
# "config" block records how the deployment was drawn; loading ignores it.

def save_scenario(path, config: DeploymentConfig, wsn: WsnScenario,
                  jammer: JammerScenario | None = None) -> None:
    doc = {
        "config": asdict(config),
        "wsn": {
            "noise_power": wsn.noise_power,
            "n_antennas": wsn.n_antennas,
            "positions": [list(s.position) for s in wsn.sensors],
            "beta": [s.beta for s in wsn.sensors],
            "kappa": [s.kappa for s in wsn.sensors],
            "theta": [s.theta for s in wsn.sensors],
            "pd": [s.pd for s in wsn.sensors],
            "pf": [s.pf for s in wsn.sensors],
        },
    }
    if jammer is not None:
        doc["jammer"] = {
            "phi": jammer.phi.tolist(),
            "beta": jammer.beta.tolist(),
            "kappa": jammer.kappa.tolist(),
            "positions": None if jammer.positions is None else jammer.positions.tolist(),
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path):
    """Load a scenario file; returns (wsn, jammer-or-None).

    Keys this version does not read are ignored.  A file that is not JSON,
    or a missing, malformed or non-finite entry (an antenna count that is not
    a JSON integer included), raises ValueError naming the file.  A jammer
    whose symbols are not uniform-phase (files of older versions could hold a
    constant-symbol jammer) is rejected: ``signal_model.draw_psi`` is the only
    symbol model.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        w = doc["wsn"]
        sensors = tuple(
            SensorParams(position=tuple(w["positions"][i]), beta=w["beta"][i],
                         kappa=w["kappa"][i], theta=w["theta"][i],
                         pd=w["pd"][i], pf=w["pf"][i])
            for i in range(len(w["beta"]))
        )
        n = w["n_antennas"]
        if type(n) is not int:  # a JSON integer: neither 2.7 nor true
            raise ValueError(f"n_antennas must be an integer, got {n!r}")
        wsn = WsnScenario(sensors=sensors, n_antennas=n,
                          noise_power=float(w["noise_power"]))
        if "jammer" not in doc:
            return wsn, None
        j = doc["jammer"]
        if j.get("signal_policy", "uniform-phase") != "uniform-phase":
            raise ValueError(f"jammer symbol policy {j['signal_policy']!r} is not "
                             "supported (only uniform-phase)")
        return wsn, JammerScenario(
            phi=np.array(j["phi"]), beta=np.array(j["beta"]), kappa=np.array(j["kappa"]),
            n_antennas=wsn.n_antennas,
            positions=None if j.get("positions") is None else np.array(j["positions"]),
        )
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise ValueError(f"scenario file {path}: missing or malformed entry "
                         f"({type(exc).__name__}: {exc})") from None
    except ValueError as exc:  # not JSON, or a parameter out of range
        raise ValueError(f"scenario file {path}: {exc}") from None
