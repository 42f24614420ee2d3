"""Static deployment scenarios: sensor/jammer placement and channel parameters.

A scenario fixes everything that does not change from one channel use to the
next: sensor positions, large-scale gains, Rician factors, angles seen by the
receive array, sensor operating points and -- optionally -- an interfering
subspace transmitter.  Fast fading and noise are drawn per trial by the
signal model on top of a scenario.
"""

from __future__ import annotations

import json
import math
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

_RANK_RTOL = 1e-8  # smallest/largest singular value ratio for "full rank"


def steering_vector(theta: float, n: int) -> np.ndarray:
    """Receive-array response for a source at angle ``theta``.

    Uniform linear array with half-wavelength spacing; entry m is
    exp(j*pi*m*cos(theta)) for m = 0..n-1.
    """
    if n < 1:
        raise ValueError(f"array size must be >= 1, got {n}")
    m = np.arange(n)
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
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")
        if not (0.0 <= self.pf <= self.pd <= 1.0):
            raise ValueError(f"need 0 <= pf <= pd <= 1, got pf={self.pf} pd={self.pd}")

    @property
    def b(self) -> float:
        """LOS amplitude fraction sqrt(kappa / (1 + kappa))."""
        return math.sqrt(self.kappa / (1.0 + self.kappa))

    @property
    def nu(self) -> float:
        """Scattered-power coefficient beta * (1 - b^2) = beta / (1 + kappa)."""
        return self.beta * (1.0 - self.kappa / (1.0 + self.kappa))


@dataclass(frozen=True)
class DeploymentConfig:
    """Everything needed to (re)generate a random deployment.

    Gains are on a dBm-scale log axis: shadowing draws 10*log10(xi) from a
    normal with the given mean/std, and Rician factors draw kappa uniformly
    in dB inside ``rician_db``.  ``noise_power`` is the per-antenna noise
    variance (linear) attached to generated scenarios; sweeps override it.
    """

    k_sensors: int = 14
    n_antennas: int = 6
    r_min: float = 100.0
    r_max: float = 1000.0
    path_loss_exponent: float = 2.0
    shadow_mean_db: float = 15.0
    shadow_std_db: float = 2.0
    rician_db: tuple[float, float] = (10.0, 20.0)
    pd: float = 0.5
    pf: float = 0.05
    noise_power: float = 1.0
    jammer_rank: int = 2
    jammer_shadow_mean_db: float = 25.0
    jammer_shadow_std_db: float = 2.0
    jammer_rician_db: tuple[float, float] = (10.0, 20.0)
    signal_policy: str = "uniform-phase"
    seed: int = 0

    def __post_init__(self):
        if self.k_sensors < 1:
            raise ValueError("k_sensors must be >= 1")
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be >= 1")
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError(f"need 0 < r_min < r_max, got ({self.r_min}, {self.r_max})")
        if self.noise_power <= 0:
            raise ValueError("noise_power must be positive")
        if not (0.0 <= self.pf <= self.pd <= 1.0):
            raise ValueError(f"need 0 <= pf <= pd <= 1, got pf={self.pf} pd={self.pd}")
        if self.rician_db[0] > self.rician_db[1]:
            raise ValueError("rician_db interval reversed")
        if self.jammer_rician_db[0] > self.jammer_rician_db[1]:
            raise ValueError("jammer_rician_db interval reversed")
        if self.jammer_rank < 1:
            raise ValueError("jammer_rank must be >= 1")
        if self.signal_policy not in ("uniform-phase", "constant"):
            raise ValueError(f"unknown signal policy {self.signal_policy!r}")


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


@dataclass(frozen=True, eq=False)
class WsnScenario:
    """A realized sensor deployment plus receiver geometry/noise.

    Derived arrays (steering matrix, mean channel matrix, ...) are computed
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
    steering: np.ndarray = field(init=False, repr=False)
    a_tilde: np.ndarray = field(init=False, repr=False)
    mu_bar: np.ndarray = field(init=False, repr=False)
    nu_bar: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be >= 1")
        if self.noise_power <= 0:
            raise ValueError("noise_power must be positive")
        if not self.sensors:
            raise ValueError("need at least one sensor")
        sens = tuple(self.sensors)
        object.__setattr__(self, "sensors", sens)
        set_ = object.__setattr__
        set_(self, "beta", _lock(np.array([s.beta for s in sens])))
        set_(self, "kappa", _lock(np.array([s.kappa for s in sens])))
        set_(self, "theta", _lock(np.array([s.theta for s in sens])))
        set_(self, "b", _lock(np.array([s.b for s in sens])))
        set_(self, "nu", _lock(np.array([s.nu for s in sens])))
        set_(self, "pd", _lock(np.array([s.pd for s in sens])))
        set_(self, "pf", _lock(np.array([s.pf for s in sens])))
        a = np.stack([steering_vector(t, self.n_antennas) for t in self.theta], axis=1)
        set_(self, "steering", _lock(a))
        # mean channel matrix: steering columns scaled by sqrt(beta)*b
        set_(self, "a_tilde", _lock(a * (np.sqrt(self.beta) * self.b)[None, :]))
        set_(self, "mu_bar", _lock(self.a_tilde.mean(axis=1)))
        set_(self, "nu_bar", float(self.nu.mean()))

    @property
    def k_sensors(self) -> int:
        return len(self.sensors)

    def sigma_e2(self, x) -> np.ndarray:
        """Equivalent noise variance sigma_w^2 + sum_k nu_k x_k for decisions x."""
        x = np.asarray(x, dtype=float)
        return self.noise_power + x @ self.nu

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

    Columns of the mixing matrix are steering vectors at the jammer bearings,
    scaled by the per-component LOS amplitudes; the scattered residual power
    for a transmit vector psi is sigma_j2(psi).  The SVD basis and the
    orthogonal projector onto the interference-free subspace are precomputed
    here because every interference-aware rule needs them.
    """

    phi: np.ndarray
    beta: np.ndarray
    kappa: np.ndarray
    n_antennas: int
    signal_policy: str = "uniform-phase"
    psi_const: np.ndarray | None = None
    positions: np.ndarray | None = None
    # derived
    b: np.ndarray = field(init=False, repr=False)
    nu: np.ndarray = field(init=False, repr=False)
    a_j: np.ndarray = field(init=False, repr=False)
    u_j: np.ndarray = field(init=False, repr=False)
    u_perp: np.ndarray = field(init=False, repr=False)
    p_perp: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        set_ = object.__setattr__
        phi = np.asarray(self.phi, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        kappa = np.asarray(self.kappa, dtype=float)
        if phi.ndim != 1 or beta.shape != phi.shape or kappa.shape != phi.shape:
            raise ValueError("phi, beta, kappa must be 1-d arrays of equal length")
        if np.any(beta <= 0) or np.any(kappa < 0):
            raise ValueError("jammer gains must be positive and kappa nonnegative")
        r = phi.size
        n = self.n_antennas
        if not (1 <= r < n):
            raise ValueError(f"jammer rank must satisfy 1 <= r < N, got r={r}, N={n}")
        if self.signal_policy not in ("uniform-phase", "constant"):
            raise ValueError(f"unknown signal policy {self.signal_policy!r}")
        set_(self, "phi", _lock(phi))
        set_(self, "beta", _lock(beta))
        set_(self, "kappa", _lock(kappa))
        b = np.sqrt(kappa / (1.0 + kappa))
        set_(self, "b", _lock(b))
        set_(self, "nu", _lock(beta * (1.0 - b ** 2)))
        cols = np.stack([steering_vector(p, n) for p in phi], axis=1)
        a_j = cols * (np.sqrt(beta) * b)[None, :]
        set_(self, "a_j", _lock(a_j))
        u, s, _ = np.linalg.svd(a_j, full_matrices=True)
        if s[-1] <= _RANK_RTOL * s[0]:
            raise ValueError("jammer mixing matrix is (numerically) rank deficient")
        set_(self, "u_j", _lock(u))
        u_perp = u[:, r:]
        set_(self, "u_perp", _lock(u_perp))
        set_(self, "p_perp", _lock(u_perp @ u_perp.conj().T))
        if self.psi_const is not None:
            pc = np.asarray(self.psi_const, dtype=complex)
            if pc.shape != (r,):
                raise ValueError(f"psi_const must have shape ({r},)")
            set_(self, "psi_const", _lock(pc))
        if self.positions is not None:
            set_(self, "positions", _lock(np.asarray(self.positions, dtype=float)))

    @property
    def rank(self) -> int:
        return self.phi.size

    def zeta(self, psi) -> np.ndarray:
        """Effective LOS symbol vector: per-component b*sqrt(beta) times psi."""
        psi = np.asarray(psi, dtype=complex)
        return psi * (self.b * np.sqrt(self.beta))

    def sigma_j2(self, psi) -> np.ndarray | float:
        """Scattered interference power sum_l nu_l |psi_l|^2."""
        psi = np.asarray(psi, dtype=complex)
        out = (np.abs(psi) ** 2) @ self.nu
        return float(out) if out.ndim == 0 else out

    def with_(self, n_antennas: int) -> "JammerScenario":
        return JammerScenario(
            phi=self.phi, beta=self.beta, kappa=self.kappa,
            n_antennas=n_antennas, signal_policy=self.signal_policy,
            psi_const=self.psi_const, positions=self.positions,
        )


def _draw_annulus(rng: np.random.Generator, n: int, r_min: float, r_max: float):
    """Positions uniform (in area) over the annulus r_min <= r <= r_max."""
    radii = np.sqrt(rng.uniform(r_min ** 2, r_max ** 2, size=n))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return radii * np.cos(angles), radii * np.sin(angles), radii


def _draw_gains(rng, n, radii, r_min, exponent, mean_db, std_db):
    xi = db_to_lin(rng.normal(mean_db, std_db, size=n))
    return xi * (r_min / radii) ** exponent


def generate_wsn(config: DeploymentConfig, rng: np.random.Generator) -> WsnScenario:
    """Draw a sensor deployment.

    Sensors fall uniformly on the annulus around the receiver (at the
    origin); large-scale gains combine log-normal shadowing with power-law
    path loss referenced to r_min; Rician factors are uniform in dB inside
    the configured interval.  The bearing fed to the array is the planar
    angle between the sensor direction and the array axis, folded into
    [0, pi] (a linear array cannot tell mirror-image directions apart).
    """
    k = config.k_sensors
    px, py, radii = _draw_annulus(rng, k, config.r_min, config.r_max)
    beta = _draw_gains(rng, k, radii, config.r_min, config.path_loss_exponent,
                       config.shadow_mean_db, config.shadow_std_db)
    kappa = db_to_lin(rng.uniform(config.rician_db[0], config.rician_db[1], size=k))
    theta = np.arccos(px / radii)
    sensors = tuple(
        SensorParams(position=(float(px[i]), float(py[i])), beta=float(beta[i]),
                     kappa=float(kappa[i]), theta=float(theta[i]),
                     pd=config.pd, pf=config.pf)
        for i in range(k)
    )
    return WsnScenario(sensors=sensors, n_antennas=config.n_antennas,
                       noise_power=config.noise_power)


def generate_jammer(config: DeploymentConfig, rng: np.random.Generator,
                    preset: str | None = None) -> JammerScenario:
    """Draw a rank-r jammer with the same placement recipe as the sensors.

    Each of the r components gets its own position/gain/Rician factor; the
    shadowing mean is the (higher) jammer one.  ``preset`` picks the Rician
    interval from JAMMER_PRESETS, otherwise config.jammer_rician_db is used.
    """
    if preset is not None:
        try:
            interval = JAMMER_PRESETS[preset]
        except KeyError:
            raise ValueError(
                f"unknown jammer preset {preset!r}; choose from {sorted(JAMMER_PRESETS)}") from None
    else:
        interval = config.jammer_rician_db
    r = config.jammer_rank
    if r >= config.n_antennas:
        raise ValueError(
            f"jammer rank {r} must be smaller than the antenna count {config.n_antennas}")
    px, py, radii = _draw_annulus(rng, r, config.r_min, config.r_max)
    beta = _draw_gains(rng, r, radii, config.r_min, config.path_loss_exponent,
                       config.jammer_shadow_mean_db, config.jammer_shadow_std_db)
    kappa = db_to_lin(rng.uniform(interval[0], interval[1], size=r))
    phi = np.arccos(px / radii)
    psi_const = np.ones(r, dtype=complex) if config.signal_policy == "constant" else None
    return JammerScenario(phi=phi, beta=beta, kappa=kappa,
                          n_antennas=config.n_antennas,
                          signal_policy=config.signal_policy,
                          psi_const=psi_const,
                          positions=np.stack([px, py], axis=1))


# ---------------------------------------------------------------------------
# scenario files: JSON with the raw parameters; derived matrices are always
# recomputed on load so the stored file stays small and readable.

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
            "signal_policy": jammer.signal_policy,
            "psi_const_re": None if jammer.psi_const is None else jammer.psi_const.real.tolist(),
            "psi_const_im": None if jammer.psi_const is None else jammer.psi_const.imag.tolist(),
            "positions": None if jammer.positions is None else jammer.positions.tolist(),
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path):
    """Load a scenario file; returns (config, wsn, jammer-or-None)."""
    with open(path) as fh:
        doc = json.load(fh)
    cfg = doc["config"]
    cfg["rician_db"] = tuple(cfg["rician_db"])
    cfg["jammer_rician_db"] = tuple(cfg["jammer_rician_db"])
    config = DeploymentConfig(**cfg)
    w = doc["wsn"]
    sensors = tuple(
        SensorParams(position=tuple(w["positions"][i]), beta=w["beta"][i],
                     kappa=w["kappa"][i], theta=w["theta"][i],
                     pd=w["pd"][i], pf=w["pf"][i])
        for i in range(len(w["beta"]))
    )
    wsn = WsnScenario(sensors=sensors, n_antennas=int(w["n_antennas"]),
                      noise_power=float(w["noise_power"]))
    jammer = None
    if "jammer" in doc:
        j = doc["jammer"]
        psi_const = None
        if j.get("psi_const_re") is not None:
            psi_const = np.array(j["psi_const_re"]) + 1j * np.array(j["psi_const_im"])
        jammer = JammerScenario(
            phi=np.array(j["phi"]), beta=np.array(j["beta"]), kappa=np.array(j["kappa"]),
            n_antennas=wsn.n_antennas, signal_policy=j["signal_policy"],
            psi_const=psi_const,
            positions=None if j.get("positions") is None else np.array(j["positions"]),
        )
    return config, wsn, jammer
