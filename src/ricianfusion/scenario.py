"""Static deployment scenarios: sensor/jammer placement and channel parameters.

A scenario fixes everything that does not change from one channel use to the
next: sensor positions, large-scale gains, Rician factors, angles seen by the
receive array, sensor operating points and -- optionally -- an interfering
subspace transmitter.  Fast fading and noise are drawn per trial by the
signal model on top of a scenario.  Sensors and jammer components share one
Rician link model (``_rician_links``), one placement draw (``_draw_links``)
and one set of checks (``_check_links``); both hold one array entry per link,
and every variant of a scenario is a ``dataclasses.replace`` (``with_``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

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


def _numbers(name: str, value):
    """``value`` if no boolean (JSON ``true``/``false`` included) or string sits
    anywhere in its lists or tuples: numpy and ``float()`` would read them as numbers."""
    if isinstance(value, (list, tuple)):
        for v in value:
            _numbers(name, v)
    elif isinstance(value, (bool, np.bool_, str)):
        raise ValueError(f"{name}: expected real numbers, got {value!r}")
    return value


def _floats(name: str, value, like=None) -> np.ndarray:
    """Read-only float copy of field ``name`` (broadcast to the shape of ``like``);
    no booleans, strings or None.  Every ValueError, numpy's included, names the field."""
    _numbers(name, value)
    try:
        a = np.asarray(value)
        if a.dtype.kind not in "iuf":
            raise ValueError(f"expected real numbers, got {a.dtype} entries")
        return _lock(np.full(np.shape(a if like is None else like), a, dtype=float))
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _check_links(name, bearing, beta, kappa, positions) -> None:
    """Both scenario classes' checks, each message led by its field: nonempty 1-d
    bearings (``name``), finite values, beta > 0, kappa >= 0, one finite (x, y) row per link."""
    if bearing.ndim != 1 or bearing.size == 0:
        raise ValueError(f"{name}: need a nonempty 1-d array of bearings, "
                         f"got shape {bearing.shape}")
    for field_, ok, need in ((name, np.isfinite(bearing), "finite bearings"),
                             ("beta", np.isfinite(beta) & (beta > 0), "finite positive gains"),
                             ("kappa", np.isfinite(kappa) & (kappa >= 0),
                              "finite nonnegative Rician factors")):
        if not np.all(ok):
            raise ValueError(f"{field_}: need {need}")
    if not (positions.shape == (bearing.size, 2) and np.all(np.isfinite(positions))):
        raise ValueError(f"positions must be {bearing.size} finite (x, y) rows")


def _rician_links(theta, beta, kappa, n: int):
    """LOS fraction b = sqrt(kappa/(1+kappa)), scattered power nu = beta/(1+kappa)
    and LOS columns a(theta) sqrt(beta) b of Rician links to an n-antenna array."""
    b = np.sqrt(kappa / (1.0 + kappa))
    nu = beta * (1.0 - kappa / (1.0 + kappa))
    return b, nu, steering_vector(theta, n) * (np.sqrt(beta) * b)


@dataclass(frozen=True, eq=False)
class WsnScenario:
    """A realized sensor deployment plus receiver geometry/noise.

    Sensor k is the Rician link (beta[k], kappa[k], theta[k]) at positions[k]
    with the operating point (pd[k], pf[k]); beta, kappa, pd and pf broadcast
    against theta.  Fields are read-only copies; the model's derived arrays b, nu
    and a_tilde (no rule constants) are computed once.  A variant (another N or noise
    power, kappa = 0, ideal sensors) is ``with_(**changes)``, which re-derives them.
    """

    theta: np.ndarray
    beta: np.ndarray
    kappa: np.ndarray
    pd: np.ndarray
    pf: np.ndarray
    positions: np.ndarray
    n_antennas: int
    noise_power: float
    # derived, filled in __post_init__
    b: np.ndarray = field(init=False, repr=False)
    nu: np.ndarray = field(init=False, repr=False)
    a_tilde: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be >= 1")
        _numbers("noise_power", self.noise_power)
        if not (np.isfinite(self.noise_power) and self.noise_power > 0):
            raise ValueError(f"noise_power must be finite and positive, got {self.noise_power}")
        set_ = object.__setattr__
        for name in ("theta", "beta", "kappa", "pd", "pf"):  # theta first: the others fit it
            set_(self, name, _floats(name, getattr(self, name), self.theta))
        set_(self, "positions", _floats("positions", self.positions))
        _check_links("theta", self.theta, self.beta, self.kappa, self.positions)
        if not np.all((0.0 <= self.pf) & (self.pf <= self.pd) & (self.pd <= 1.0)):
            raise ValueError(f"need 0 <= pf <= pd <= 1, got pf={self.pf} pd={self.pd}")
        links = _rician_links(self.theta, self.beta, self.kappa, self.n_antennas)
        for name, value in zip(("b", "nu", "a_tilde"), links):  # a_tilde: mean channel
            set_(self, name, _lock(value))

    @property
    def k_sensors(self) -> int:
        return self.theta.size

    @property
    def sensors(self) -> np.recarray:
        """The arrays as K records with fields beta, kappa, theta, pd and pf, for the
        benchmark's reference model (``perfbench/gate.py``); nothing here reads it."""
        return np.rec.fromarrays([self.beta, self.kappa, self.theta, self.pd, self.pf],
                                 names="beta,kappa,theta,pd,pf")

    def rho(self, h: int) -> np.ndarray:
        """Vector of marginal transmit probabilities under hypothesis h."""
        return self.pd if h else self.pf

    def with_(self, **changes) -> "WsnScenario":
        return replace(self, **changes)


@dataclass(frozen=True, eq=False)
class JammerScenario:
    """A rank-r subspace interferer as seen by the receive array.

    Component l is the Rician link (beta[l], kappa[l], phi[l]) from
    positions[l], built like a sensor's: ``a_j`` holds the LOS columns and
    ``nu`` the scattered powers, which add sum(nu) to the noise variance
    (symbols have unit modulus).  ``u_c`` (N x (N - r), orthonormal columns:
    the left singular vectors of ``a_j`` past the r-th) spans the
    interference-free subspace for the jammer-aware rules.
    """

    phi: np.ndarray
    beta: np.ndarray
    kappa: np.ndarray
    n_antennas: int
    positions: np.ndarray
    # derived
    b: np.ndarray = field(init=False, repr=False)
    nu: np.ndarray = field(init=False, repr=False)
    a_j: np.ndarray = field(init=False, repr=False)
    u_c: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        set_ = object.__setattr__
        for name in ("phi", "beta", "kappa"):
            set_(self, name, _floats(name, getattr(self, name), self.phi))
        set_(self, "positions", _floats("positions", self.positions))
        _check_links("phi", self.phi, self.beta, self.kappa, self.positions)
        r, n = self.phi.size, self.n_antennas
        if not (1 <= r < n):
            raise ValueError(f"jammer rank must satisfy 1 <= r < N, got r={r}, N={n}")
        links = _rician_links(self.phi, self.beta, self.kappa, n)
        for name, value in zip(("b", "nu", "a_j"), links):
            set_(self, name, _lock(value))
        u, s, _ = np.linalg.svd(self.a_j, full_matrices=True)
        if s[-1] <= _RANK_RTOL * s[0]:
            raise ValueError("jammer mixing matrix is (numerically) rank deficient")
        set_(self, "u_c", _lock(u[:, r:]))

    @property
    def rank(self) -> int:
        return self.phi.size

    def los(self, psi) -> np.ndarray:
        """LOS interference (T, N) of (T, r) symbols, scaled by b sqrt(beta) on
        top of the columns of ``a_j``, which carry b sqrt(beta) already."""
        return (psi * (self.b * np.sqrt(self.beta))) @ self.a_j.T

    def with_(self, **changes) -> "JammerScenario":
        return replace(self, **changes)


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
    return WsnScenario(theta=theta, beta=beta, kappa=kappa, pd=config.pd, pf=config.pf,
                       positions=pos, n_antennas=config.n_antennas, noise_power=NOISE_POWER)


def generate_jammer(config: DeploymentConfig, rng: np.random.Generator,
                    preset: str) -> JammerScenario:
    """Draw a rank-r jammer: r links with the (stronger) jammer shadowing and
    the Rician interval of JAMMER_PRESETS[preset]."""
    try:
        interval = JAMMER_PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown jammer preset {preset!r}; choose from {sorted(JAMMER_PRESETS)}") from None
    pos, beta, kappa, phi = _draw_links(rng, config.jammer_rank, JAMMER_SHADOW_DB, interval)
    return JammerScenario(phi=phi, beta=beta, kappa=kappa,
                          n_antennas=config.n_antennas, positions=pos)


# ---------------------------------------------------------------------------
# scenario files: JSON with the raw parameters; derived matrices are always
# recomputed on load so the stored file stays small and readable.  The
# "config" block records how the deployment was drawn; loading ignores it.

_WSN_ARRAYS = ("beta", "kappa", "theta", "pd", "pf", "positions")


def save_scenario(path, config: DeploymentConfig, wsn: WsnScenario,
                  jammer: JammerScenario | None = None) -> None:
    doc = {
        "config": asdict(config),
        "wsn": {"noise_power": wsn.noise_power, "n_antennas": wsn.n_antennas,
                **{name: getattr(wsn, name).tolist() for name in _WSN_ARRAYS}},
    }
    if jammer is not None:
        doc["jammer"] = {name: getattr(jammer, name).tolist()
                         for name in ("phi", "beta", "kappa", "positions")}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path):
    """Load a scenario file; returns (wsn, jammer-or-None).

    Keys this version does not read are ignored.  A file that is not JSON,
    or a missing, malformed or non-finite entry (an antenna count that is not
    a JSON integer, and a ``true``, ``false`` or string where a number belongs,
    included), raises ValueError naming the file.  A jammer
    whose symbols are not uniform-phase (files of older versions could hold a
    constant-symbol jammer) is rejected: ``signal_model.draw_psi`` is the only
    symbol model.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        w = doc["wsn"]
        # "beta" first: names it if absent
        arrays = {name: _numbers(name, w[name]) for name in _WSN_ARRAYS}
        n = w["n_antennas"]
        if type(n) is not int:  # a JSON integer: neither 2.7 nor true
            raise ValueError(f"n_antennas must be an integer, got {n!r}")
        wsn = WsnScenario(**arrays, n_antennas=n,
                          noise_power=float(_numbers("noise_power", w["noise_power"])))
        if "jammer" not in doc:
            return wsn, None
        j = doc["jammer"]
        if j.get("signal_policy", "uniform-phase") != "uniform-phase":
            raise ValueError(f"jammer symbol policy {j['signal_policy']!r} is not "
                             "supported (only uniform-phase)")
        return wsn, JammerScenario(**{name: _numbers(name, j[name]) for name in
                                      ("phi", "beta", "kappa", "positions")},
                                   n_antennas=wsn.n_antennas)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise ValueError(f"scenario file {path}: missing or malformed entry "
                         f"({type(exc).__name__}: {exc})") from None
    except ValueError as exc:  # not JSON, or a parameter out of range
        raise ValueError(f"scenario file {path}: {exc}") from None
