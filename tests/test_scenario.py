"""Deployment generation: geometry, gain draws, presets, serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ricianfusion as rf
from conftest import make_deployment
from ricianfusion import cli, scenario


# ---------------------------------------------------------------- steering

def test_steering_vector_broadside_is_all_ones():
    # cos(pi/2) = 0 so every element phase is zero
    a = rf.steering_vector(math.pi / 2, 5)
    np.testing.assert_allclose(a, np.ones(5), atol=1e-12)


def test_steering_vector_endfire_alternates_sign():
    # cos(0) = 1: element m carries phase pi*m -> (+1, -1, +1, ...)
    a = rf.steering_vector(0.0, 4)
    np.testing.assert_allclose(a, [1, -1, 1, -1], atol=1e-12)


def test_steering_vector_unit_modulus_and_first_element():
    for theta in np.linspace(0, math.pi, 7):
        a = rf.steering_vector(theta, 6)
        assert a.shape == (6,)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)
        assert a[0] == 1.0 + 0.0j


def test_steering_vector_rejects_empty_array():
    with pytest.raises(ValueError):
        rf.steering_vector(1.0, 0)


def test_db_conversions_round_trip():
    assert rf.db_to_lin(0.0) == 1.0
    assert rf.db_to_lin(10.0) == pytest.approx(10.0)
    np.testing.assert_allclose(rf.lin_to_db(rf.db_to_lin([-7.0, 3.5])), [-7.0, 3.5],
                               atol=1e-12)


# ---------------------------------------------------------------- sensors

def _one_sensor(beta, kappa, theta=1.0, n=3):
    return rf.WsnScenario(theta=[theta], beta=[beta], kappa=[kappa], pd=[0.5], pf=[0.05],
                          positions=[[1.0, 2.0]], n_antennas=n, noise_power=1.0)


def test_sensor_params_los_scattered_split_sums_to_beta():
    wsn = _one_sensor(beta=3.0, kappa=4.0)
    # beta*b^2 (LOS power) + nu (scattered power) = beta
    assert wsn.beta[0] * wsn.b[0] ** 2 + wsn.nu[0] == pytest.approx(3.0, rel=1e-14)


def test_sensor_params_kappa_extremes():
    flat = _one_sensor(beta=2.0, kappa=0.0)
    assert flat.b[0] == 0.0 and flat.nu[0] == 2.0
    big = _one_sensor(beta=2.0, kappa=1e15)
    assert big.b[0] == pytest.approx(1.0, abs=1e-7)
    assert big.nu[0] == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(beta=st.floats(1e-6, 1e6), kappa_db=st.floats(-60.0, 60.0),
       bearing=st.floats(0.0, math.pi), n=st.integers(2, 8),
       phase=st.floats(0.0, 1.0))
def test_sensors_and_jammer_components_share_one_link_law(beta, kappa_db, bearing, n, phase):
    # kappa > 0: a jammer component without LOS has a zero mixing column
    kappa = float(rf.db_to_lin(kappa_db))
    wsn = _one_sensor(beta=beta, kappa=kappa, theta=bearing, n=n)
    jam = rf.JammerScenario(phi=np.array([bearing]), beta=np.array([beta]),
                            kappa=np.array([kappa]), n_antennas=n, positions=wsn.positions)
    assert jam.b[0] == wsn.b[0] and jam.nu[0] == wsn.nu[0]
    np.testing.assert_array_equal(jam.a_j, wsn.a_tilde)
    assert beta * wsn.b[0] ** 2 + wsn.nu[0] == pytest.approx(beta, rel=1e-14)
    # the projector removes the LOS interference of unit-modulus symbols
    los = jam.los(np.exp(2j * np.pi * np.array([[phase], [phase + 0.3]])))
    assert np.abs(los @ jam.u_c.conj()).max() <= 1e-12 * np.abs(los).max()


def test_sensor_params_validation():
    wsn = _one_sensor(beta=1.0, kappa=1.0, theta=0.1)
    with pytest.raises(ValueError):
        wsn.with_(beta=0.0)
    with pytest.raises(ValueError):
        wsn.with_(kappa=-1.0)
    with pytest.raises(ValueError):
        wsn.with_(pd=0.05, pf=0.5)
    with pytest.raises(ValueError, match="finite"):   # b = inf/inf would be NaN
        wsn.with_(kappa=math.inf)


_TWO_SENSORS = dict(theta=[0.3, 1.0], beta=[2.0, 1.0], kappa=1.0, pd=[0.9, 0.8],
                    pf=0.05, positions=np.ones((2, 2)), n_antennas=3, noise_power=1.0)
_TWO_LINKS = dict(phi=[0.3, 1.0], beta=[2.0, 1.0], kappa=1.0, positions=np.ones((2, 2)),
                  n_antennas=4)


@pytest.mark.parametrize("cls,field_,value", [
    (rf.WsnScenario, "beta", [True, 1]),          # a mixed list reads as int
    (rf.WsnScenario, "kappa", True),
    (rf.WsnScenario, "pd", [True, True]),
    (rf.WsnScenario, "pf", np.array([False, False])),
    (rf.WsnScenario, "theta", (0.3, np.True_)),
    (rf.WsnScenario, "positions", [[1.0, True], [1.0, 1.0]]),
    (rf.WsnScenario, "noise_power", True),
    (rf.WsnScenario, "noise_power", np.True_),
    (rf.JammerScenario, "phi", [0.3, False]),
    (rf.JammerScenario, "beta", [True, 1]),
    (rf.JammerScenario, "kappa", np.array([True, True])),
    (rf.JammerScenario, "positions", [[True, 1.0], [1.0, 1.0]]),
])
def test_scenario_fields_reject_booleans_naming_the_field(cls, field_, value):
    fields = dict(_TWO_SENSORS if cls is rf.WsnScenario else _TWO_LINKS)
    cls(**fields)  # the unchanged fields build
    with pytest.raises(ValueError, match=f"^{field_}: expected real numbers"):
        cls(**{**fields, field_: value})


# ---------------------------------------------------------------- generation

@pytest.mark.parametrize("seed", range(5))
def test_generated_positions_stay_in_annulus_and_bearings_in_range(seed):
    config = rf.preset_config("intermediate", k_sensors=40, seed=seed)
    wsn = rf.generate_wsn(config, np.random.default_rng(seed))
    pos = wsn.positions
    radii = np.linalg.norm(pos, axis=1)
    assert np.all(radii >= scenario.R_MIN) and np.all(radii <= scenario.R_MAX)
    assert np.all(wsn.theta >= 0.0) and np.all(wsn.theta <= math.pi)
    # bearing is the planar angle of the position seen from the array axis
    np.testing.assert_allclose(np.cos(wsn.theta), pos[:, 0] / radii, atol=1e-12)
    assert np.all(wsn.beta > 0)


def test_gain_power_law_at_reference_distances():
    # with the shadowing collapsed to 0 dB the gain is the pure inverse
    # power law referenced to the inner radius: (R_MIN / r)^2
    pos, beta, _, _ = scenario._draw_links(np.random.default_rng(0), 50, (0.0, 0.0),
                                           (0.0, 0.0))
    radii = np.linalg.norm(pos, axis=1)
    np.testing.assert_allclose(beta, (scenario.R_MIN / radii) ** 2, rtol=1e-12)
    assert np.all(beta <= 1.0) and np.all(beta >= (scenario.R_MIN / scenario.R_MAX) ** 2)


@pytest.mark.parametrize("preset,lo,hi", [("los", 10, 20),
                                          ("intermediate", -10, 10),
                                          ("nlos", -20, -10)])
def test_presets_bound_the_rician_factor(preset, lo, hi):
    config = rf.preset_config(preset, k_sensors=30, seed=3)
    wsn = rf.generate_wsn(config, np.random.default_rng(3))
    kappa_db = rf.lin_to_db(wsn.kappa)
    assert np.all(kappa_db >= lo - 1e-9) and np.all(kappa_db <= hi + 1e-9)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        rf.preset_config("mystery")
    config = rf.preset_config("los")
    with pytest.raises(ValueError):
        rf.generate_jammer(config, np.random.default_rng(0), preset="mystery")


def test_generation_is_deterministic_in_the_seed():
    config = rf.preset_config("los", k_sensors=8, seed=5)
    a = rf.generate_wsn(config, np.random.default_rng(42))
    b = rf.generate_wsn(config, np.random.default_rng(42))
    np.testing.assert_array_equal(a.beta, b.beta)
    np.testing.assert_array_equal(a.theta, b.theta)
    np.testing.assert_array_equal(a.kappa, b.kappa)


def test_mean_channel_matrix_columns():
    wsn, _ = make_deployment(k=4, n=5, seed=9)
    for k in range(4):
        expected = rf.steering_vector(wsn.theta[k], 5) * math.sqrt(wsn.beta[k]) * wsn.b[k]
        np.testing.assert_allclose(wsn.a_tilde[:, k], expected, rtol=1e-13)
        # column energy: N * beta * b^2
        assert np.linalg.norm(wsn.a_tilde[:, k]) ** 2 == pytest.approx(
            5 * wsn.beta[k] * wsn.b[k] ** 2, rel=1e-12)
    # the model only: the is rule's constants are the is rule's
    assert not hasattr(wsn, "mu_bar") and not hasattr(wsn, "nu_bar")


def test_sigma_e2_is_noise_plus_active_scattered_power():
    # the exact-LLR table holds sigma_w^2 + sum_k nu_k x_k for x = bits of j
    wsn, _ = make_deployment(k=4, n=3, seed=1)
    s2 = rf.make_context(wsn).llr_tables.sigma_e2_all
    assert s2[0] == pytest.approx(wsn.noise_power)
    assert s2[15] == pytest.approx(wsn.noise_power + wsn.nu.sum())
    assert s2[0b0101] == pytest.approx(wsn.noise_power + wsn.nu[0] + wsn.nu[2])


def test_link_arrays_broadcast_and_are_kept_as_read_only_copies():
    theta = np.array([0.3, 1.2, 2.0])
    pos = np.array([[100.0, 0.0], [0.0, 200.0], [-300.0, 10.0]])
    wsn = rf.WsnScenario(theta=theta, beta=2.0, kappa=[1.0, 0.0, 4.0], pd=0.5, pf=0.05,
                         positions=pos, n_antennas=3, noise_power=1.0)
    assert wsn.k_sensors == 3
    np.testing.assert_array_equal(wsn.beta, [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(wsn.pd, [0.5, 0.5, 0.5])
    for name in ("theta", "beta", "kappa", "pd", "pf", "positions"):
        assert not getattr(wsn, name).flags.writeable, name
    # the caller's arrays stay writable, and writing them leaves the scenario alone
    theta[0], pos[0, 0] = 0.0, 0.0
    assert wsn.theta[0] == 0.3 and wsn.positions[0, 0] == 100.0
    np.testing.assert_array_equal(wsn.positions[1], [0.0, 200.0])
    assert ([getattr(wsn, f)[1] for f in ("beta", "kappa", "theta", "pd", "pf")]
            == [2.0, 0.0, 1.2, 0.5, 0.05])


def test_sensors_are_records_of_the_link_arrays():
    wsn, _ = make_deployment(k=5, n=3, seed=6)
    rows = wsn.sensors
    assert len(rows) == wsn.k_sensors
    for f in ("beta", "kappa", "theta", "pd", "pf"):
        np.testing.assert_array_equal(rows[f], getattr(wsn, f))
        assert [getattr(row, f) for row in rows] == getattr(wsn, f).tolist()


@pytest.mark.parametrize("change,named", [
    ({"beta": [1.0, 2.0]}, "broadcast"),
    ({"theta": [[0.3, 1.2, 2.0]]}, "1-d"),
    ({"theta": [], "beta": 1.0, "kappa": 1.0, "pd": 0.5, "pf": 0.05,
      "positions": np.zeros((0, 2))}, "nonempty"),
    ({"positions": [[0.0, 0.0]]}, "positions"),
    ({"positions": [[0.0, 0.0], [1.0, 1.0], [math.nan, 0.0]]}, "positions"),
    ({"pd": ["0.5", "0.5", "0.5"]}, "real numbers"),   # strings are not converted
    ({"theta": None}, "real numbers"),
    ({"positions": [[0.0, 0.0], [1.0], [2.0, 2.0]]}, "inhomogeneous"),
    ({"theta": [0.3, math.inf, 2.0]}, "finite bearings"),
    ({"beta": [1.0, math.inf, 3.0]}, "finite positive gains"),
    ({"beta": [1.0, -1.0, 3.0]}, "finite positive gains"),
    ({"kappa": [1.0, -1.0, 1.0]}, "finite nonnegative Rician factors"),
])
def test_link_arrays_that_do_not_fit_are_rejected(change, named):
    wsn = rf.WsnScenario(theta=[0.3, 1.2, 2.0], beta=[1.0, 2.0, 3.0], kappa=1.0, pd=0.5,
                         pf=0.05, positions=np.ones((3, 2)), n_antennas=3, noise_power=1.0)
    with pytest.raises(ValueError, match=named) as err:
        wsn.with_(**change)
    assert str(err.value).startswith(next(iter(change)))  # the message names the field


def test_jammer_arrays_must_have_equal_lengths():
    # as a sensor's: gains and Rician factors broadcast against the bearings
    pos = [[300.0, 0.0], [0.0, 400.0]]
    jam = rf.JammerScenario(phi=[0.3, 1.0], beta=[1.0], kappa=2.0, n_antennas=4,
                            positions=pos)
    np.testing.assert_array_equal(jam.beta, [1.0, 1.0])
    np.testing.assert_array_equal(jam.kappa, [2.0, 2.0])
    with pytest.raises(ValueError, match="^beta: .*broadcast"):
        jam.with_(beta=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="positions"):
        jam.with_(positions=[[300.0, 0.0]])


def test_with_rebuilds_derived_arrays_but_keeps_sensors():
    wsn, _ = make_deployment(k=4, n=3, seed=2)
    grown = wsn.with_(n_antennas=7, noise_power=2.5)
    assert grown.n_antennas == 7 and grown.noise_power == 2.5
    for name in ("positions", "beta", "kappa", "theta", "pd", "pf"):
        np.testing.assert_array_equal(getattr(grown, name), getattr(wsn, name))
    assert grown.a_tilde.shape == (7, 4)
    np.testing.assert_allclose(grown.a_tilde[:3], wsn.a_tilde, rtol=1e-14)


def test_derived_arrays_are_read_only():
    wsn, _ = make_deployment(k=3, n=3, seed=4)
    with pytest.raises(ValueError):
        wsn.a_tilde[0, 0] = 0


# ---------------------------------------------------------------- jammer

def test_jammer_projector_annihilates_the_interference_subspace(jammed_pair):
    _, jam = jammed_pair
    n, r = jam.n_antennas, jam.rank
    u_c = jam.u_c
    assert u_c.shape == (n, n - r) and not u_c.flags.writeable
    np.testing.assert_allclose(u_c.conj().T @ u_c, np.eye(n - r), atol=1e-12)  # orthonormal
    np.testing.assert_allclose(u_c.conj().T @ jam.a_j, 0, atol=1e-10)       # U_c^H A_J = 0
    p = u_c @ u_c.conj().T
    np.testing.assert_allclose(p, p.conj().T, atol=1e-12)          # Hermitian
    np.testing.assert_allclose(p @ p, p, atol=1e-12)               # idempotent
    np.testing.assert_allclose(p @ jam.a_j, 0, atol=1e-10)         # kills range(A_J)
    assert np.trace(p).real == pytest.approx(jam.n_antennas - jam.rank, abs=1e-9)


def test_single_broadside_jammer_projector_closed_form():
    # one column at broadside bearing: mixing matrix is a scaled all-ones
    # vector, so the projector has the explicit form I - ones/N
    n = 5
    jam = rf.JammerScenario(phi=np.array([np.pi / 2]), beta=np.array([2.0]),
                            kappa=np.array([4.0]), n_antennas=n, positions=[[0.0, 300.0]])
    np.testing.assert_allclose(jam.a_j[:, 0], jam.a_j[0, 0] * np.ones(n),
                               atol=1e-12)
    want = np.eye(n) - np.ones((n, n)) / n
    np.testing.assert_allclose(jam.u_c @ jam.u_c.conj().T, want, atol=1e-12)
    np.testing.assert_allclose(jam.u_c.sum(axis=0), 0, atol=1e-12)  # orthogonal to ones


def test_jammer_rank_must_be_below_antenna_count():
    config = rf.preset_config("los", k_sensors=3, n_antennas=2, jammer_rank=2)
    with pytest.raises(ValueError):
        rf.generate_jammer(config, np.random.default_rng(0), preset="los-jam")
    with pytest.raises(ValueError):
        rf.JammerScenario(phi=np.array([0.3]), beta=np.array([1.0]),
                          kappa=np.array([1.0]), n_antennas=1, positions=[[300.0, 0.0]])


def test_jammer_los_term_and_scattered_power(jammed_pair):
    _, jam = jammed_pair
    psi = np.array([[1.0 + 0j, -1j]])
    want = (psi * jam.b * np.sqrt(jam.beta)) @ jam.a_j.T
    np.testing.assert_allclose(jam.los(psi), want, rtol=1e-14)
    assert jam.los(psi).shape == (1, jam.n_antennas)
    np.testing.assert_allclose(jam.nu, jam.beta / (1.0 + jam.kappa), rtol=1e-14)


@pytest.mark.parametrize("preset,lo,hi", [("los-jam", 10, 20),
                                          ("weak-los-jam", -10, 10)])
def test_jammer_presets_bound_component_rician_factors(preset, lo, hi):
    config = rf.preset_config("los", n_antennas=8, jammer_rank=5, seed=0)
    jam = rf.generate_jammer(config, np.random.default_rng(11), preset=preset)
    kdb = rf.lin_to_db(jam.kappa)
    assert np.all(kdb >= lo - 1e-9) and np.all(kdb <= hi + 1e-9)


# ---------------------------------------------------------------- files

def test_scenario_file_round_trip(tmp_path, jammed_pair):
    wsn, jam = jammed_pair
    config = rf.preset_config("los", k_sensors=wsn.k_sensors,
                              n_antennas=wsn.n_antennas, seed=23)
    path = tmp_path / "scenario.json"
    rf.save_scenario(path, config, wsn, jam)
    wsn2, jam2 = rf.load_scenario(path)
    with open(path) as fh:
        written = json.load(fh)["config"]
    assert written == json.loads(json.dumps(dataclasses.asdict(config)))
    np.testing.assert_array_equal(wsn2.beta, wsn.beta)
    np.testing.assert_array_equal(wsn2.kappa, wsn.kappa)
    np.testing.assert_array_equal(wsn2.theta, wsn.theta)
    np.testing.assert_array_equal(wsn2.a_tilde, wsn.a_tilde)
    np.testing.assert_array_equal(jam2.phi, jam.phi)
    np.testing.assert_array_equal(jam2.beta, jam.beta)
    np.testing.assert_array_equal(jam2.kappa, jam.kappa)
    np.testing.assert_array_equal(jam2.positions, jam.positions)
    np.testing.assert_array_equal(jam2.u_c, jam.u_c)


def test_scenario_file_is_written_back_byte_for_byte(tmp_path, jammed_pair):
    wsn, jam = jammed_pair
    config = rf.preset_config("los", k_sensors=wsn.k_sensors, n_antennas=wsn.n_antennas)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    rf.save_scenario(first, config, wsn, jam)
    rf.save_scenario(second, config, *rf.load_scenario(first))
    assert first.read_bytes() == second.read_bytes()


def test_scenario_file_without_jammer(tmp_path, small_wsn):
    config = rf.preset_config("intermediate", k_sensors=small_wsn.k_sensors,
                              n_antennas=small_wsn.n_antennas)
    path = tmp_path / "plain.json"
    rf.save_scenario(path, config, small_wsn, None)
    wsn2, jam2 = rf.load_scenario(path)
    assert jam2 is None
    np.testing.assert_array_equal(wsn2.beta, small_wsn.beta)


def _older_format_doc(wsn, jam, signal_policy="uniform-phase"):
    """A scenario file in the layout of earlier versions: a 17-key config
    block and jammer symbol-policy keys that loading no longer reads."""
    return {
        "config": {"k_sensors": wsn.k_sensors, "n_antennas": wsn.n_antennas,
                   "r_min": 100.0, "r_max": 1000.0, "path_loss_exponent": 2.0,
                   "shadow_mean_db": 15.0, "shadow_std_db": 2.0,
                   "rician_db": [10.0, 20.0], "pd": 0.5, "pf": 0.05,
                   "noise_power": 1.0, "jammer_rank": jam.rank,
                   "jammer_shadow_mean_db": 25.0, "jammer_shadow_std_db": 2.0,
                   "jammer_rician_db": [10.0, 20.0], "signal_policy": signal_policy,
                   "seed": 23},
        "wsn": {"noise_power": wsn.noise_power, "n_antennas": wsn.n_antennas,
                "positions": wsn.positions.tolist(),
                "beta": wsn.beta.tolist(), "kappa": wsn.kappa.tolist(),
                "theta": wsn.theta.tolist(), "pd": wsn.pd.tolist(),
                "pf": wsn.pf.tolist()},
        "jammer": {"phi": jam.phi.tolist(), "beta": jam.beta.tolist(),
                   "kappa": jam.kappa.tolist(), "signal_policy": signal_policy,
                   "psi_const_re": [1.0] * jam.rank if signal_policy == "constant" else None,
                   "psi_const_im": [0.0] * jam.rank if signal_policy == "constant" else None,
                   "positions": jam.positions.tolist()},
    }


def test_older_format_scenario_file_loads_the_same_arrays(tmp_path, jammed_pair):
    wsn, jam = jammed_pair
    path = tmp_path / "older.json"
    path.write_text(json.dumps(_older_format_doc(wsn, jam), indent=2, sort_keys=True))
    wsn2, jam2 = rf.load_scenario(path)
    for name in ("positions", "beta", "kappa", "theta", "pd", "pf", "a_tilde"):
        np.testing.assert_array_equal(getattr(wsn2, name), getattr(wsn, name))
    assert wsn2.noise_power == wsn.noise_power
    for name in ("phi", "beta", "kappa", "positions", "a_j", "u_c"):
        np.testing.assert_array_equal(getattr(jam2, name), getattr(jam, name))


def _one_sensor_doc(n_antennas):
    return {"wsn": {"noise_power": 1.0, "n_antennas": n_antennas,
                    "positions": [[300.0, 0.0]], "beta": [1.0], "kappa": [1.0],
                    "theta": [0.5], "pd": [0.5], "pf": [0.05]}}


@pytest.mark.parametrize("doc,named", [({"wsn": {"noise_power": 1.0}}, "'beta'"),
                                       ([1, 2], "TypeError"), ("{", "Expecting"),
                                       # int() would load these as 2 and 1
                                       (_one_sensor_doc(2.7), "n_antennas"),
                                       (_one_sensor_doc(True), "n_antennas"),
                                       # a jammer's positions are required, as a sensor's
                                       ({**_one_sensor_doc(3), "jammer": {
                                           "phi": [0.3], "beta": [1.0], "kappa": [1.0]}},
                                        "'positions'"),
                                       # a null array is named by its field
                                       ({"wsn": {**_one_sensor_doc(3)["wsn"], "theta": None}},
                                        "theta: expected real numbers"),
                                       ({**_one_sensor_doc(3), "jammer": {
                                           "phi": [0.3], "beta": [1.0], "kappa": [1.0],
                                           "positions": None}},
                                        "positions: expected real numbers"),
                                       # float() and numpy would read these as numbers
                                       ({"wsn": {**_one_sensor_doc(3)["wsn"],
                                                 "noise_power": "2.5"}}, "noise_power: "),
                                       ({"wsn": {**_one_sensor_doc(3)["wsn"],
                                                 "noise_power": True}}, "noise_power: "),
                                       ({"wsn": {**_one_sensor_doc(3)["wsn"], "pd": [True]}},
                                        "pd: expected real numbers"),
                                       ({**_one_sensor_doc(3), "jammer": {
                                           "phi": [0.3, 1.0], "beta": [True, 1],
                                           "kappa": [1.0, 1.0],
                                           "positions": [[300.0, 0.0], [0.0, 400.0]]}},
                                        "beta: expected real numbers")])
def test_malformed_scenario_file_exits_2_before_touching_the_output(tmp_path, capsys,
                                                                    doc, named):
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = tmp_path / "x.csv"
    rc = cli.main(["run", "--scenario", str(path), "--rules", "nlos", "--out", str(out)])
    assert rc == 2 and not out.exists()
    err = capsys.readouterr().err
    assert str(path) in err and named in err


@pytest.mark.parametrize("part,key", [("jammer", "phi"), ("jammer", "kappa"),
                                      ("wsn", "theta"), ("wsn", "beta"),
                                      ("wsn", "noise_power")])
def test_scenario_file_with_a_non_finite_number_exits_2_naming_the_file(
        tmp_path, jammed_pair, capsys, part, key):
    wsn, jam = jammed_pair
    doc = _older_format_doc(wsn, jam)
    bad = math.nan if key in ("phi", "theta", "noise_power") else math.inf
    if key == "noise_power":
        doc[part][key] = bad
    else:
        doc[part][key][0] = bad
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(doc))       # json writes NaN and Infinity
    out = tmp_path / "x.csv"
    rc = cli.main(["run", "--scenario", str(path), "--rules", "nlos", "--out", str(out)])
    assert rc == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("usage error") and str(path) in err and "finite" in err
    assert f"{path}: {key}" in err  # the message names the entry


def test_constant_symbol_jammer_file_exits_2(tmp_path, jammed_pair, capsys):
    wsn, jam = jammed_pair
    path = tmp_path / "constant.json"
    path.write_text(json.dumps(_older_format_doc(wsn, jam, signal_policy="constant")))
    rc = cli.main(["run", "--scenario", str(path), "--rules", "nlos",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'constant'" in err and str(path) in err
