"""Bitwise references for the hoisted direction-only physics.

``PhasedArray.gain_db`` is the composition of a weight-independent half
(``direction_terms``: steering matrix, element power pattern, chassis
attenuation) and a per-weight half (``gain_db_at``).  Batch sweeps and
the link simulator compute the first half once per pose and reuse it
for every sector.  The contract is bit identity: the naive single-pass
bodies below are the model as it was written before the split, and every
comparison is exact (``np.array_equal`` / ``==``), never a tolerance.
"""

import copy
import io
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import (
    HumanBlocker,
    LinkBudget,
    LinkSimulator,
    anechoic_chamber,
    conference_room,
    lab_environment,
)
from repro.channel import batch
from repro.channel.batch import sweep_snr_matrix
from repro.channel.pathloss import path_loss_db
from repro.geometry import Orientation
from repro.geometry.spherical import direction_vector, vector_to_angles
from repro.phased_array import PhasedArray, WeightVector
from repro.phased_array.elements import wavelength_m
from repro.phased_array.impairments import ChassisBlockage, HardwareImpairments
from repro.phased_array.steering import steering_matrix

# ----------------------------------------------------------------------
# Naive references: one pass per call, nothing reused.
# ----------------------------------------------------------------------


def naive_attenuation_db(blockage, azimuth_deg, elevation_deg):
    """Chassis attenuation, re-seeding the ripple on every call."""
    azimuth = np.abs(np.asarray(azimuth_deg, dtype=float))
    elevation = np.asarray(elevation_deg, dtype=float)
    azimuth, elevation = np.broadcast_arrays(azimuth, elevation)
    ramp = np.clip(
        (azimuth - blockage.onset_deg) / (180.0 - blockage.onset_deg), 0.0, 1.0
    )
    attenuation = blockage.max_attenuation_db * ramp**2
    rng = np.random.default_rng(blockage.seed)
    coefficients = rng.normal(size=4)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=4)
    angle_rad = np.deg2rad(azimuth + 0.3 * elevation)
    ripple = np.zeros_like(attenuation)
    for order, (coefficient, phase) in enumerate(zip(coefficients, phases), start=2):
        ripple = ripple + coefficient * np.sin(order * angle_rad + phase)
    ripple = blockage.ripple_db * ripple / max(1.0, np.sqrt(len(coefficients)))
    return np.maximum(attenuation + ramp * ripple, 0.0)


def naive_element_response(impairments):
    gain_linear = 10.0 ** (impairments.gain_error_db / 20.0)
    response = gain_linear * np.exp(1j * impairments.phase_error_rad)
    return np.where(impairments.element_failed, 0.0, response)


def naive_gain_db(antenna, weights, azimuth_deg, elevation_deg):
    """``gain_db`` as one pass: every direction term rebuilt per call."""
    azimuths = np.asarray(azimuth_deg, dtype=float)
    elevations = np.asarray(elevation_deg, dtype=float)
    azimuths_b, elevations_b = np.broadcast_arrays(azimuths, elevations)
    shape = azimuths_b.shape

    steering = steering_matrix(antenna.layout, azimuths_b.ravel(), elevations_b.ravel())
    effective = weights.weights * naive_element_response(antenna.impairments)
    array_factor = steering @ effective
    array_power = np.abs(array_factor) ** 2

    element_power = antenna.element_power_pattern(azimuths_b, elevations_b).ravel()
    power = np.maximum(array_power * element_power, 1e-12)
    gain = 10.0 * np.log10(power)
    gain = gain - naive_attenuation_db(
        antenna.impairments.blockage, azimuths_b.ravel(), elevations_b.ravel()
    )
    gain = gain.reshape(shape)
    if gain.ndim == 0:
        return float(gain)
    return gain


def naive_received_power_dbm(
    simulator, tx_weights, rx_weights, tx_orientation, rx_orientation, shadowing_db
):
    """The per-ray link loop with nothing memoized across calls."""
    field_sum = 0.0 + 0.0j
    for ray, shadow_db in zip(simulator.rays, np.asarray(shadowing_db, dtype=float)):
        tx_az, tx_el = tx_orientation.world_direction_in_device_frame(
            *ray.departure_direction()
        )
        rx_az, rx_el = rx_orientation.world_direction_in_device_frame(
            *ray.arrival_direction()
        )
        gain_tx_db = naive_gain_db(simulator.tx_antenna, tx_weights, tx_az, tx_el)
        gain_rx_db = naive_gain_db(simulator.rx_antenna, rx_weights, rx_az, rx_el)
        amplitude_db = (
            simulator.budget.tx_power_dbm
            + gain_tx_db
            + gain_rx_db
            - path_loss_db(ray.path_length_m, simulator.budget.carrier_hz)
            - ray.extra_loss_db
            - shadow_db
        )
        phase = -2.0 * np.pi * ray.path_length_m / wavelength_m(simulator.budget.carrier_hz)
        field_sum += 10.0 ** (amplitude_db / 20.0) * np.exp(1j * phase)
    power_linear = max(abs(field_sum) ** 2, 1e-30)
    return float(10.0 * np.log10(power_linear))


def naive_sweep_snr_matrix(
    environment, tx_antenna, codebook, sector_ids, tx_orientations,
    rx_antenna, rx_weights, budget, shadowing_db,
    rx_orientation=Orientation(yaw_deg=180.0),
):
    """``sweep_snr_matrix`` with a full ``gain_db`` pass per sector."""
    rays = environment.rays()
    departure_world = np.stack([direction_vector(*ray.departure_direction()) for ray in rays])
    tx_az = np.empty((len(tx_orientations), len(rays)))
    tx_el = np.empty_like(tx_az)
    for row, orientation in enumerate(tx_orientations):
        tx_az[row], tx_el[row] = vector_to_angles(orientation.world_to_device(departure_world))
    wavelength = wavelength_m(budget.carrier_hz)
    fixed_db = np.empty(len(rays))
    phases = np.empty(len(rays))
    for index, ray in enumerate(rays):
        rx_az, rx_el = rx_orientation.world_direction_in_device_frame(*ray.arrival_direction())
        fixed_db[index] = (
            budget.tx_power_dbm
            + naive_gain_db(rx_antenna, rx_weights, rx_az, rx_el)
            - path_loss_db(ray.path_length_m, budget.carrier_hz)
            - ray.extra_loss_db
        )
        phases[index] = -2.0 * np.pi * ray.path_length_m / wavelength
    snr = np.empty((len(tx_orientations), len(sector_ids)))
    for column, sector_id in enumerate(sector_ids):
        tx_gain_db = naive_gain_db(tx_antenna, codebook[sector_id].weights, tx_az, tx_el)
        amplitude_db = tx_gain_db + fixed_db[np.newaxis, :] - shadowing_db
        field = 10.0 ** (amplitude_db / 20.0) * np.exp(1j * phases[np.newaxis, :])
        power = np.maximum(np.abs(field.sum(axis=1)) ** 2, 1e-30)
        snr[:, column] = 10.0 * np.log10(power) - budget.noise_floor_dbm
    return snr


# ----------------------------------------------------------------------
# Strategies and devices.
# ----------------------------------------------------------------------

azimuths = st.floats(-180.0, 180.0, allow_nan=False)
elevations = st.floats(-90.0, 90.0, allow_nan=False)
DEVICES = ("measured", "ideal", "failing")


@pytest.fixture(scope="module")
def devices(testbed):
    failing = HardwareImpairments.sample(
        32, np.random.default_rng(7), failure_probability=0.3
    )
    return {
        "measured": testbed.dut_antenna,
        "ideal": PhasedArray.talon(ideal=True),
        "failing": PhasedArray(layout=testbed.dut_antenna.layout, impairments=failing),
    }


def sector_weights(codebook, index):
    ids = codebook.tx_sector_ids
    return codebook[ids[index % len(ids)]].weights


class TestGainSplit:
    @settings(max_examples=60, deadline=None)
    @given(
        device=st.sampled_from(DEVICES),
        sector=st.integers(0, 63),
        azimuth=azimuths,
        elevation=elevations,
    )
    def test_scalar_directions(self, devices, codebook, device, sector, azimuth, elevation):
        antenna = devices[device]
        weights = sector_weights(codebook, sector)
        gain = antenna.gain_db(weights, azimuth, elevation)
        assert isinstance(gain, float)
        assert gain == naive_gain_db(antenna, weights, azimuth, elevation)

    @settings(max_examples=40, deadline=None)
    @given(
        device=st.sampled_from(DEVICES),
        sector=st.integers(0, 63),
        directions=st.lists(st.tuples(azimuths, elevations), min_size=1, max_size=40),
    )
    def test_array_directions(self, devices, codebook, device, sector, directions):
        antenna = devices[device]
        weights = sector_weights(codebook, sector)
        az, el = (np.array(column) for column in zip(*directions))
        assert np.array_equal(
            antenna.gain_db(weights, az, el), naive_gain_db(antenna, weights, az, el)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        device=st.sampled_from(DEVICES),
        sector=st.integers(0, 63),
        az=st.lists(azimuths, min_size=1, max_size=12),
        el=st.lists(elevations, min_size=1, max_size=6),
    )
    def test_broadcast_directions(self, devices, codebook, device, sector, az, el):
        antenna = devices[device]
        weights = sector_weights(codebook, sector)
        az_column = np.array(az)[:, np.newaxis]
        el_row = np.array(el)[np.newaxis, :]
        gains = antenna.gain_db(weights, az_column, el_row)
        assert gains.shape == (len(az), len(el))
        assert np.array_equal(gains, naive_gain_db(antenna, weights, az_column, el_row))
        assert np.array_equal(
            antenna.gain_db(weights, az_column, el[0]),
            naive_gain_db(antenna, weights, az_column, el[0]),
        )

    def test_codebook_gains_share_one_terms_object(self, devices, codebook):
        antenna = devices["measured"]
        az_mesh, el_mesh = np.meshgrid(np.linspace(-180, 180, 37), np.linspace(-60, 60, 9))
        gains = codebook.gains_db(antenna, az_mesh, el_mesh)
        assert list(gains) == list(codebook.sector_ids)
        for sector_id, sector_gains in gains.items():
            expected = naive_gain_db(antenna, codebook[sector_id].weights, az_mesh, el_mesh)
            assert np.array_equal(sector_gains, expected)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        ripple=st.floats(0.0, 10.0),
        az=st.lists(azimuths, min_size=1, max_size=20),
        elevation=elevations,
    )
    def test_attenuation_draws_ripple_once(self, seed, ripple, az, elevation):
        blockage = ChassisBlockage(ripple_db=ripple, seed=seed)
        az = np.array(az)
        first = blockage.attenuation_db(az, elevation)
        assert np.array_equal(first, naive_attenuation_db(blockage, az, elevation))
        assert np.array_equal(blockage.attenuation_db(az, elevation), first)

    def test_blockage_identity_ignores_cached_ripple(self):
        assert ChassisBlockage(seed=3) == ChassisBlockage(seed=3)
        assert hash(ChassisBlockage(seed=3)) == hash(ChassisBlockage(seed=3))
        assert ChassisBlockage(seed=3) != ChassisBlockage(seed=4)

    def test_element_response_is_read_only(self, devices):
        for antenna in devices.values():
            response = antenna.impairments.element_response()
            assert not response.flags.writeable
            with pytest.raises(ValueError):
                response[0] = 0.0
            assert response is antenna.impairments.element_response()
            assert np.array_equal(response, naive_element_response(antenna.impairments))

    def test_mismatched_weights_rejected(self, devices):
        antenna = devices["ideal"]
        with pytest.raises(ValueError):
            antenna.gain_db_at(WeightVector.uniform(8), antenna.direction_terms(0.0, 0.0))
        with pytest.raises(ValueError):
            antenna.gain_db(WeightVector.uniform(8), 0.0, 0.0)


def blocked_room():
    return conference_room(6.0).with_blockers(
        [HumanBlocker(position_m=np.array([3.0, 0.1, 0.0]))]
    )


ROOMS = {
    "chamber": lambda: anechoic_chamber(3.0),
    "lab": lambda: lab_environment(3.0),
    "conference": lambda: conference_room(6.0),
    "blocked": blocked_room,
}


class TestSweepMatrix:
    """The memoized ray terms and the one-batch pose pass against the naive
    per-pose, per-sector body, with ``==`` on every element."""

    @staticmethod
    def args(testbed, environment, orientations, sector_ids):
        return (
            environment,
            testbed.dut_antenna,
            testbed.dut_codebook,
            sector_ids,
            orientations,
            testbed.ref_antenna,
            testbed.ref_codebook.rx_sector.weights,
        )

    @staticmethod
    def sectors(testbed, indices):
        ids = testbed.dut_codebook.tx_sector_ids
        return [ids[index % len(ids)] for index in indices]

    def check(self, testbed, environment, orientations, sector_ids,
              shadowing=None, rx_orientation=None):
        args = self.args(testbed, environment, orientations, sector_ids)
        fast = sweep_snr_matrix(
            *args, rx_orientation=rx_orientation, budget=testbed.budget,
            shadowing_db=shadowing,
        )
        if shadowing is None:
            shadowing = np.zeros((len(orientations), len(environment.rays())))
        naive = naive_sweep_snr_matrix(
            *args, testbed.budget, shadowing,
            rx_orientation=rx_orientation or Orientation(yaw_deg=180.0),
        )
        assert fast.shape == (len(orientations), len(sector_ids))
        assert np.array_equal(fast, naive)
        return fast

    @settings(max_examples=30, deadline=None)
    @given(
        room=st.sampled_from(sorted(ROOMS)),
        poses=st.lists(
            st.tuples(st.floats(-180.0, 180.0), st.floats(-30.0, 30.0)),
            min_size=0,
            max_size=12,
        ),
        sectors=st.lists(st.integers(0, 63), min_size=1, max_size=8),
        shadow_seed=st.one_of(st.none(), st.integers(0, 2**16)),
        rx_yaw=st.one_of(st.none(), st.floats(-180.0, 180.0)),
    )
    def test_matches_per_sector_gain(
        self, testbed, room, poses, sectors, shadow_seed, rx_yaw
    ):
        environment = ROOMS[room]()
        orientations = [Orientation(yaw_deg=yaw, pitch_deg=pitch) for yaw, pitch in poses]
        shadowing = None
        if shadow_seed is not None:
            shadowing = np.random.default_rng(shadow_seed).normal(
                0.0, 0.8, (len(orientations), len(environment.rays()))
            )
        rx_orientation = None if rx_yaw is None else Orientation(yaw_deg=rx_yaw, pitch_deg=5.0)
        self.check(
            testbed, environment, orientations, self.sectors(testbed, sectors),
            shadowing, rx_orientation,
        )

    @pytest.mark.parametrize("room", sorted(ROOMS))
    def test_zero_poses(self, testbed, room):
        fast = self.check(testbed, ROOMS[room](), [], self.sectors(testbed, range(5)))
        assert fast.shape == (0, 5)

    def test_rotation_head_grid(self, testbed):
        """A lab grid with a pitch per pose, as the rotation head sets it."""
        rng = np.random.default_rng(11)
        orientations = [
            Orientation(yaw_deg=-azimuth, pitch_deg=elevation + rng.normal(0.0, 0.5))
            for elevation in (0.0, 15.0, 30.0)
            for azimuth in np.arange(-90.0, 90.0 + 1e-9, 10.0)
        ]
        self.check(
            testbed, lab_environment(3.0), orientations,
            list(testbed.dut_codebook.tx_sector_ids),
        )

    def test_equal_environment_hits_the_memo(self, testbed):
        batch._fixed_terms_of.cache_clear()
        orientations = [Orientation(yaw_deg=20.0, pitch_deg=-4.0)]
        sector_ids = self.sectors(testbed, range(4))
        first = self.check(testbed, blocked_room(), orientations, sector_ids)
        assert batch._fixed_terms_of.cache_info().misses == 1
        # A new, equal-valued environment: same key, same terms.
        again = self.check(testbed, blocked_room(), orientations, sector_ids)
        info = batch._fixed_terms_of.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert np.array_equal(first, again)

    def test_changed_blockers_miss_the_memo(self, testbed):
        batch._fixed_terms_of.cache_clear()
        orientations = [Orientation(yaw_deg=0.0)]
        sector_ids = self.sectors(testbed, range(4))
        clear = self.check(testbed, conference_room(6.0), orientations, sector_ids)
        blocked = self.check(testbed, blocked_room(), orientations, sector_ids)
        thinner = self.check(
            testbed,
            conference_room(6.0).with_blockers(
                [HumanBlocker(position_m=np.array([3.0, 0.1, 0.0]), attenuation_db=10.0)]
            ),
            orientations,
            sector_ids,
        )
        info = batch._fixed_terms_of.cache_info()
        assert (info.hits, info.misses) == (0, 3)
        assert not np.array_equal(clear, blocked)
        assert not np.array_equal(blocked, thinner)

    def test_rx_device_and_budget_are_keyed(self, testbed):
        batch._fixed_terms_of.cache_clear()
        args = self.args(
            testbed, lab_environment(3.0), [Orientation()], self.sectors(testbed, range(3))
        )
        base = sweep_snr_matrix(*args, budget=testbed.budget)
        louder = sweep_snr_matrix(
            *args, budget=LinkBudget(tx_power_dbm=testbed.budget.tx_power_dbm + 3.0)
        )
        turned = sweep_snr_matrix(
            *args, rx_orientation=Orientation(yaw_deg=150.0), budget=testbed.budget
        )
        assert batch._fixed_terms_of.cache_info().misses == 3
        assert not np.array_equal(base, louder)
        assert not np.array_equal(base, turned)

    def test_memo_is_bounded(self, testbed):
        batch._fixed_terms_of.cache_clear()
        sector_ids = self.sectors(testbed, range(2))
        for index in range(batch.FIXED_TERMS_MEMO_SIZE + 5):
            environment = conference_room(6.0).with_blockers(
                [HumanBlocker(position_m=np.array([3.0, 0.01 * index, 0.0]))]
            )
            sweep_snr_matrix(
                *self.args(testbed, environment, [Orientation()], sector_ids),
                budget=testbed.budget,
            )
        info = batch._fixed_terms_of.cache_info()
        assert info.currsize == batch.FIXED_TERMS_MEMO_SIZE
        assert info.misses == batch.FIXED_TERMS_MEMO_SIZE + 5

    def test_memoized_terms_are_read_only(self, testbed):
        sweep_snr_matrix(
            *self.args(testbed, lab_environment(3.0), [Orientation()], [0]),
            budget=testbed.budget,
        )
        key = batch._memo_key(
            (
                lab_environment(3.0),
                testbed.ref_antenna,
                testbed.ref_codebook.rx_sector.weights,
                Orientation(yaw_deg=180.0),
                testbed.budget,
            )
        )
        for array in batch._fixed_terms_of(key):
            assert not array.flags.writeable


def _key_inputs(testbed, environment):
    return (
        environment,
        testbed.ref_antenna,
        testbed.ref_codebook.rx_sector.weights,
        Orientation(yaw_deg=180.0),
        testbed.budget,
    )


def _arrays_in(value):
    """Every ndarray the pickling of ``value`` reaches, once each."""
    found = {}

    class Collector(pickle.Pickler):
        def reducer_override(self, obj):
            if isinstance(obj, np.ndarray):
                found[id(obj)] = obj
            return NotImplemented

    Collector(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    return list(found.values())


class TestMemoKey:
    """``sweep_snr_matrix``'s memo key pickles each array as its bytes,
    dtype and shape: the key is the inputs' value, and nothing else."""

    @pytest.mark.parametrize("room", sorted(ROOMS))
    def test_equal_inputs_give_equal_keys(self, testbed, room):
        first = _key_inputs(testbed, ROOMS[room]())
        again = copy.deepcopy(_key_inputs(testbed, ROOMS[room]()))
        assert batch._memo_key(first) == batch._memo_key(again)
        # An array's memory layout is not part of its value.
        weights = testbed.ref_codebook.rx_sector.weights
        strided = np.repeat(weights.weights, 2)[::2]
        assert not strided.flags.c_contiguous
        assert batch._memo_key(strided) == batch._memo_key(weights.weights.copy())

    @pytest.mark.parametrize("room", ["chamber", "conference"])
    def test_any_changed_array_value_changes_the_key(self, testbed, room):
        inputs = copy.deepcopy(_key_inputs(testbed, ROOMS[room]()))
        if room == "conference":
            inputs = (blocked_room(),) + inputs[1:]
        key = batch._memo_key(inputs)
        arrays = [array for array in _arrays_in(inputs) if array.size]
        assert len(arrays) >= 8
        for array in arrays:
            array.flags.writeable = True
            flat = array.reshape(-1)
            for position in {0, flat.size - 1}:
                saved = flat[position].copy()
                if array.dtype == bool:
                    flat[position] = not saved
                elif np.iscomplexobj(array):
                    flat[position] = saved + 1e-9j
                else:
                    flat[position] = np.nextafter(saved, np.inf)
                assert batch._memo_key(inputs) != key, (array.dtype, array.shape)
                flat[position] = saved
            assert batch._memo_key(inputs) == key

    @pytest.mark.parametrize("room", sorted(ROOMS))
    def test_terms_rebuilt_from_a_key_equal_the_plain_pickles(self, testbed, room):
        inputs = _key_inputs(testbed, ROOMS[room]())
        trace = batch._fixed_terms_of.__wrapped__
        plain = trace(pickle.dumps(inputs, protocol=pickle.HIGHEST_PROTOCOL))
        for mine, theirs in zip(trace(batch._memo_key(inputs)), plain):
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            assert mine.tobytes() == theirs.tobytes()


class TestLinkPoseMemo:
    POSES = (
        Orientation(),
        Orientation(yaw_deg=-0.0),
        Orientation(yaw_deg=35.0, pitch_deg=-10.0),
        Orientation(yaw_deg=-120.0, pitch_deg=20.0),
        Orientation(yaw_deg=180.0),
    )
    RX_POSES = (None, Orientation(yaw_deg=170.0), Orientation(yaw_deg=180.0, pitch_deg=5.0))

    @pytest.fixture(scope="class")
    def simulators(self, testbed):
        return {
            name: LinkSimulator(
                environment, testbed.dut_antenna, testbed.ref_antenna, LinkBudget()
            )
            for name, environment in (
                ("room", conference_room(6.0)),
                ("lab", lab_environment(3.0)),
            )
        }

    def check(self, simulator, codebook, call):
        tx_pose, rx_pose, sector, shadow_seed = call
        shadowing = np.random.default_rng(shadow_seed).normal(0.0, 0.8, len(simulator.rays))
        weights = sector_weights(codebook, sector)
        rx_weights = codebook.rx_sector.weights
        power = simulator.received_power_dbm(
            weights, rx_weights, self.POSES[tx_pose], self.RX_POSES[rx_pose], shadowing
        )
        rx_orientation = self.RX_POSES[rx_pose] or Orientation(yaw_deg=180.0)
        expected = naive_received_power_dbm(
            simulator, weights, rx_weights, self.POSES[tx_pose], rx_orientation, shadowing
        )
        assert power == expected

    @settings(max_examples=30, deadline=None)
    @given(
        room=st.sampled_from(("room", "lab")),
        calls=st.lists(
            st.tuples(
                st.integers(0, len(POSES) - 1),
                st.integers(0, len(RX_POSES) - 1),
                st.integers(0, 63),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_any_call_sequence(self, simulators, codebook, room, calls):
        for call in calls:
            self.check(simulators[room], codebook, call)

    def test_repeated_pose_changed_shadowing(self, simulators, codebook):
        simulator = simulators["room"]
        for sector in range(20):
            self.check(simulator, codebook, (2, 0, sector, sector % 4))

    def test_alternating_poses(self, simulators, codebook):
        simulator = simulators["room"]
        for step in range(12):
            self.check(simulator, codebook, (step % 2 + 2, step % 3, step, 0))

    def test_signed_zero_yaw(self, simulators, codebook):
        simulator = simulators["lab"]
        for tx_pose in (0, 1, 0, 1):
            self.check(simulator, codebook, (tx_pose, 0, 5, 1))

    def test_memo_holds_one_pose(self, simulators, codebook):
        simulator = simulators["room"]
        for tx_pose in range(len(self.POSES)):
            self.check(simulator, codebook, (tx_pose, 0, 1, 0))
        key, ray_terms = simulator._pose_memo
        assert key == (self.POSES[-1], Orientation(yaw_deg=180.0))
        assert len(ray_terms) == len(simulator.rays)
