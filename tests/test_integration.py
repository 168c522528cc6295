"""End-to-end integration: the full pipeline the paper describes.

Jailbreak → chamber campaign → deploy → live CSS through the real SLS
protocol with the sector override — everything wired together, nothing
mocked.
"""

import numpy as np
import pytest

from repro.channel import MeasurementModel, anechoic_chamber, lab_environment
from repro.core import (
    CompressiveSectorSelector,
    RandomProbeDesigner,
    from_sweep_reports,
)
from repro.geometry import Orientation
from repro.mac import Station, SweepSession, mutual_training_time_us
from repro.measurement import CampaignConfig, PatternMeasurementCampaign
from repro.phased_array import PhasedArray


@pytest.fixture(scope="module")
def deployment():
    """Two jailbroken routers plus the DUT's measured pattern table."""
    dut_antenna = PhasedArray.talon(np.random.default_rng(31))
    peer_antenna = PhasedArray.talon(np.random.default_rng(32))
    environment = lab_environment(3.0)
    dut = Station("dut", 1, dut_antenna, position_m=environment.tx_position_m)
    peer = Station(
        "peer", 2, peer_antenna,
        position_m=environment.rx_position_m,
        orientation=Orientation(yaw_deg=180.0),
    )
    dut.jailbreak()
    peer.jailbreak()

    campaign = PatternMeasurementCampaign(
        dut_antenna, dut.codebook,
        reference_antenna=peer_antenna, reference_codebook=peer.codebook,
        environment=anechoic_chamber(3.0),
    )
    config = CampaignConfig(
        azimuths_deg=np.arange(-90.0, 91.0, 4.0),
        elevations_deg=(0.0, 8.0, 16.0, 24.0),
        n_sweeps=2,
    )
    table = campaign.run(config, np.random.default_rng(33))
    return environment, dut, peer, table


class TestLiveCompressiveSelection:
    def test_css_through_real_protocol(self, deployment, rng):
        """Reduced sweeps + override: the paper's closed loop."""
        environment, dut, peer, table = deployment
        selector = CompressiveSectorSelector(table)
        designer = RandomProbeDesigner()
        session = SweepSession(dut, peer, environment)

        chosen_sectors = []
        for _ in range(5):
            probe_ids = sorted(
                designer.design(14, selector.candidate_sector_ids, rng)
            )
            # The DUT sweeps only the probing subset.
            result = session.run(rng, initiator_probe_ids=probe_ids)
            reports = peer.drain_sweep_reports()
            measurements = [
                m for m in from_sweep_reports(reports) if m.sector_id in set(probe_ids)
            ]
            selection = selector.select(measurements)
            # Arm the override so the *next* training tells the DUT to
            # use the compressively chosen sector.
            peer.arm_sector_override(selection.sector_id)
            chosen_sectors.append(selection.sector_id)

        final = session.run(rng)
        assert final.initiator_tx_sector == chosen_sectors[-1]

        # Individual 14-probe draws can misfire; the *typical* choice
        # must be a strong sector (compare measured boresight gains).
        gains = {
            s: table.gain(s, 0.0, 0.0) for s in selector.candidate_sector_ids
        }
        best_gain = max(gains.values())
        chosen_gains = sorted(gains[s] for s in chosen_sectors)
        median_gain = chosen_gains[len(chosen_gains) // 2]
        assert median_gain >= best_gain - 6.0

    def test_reduced_sweep_saves_time_on_air(self, deployment, rng):
        environment, dut, peer, _ = deployment
        session = SweepSession(dut, peer, environment)
        probe_ids = list(dut.codebook.tx_sector_ids)[:14]
        reduced = session.run(
            rng, initiator_probe_ids=probe_ids, responder_probe_ids=probe_ids
        )
        full = session.run(rng)
        assert reduced.duration_us == pytest.approx(mutual_training_time_us(14), abs=0.2)
        assert full.duration_us == pytest.approx(mutual_training_time_us(34), abs=0.2)
        assert full.duration_us / reduced.duration_us == pytest.approx(2.3, abs=0.1)

    def test_pattern_table_and_protocol_agree(self, deployment, rng):
        """The live argmax should rank near the table's predicted best."""
        environment, dut, peer, table = deployment
        session = SweepSession(dut, peer, environment)
        winners = []
        for _ in range(5):
            session.run(rng)
            reports = peer.drain_sweep_reports()
            if reports:
                winners.append(max(reports, key=lambda r: r.snr_db).sector_id)
        predicted = table.best_sector(0.0, 0.0, [s for s in table.sector_ids if s != 0])
        predicted_gain = table.gain(predicted, 0.0, 0.0)
        winner_gains = [table.gain(w, 0.0, 0.0) for w in winners]
        assert max(winner_gains) >= predicted_gain - 4.0
