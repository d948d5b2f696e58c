"""Cell and UE configuration.

Defaults reproduce the paper's testbed (Table 1): 100 MHz at 3.5 GHz,
30 kHz subcarrier spacing (500 µs TTIs), TDD "DDDSU", three PHY-capable
servers behind a Tofino-class switch, and three UEs with distinct link
qualities (two phones and a Raspberry Pi).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.l2.rlc import RlcBearerConfig, RlcMode


@dataclass(frozen=True)
class UeProfile:
    """One UE's identity and radio characteristics."""

    ue_id: int
    name: str
    #: Mean link SNR; sets which MCS the UE sustains.
    mean_snr_db: float
    #: Slow-fading standard deviation.
    shadow_sigma_db: float = 1.2
    #: Probability per slot of entering a short fade.
    fade_probability: float = 0.0003


#: The paper's three UEs, with SNRs chosen so the phones sit near the
#: 16-QAM threshold (they benefit from the Fig 11 FEC upgrade) and the
#: Raspberry Pi enjoys a stronger link.
DEFAULT_UE_PROFILES: List[UeProfile] = [
    UeProfile(ue_id=1, name="OnePlus N10", mean_snr_db=15.5),
    UeProfile(ue_id=2, name="Samsung A52s", mean_snr_db=14.5),
    UeProfile(ue_id=3, name="Raspberry Pi", mean_snr_db=19.5),
]


def default_bearers() -> List[RlcBearerConfig]:
    """The two default radio bearers per UE.

    Bearer 1 (UM) carries latency-sensitive traffic — UDP iperf, video,
    ping — so radio losses surface to the app. Bearer 2 (AM) carries TCP,
    adding RLC retransmission underneath TCP's own recovery. This mirrors
    the standard mapping of traffic classes onto RLC modes.
    """
    return [
        RlcBearerConfig(bearer_id=1, mode=RlcMode.UM),
        RlcBearerConfig(bearer_id=2, mode=RlcMode.AM),
    ]


@dataclass
class CellConfig:
    """Everything needed to stand up one simulated cell."""

    seed: int = 0
    #: Tie-order race detector (see :class:`repro.sim.engine.Simulator`):
    #: when set, same-timestamp events fire in seeded-random order instead
    #: of FIFO. Traces must not depend on the value.
    tie_shuffle_seed: Optional[int] = None
    ue_profiles: List[UeProfile] = field(default_factory=lambda: list(DEFAULT_UE_PROFILES))
    #: Decoder iterations of the (initial) PHY software build.
    phy_decoder_iterations: int = 8
    #: Decoder iterations of the secondary, when it runs a different
    #: build (None = same as primary). Used by the upgrade experiment.
    secondary_decoder_iterations: Optional[int] = None
    #: Number of PHY-capable servers (>= 2 for a hot standby).
    num_phy_servers: int = 2
    #: Massive-MIMO mode (§10 extension): PHYs maintain long-lived
    #: beamforming state whose array gain lifts uplink SNR.
    massive_mimo: bool = False
