"""User equipment (UE) substrate.

Models the phones/devices of the paper's testbed: a modem with its own
signal-processing codec (downlink decode with UE-side HARQ combining),
RLC bearer endpoints, an uplink transmitter driven by grants broadcast in
downlink control, and the radio-link-failure (RLF) machinery whose 50 ms
timer and ~6.2 s reattach define the *baseline* outage when a vRAN fails
without Slingshot (§2.1, §8.1).
"""

from repro.ue.ue import UserEquipment, UeStats

__all__ = ["UserEquipment", "UeStats"]
