"""A PHY's uplink completion exists only in uplink slots.

``PhyProcess`` schedules ``_finish_uplink`` (and registers the slot with
a fleet backend) only when ``TDD.slot_type(abs_slot)`` is
``SlotType.UPLINK``. That is sound only while nothing a completion
consumes can be keyed by another slot: the L2 grants UL PDUs only in
uplink slots and the RU captures only there, so a D / S slot's
completion would have had no input.

A default cell carrying uplink UDP is driven through a kill of the
primary, its restart as the (dormant) standby and a planned migration
back, and three things are held:

* every ``UL_TTI.request`` that carries PDUs names an uplink slot;
* every capture, feedback or BSR the PHY files is keyed by an uplink
  slot;
* each live PHY fires exactly one ``_finish_uplink`` for every uplink
  slot it processed (eager or dormant) and none for a D / S slot; the
  only uplink slots without one are those whose completion a crash
  cancelled or the run's end cut off.
"""

from collections import Counter
from typing import Dict, List, Tuple

import pytest

from repro.apps import UdpIperfUplink
from repro.cell import CellConfig, build_slingshot_cell
from repro.fapi.messages import UlTtiRequest
from repro.phy import process as process_module
from repro.phy.numerology import TDD, SlotType
from repro.phy.process import PhyProcess
from repro.sim.units import MS

#: Uplink traffic from 30 ms, primary killed at 100 ms, restarted as the
#: standby at 140 ms, planned migration back to it at 180 ms.
FLOW_START_NS = 30 * MS
KILL_NS = 100 * MS
RESTART_NS = 140 * MS
MIGRATE_NS = 180 * MS
END_NS = 240 * MS


def _uplink(slot: int) -> bool:
    return TDD.slot_type(slot) is SlotType.UPLINK


@pytest.fixture(scope="module")
def observed():
    """One instrumented run: what each PHY was asked, filed and finished."""
    seen: Dict[str, list] = {
        "ul_pdu_slots": [], "filed_keys": [], "indicated": [], "finished": [],
        "crashes": [],
    }
    inner_receive_fapi = PhyProcess.receive_fapi
    inner_receive_frame = PhyProcess.receive_frame
    inner_indication = PhyProcess._emit_slot_indication
    inner_finish = PhyProcess._finish_uplink
    inner_crash = PhyProcess.crash

    def receive_fapi(self, message, channel):
        if isinstance(message, UlTtiRequest) and message.pdus:
            seen["ul_pdu_slots"].append(message.slot)
        inner_receive_fapi(self, message, channel)

    def receive_frame(self, frame, ingress):
        inner_receive_frame(self, frame, ingress)
        for cell in self.cells.values():
            seen["filed_keys"].extend(slot for slot, _ in cell.captures)
            seen["filed_keys"].extend(cell.feedback_only)
            seen["filed_keys"].extend(cell.bsr)

    def emit_slot_indication(self, cell, abs_slot):
        seen["indicated"].append((self.phy_id, abs_slot, self.sim.now, self.asleep))
        inner_indication(self, cell, abs_slot)

    def finish_uplink(self, cell, abs_slot, ul_pdus):
        seen["finished"].append((self.phy_id, abs_slot))
        inner_finish(self, cell, abs_slot, ul_pdus)

    def crash(self, reason="killed"):
        if self.alive:
            seen["crashes"].append((self.phy_id, self.sim.now))
        inner_crash(self, reason)

    patch = pytest.MonkeyPatch()
    patch.setattr(PhyProcess, "receive_fapi", receive_fapi)
    patch.setattr(PhyProcess, "receive_frame", receive_frame)
    patch.setattr(PhyProcess, "_emit_slot_indication", emit_slot_indication)
    patch.setattr(PhyProcess, "_finish_uplink", finish_uplink)
    patch.setattr(PhyProcess, "crash", crash)
    try:
        cell = build_slingshot_cell(CellConfig(seed=11))
        flow = UdpIperfUplink(
            cell.sim, cell.server, cell.ue(1), "ul", 1, bitrate_bps=4e6
        )
        cell.sim.at(FLOW_START_NS, flow.start)
        cell.run_until(KILL_NS)
        cell.kill_phy(0)
        cell.run_until(RESTART_NS)
        cell.phy_servers[0].phy.restart()
        cell.l2_orion.initialize_secondary(0, 0)
        cell.run_until(MIGRATE_NS)
        cell.planned_migration()
        cell.run_until(END_NS)
    finally:
        patch.undo()
    seen["cell"] = cell
    seen["received"] = flow.sink.stats.packets_received
    return seen


def test_the_run_covers_kill_restart_migration_and_uplink(observed):
    cell = observed["cell"]
    assert observed["crashes"] == [(0, KILL_NS)]
    assert cell.trace.count("phy.restart") == 1
    assert cell.middlebox.stats.migrations_executed == 2
    assert observed["received"] > 0
    assert observed["ul_pdu_slots"] and observed["filed_keys"]
    # Both PHYs processed slots, and the restarted standby ran some dormant.
    assert {phy for phy, _, _, _ in observed["indicated"]} == {0, 1}
    assert any(asleep for _, _, _, asleep in observed["indicated"])


def test_ul_pdus_only_in_uplink_slots(observed):
    assert [s for s in observed["ul_pdu_slots"] if not _uplink(s)] == []


def test_captures_feedback_and_bsr_are_keyed_by_uplink_slots(observed):
    assert [s for s in observed["filed_keys"] if not _uplink(s)] == []


def test_one_completion_per_processed_uplink_slot_and_none_otherwise(observed):
    finished = Counter(observed["finished"])
    assert [key for key in finished if not _uplink(key[1])] == []
    assert [key for key, count in finished.items() if count != 1] == []
    crashes: List[Tuple[int, int]] = observed["crashes"]
    slot_clock = observed["cell"].slot_clock
    missing = []
    for phy, slot, at, _ in observed["indicated"]:
        if not _uplink(slot):
            continue
        # The completion lands within the slot after its pipeline.
        due = slot_clock.slot_start(slot + process_module.UL_PIPELINE_SLOTS + 1)
        cut = due > END_NS or any(
            who == phy and at <= when <= due for who, when in crashes
        )
        if (phy, slot) not in finished and not cut:
            missing.append((phy, slot))
    assert missing == []
    indicated_uplink = {
        (phy, slot) for phy, slot, _, _ in observed["indicated"] if _uplink(slot)
    }
    assert set(finished) <= indicated_uplink
    assert len(finished) > 100
