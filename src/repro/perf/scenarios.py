"""Deterministic scenario runners behind the golden digests.

Each runner builds a full Slingshot cell, drives a short, fixed workload
through a resilience event, and returns the cell so callers can read
``cell.trace`` and ``cell.sim``. ``tests/test_perf_digests.py`` pins each
scenario's canonical trace digest as a golden value, so any change that
alters behaviour — an event reordered, an RNG draw added, a float
perturbed — fails tier-1 loudly. The same runners are what
``repro lint --sanitize`` records RNG draws over and what the checkpoint
tests split with ``pause_at_s`` to restore mid-run. Durations are
deliberately short (about a second of simulated time) so the digest
tests stay cheap.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.apps.dispatch import FlowDispatch
from repro.apps.iperf import TcpIperfDownlink, UdpIperfUplink
from repro.apps.ping import PingClient, UePingResponder
from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_slingshot_cell
from repro.sim.units import MS, run_for_ns, run_until_ns, s_to_ns, seconds


def _fail_and_finish(
    cell,
    failure_at_s: float,
    duration_s: float,
    pause_at_s: Optional[float],
    on_pause: Optional[Callable],
):
    """Kill the primary PHY at ``failure_at_s`` and run to ``duration_s``.

    ``pause_at_s``/``on_pause`` split the run at an intermediate time and
    hand the live cell to the callback — the checkpoint tests capture
    there. Splitting ``run_until`` is behaviour-identical to one call, so
    the golden digest is unaffected.
    """
    cell.kill_phy_at(0, s_to_ns(failure_at_s))
    if pause_at_s is not None:
        run_until_ns(cell, seconds(pause_at_s))
        if on_pause is not None:
            on_pause(cell)
    run_until_ns(cell, seconds(duration_s))
    return cell


def run_fig9_cell(
    duration_s: float = 1.2,
    failure_at_s: float = 0.6,
    seed: int = 0,
    pause_at_s: Optional[float] = None,
    on_pause: Optional[Callable] = None,
):
    """Fig 9 shape: three UEs pinging every 10 ms through a PHY failover.

    ``pause_at_s``/``on_pause``: see :func:`_fail_and_finish`.
    """
    cell = build_slingshot_cell(CellConfig(seed=seed))
    clients = {}
    for ue_id, ue in cell.ues.items():
        flow = f"ping-{ue_id}"
        responder = UePingResponder(ue, flow, bearer_id=1)
        ue.dl_sink = FlowDispatch(flow, responder.on_packet, ue.dl_sink)
        clients[ue.name] = PingClient(
            cell.sim,
            cell.server,
            ue_id=ue_id,
            flow_id=flow,
            bearer_id=1,
            interval_ns=10 * MS,
        )
    run_for_ns(cell, seconds(0.2))
    for client in clients.values():
        client.start()
    return _fail_and_finish(cell, failure_at_s, duration_s, pause_at_s, on_pause)


def _bulk_flow_cell(seed: int):
    """Fig 10's isolated setting: one good-SNR UE on its own cell."""
    return build_slingshot_cell(
        CellConfig(
            seed=seed,
            ue_profiles=[
                UeProfile(
                    ue_id=1, name="UE", mean_snr_db=17.0,
                    shadow_sigma_db=0.6, fade_probability=0.0,
                )
            ],
        )
    )


def run_fig10_smoke_cell(
    duration_s: float = 1.0,
    event_at_s: float = 0.6,
    seed: int = 0,
    pause_at_s: Optional[float] = None,
    on_pause: Optional[Callable] = None,
):
    """Fig 10 smoke: one UE, uplink UDP iperf through a PHY failover.

    ``pause_at_s``/``on_pause``: see :func:`_fail_and_finish`.
    """
    cell = _bulk_flow_cell(seed)
    flow = UdpIperfUplink(
        cell.sim, cell.server, cell.ue(1), "iperf", 1, bitrate_bps=15.8e6
    )
    run_for_ns(cell, seconds(0.2))
    flow.start()
    return _fail_and_finish(cell, event_at_s, duration_s, pause_at_s, on_pause)


def run_fig10_tcp_dl_cell(
    duration_s: float = 0.85,
    event_at_s: float = 0.46,
    seed: int = 0,
    pause_at_s: Optional[float] = None,
    on_pause: Optional[Callable] = None,
):
    """Fig 10's TCP curve: one UE, bulk downlink TCP through a PHY
    failover — the window stands at 1,000-2,500 segments when a burst
    of them is lost, so SACK/RACK recovery is the transport layer's work.

    ``pause_at_s``/``on_pause``: see :func:`_fail_and_finish`.
    """
    cell = _bulk_flow_cell(seed)
    flow = TcpIperfDownlink(cell.sim, cell.server, cell.ue(1), "iperf", 1)
    run_for_ns(cell, seconds(0.2))
    flow.start()
    return _fail_and_finish(cell, event_at_s, duration_s, pause_at_s, on_pause)


def _chaos_runner(scenario_name: str, seed: int) -> Callable:
    """One (scenario, seed) run of the chaos matrix, its plan armed at
    build; ``repro chaos`` branches the same run from a warm base."""

    def run():
        from repro.faults.campaign import build_probe_harness, drive_to
        from repro.faults.scenarios import RUN_END_NS, scenario_by_name

        scenario = scenario_by_name()[scenario_name]
        probed = build_probe_harness(
            seed, num_phy_servers=scenario.num_phy_servers, plan=scenario.plan
        )
        drive_to(probed, RUN_END_NS)
        return probed.cell

    run.__name__ = f"run_chaos_{scenario_name}"
    return run


#: Scenario name -> zero-argument runner returning a finished cell.
#: These five are the golden-digest set.
DIGEST_SCENARIOS: Dict[str, Callable] = {
    "fig9": run_fig9_cell,
    "fig10_smoke": run_fig10_smoke_cell,
    "fig10_tcp_dl": run_fig10_tcp_dl_cell,
    "chaos_cmd_drop": _chaos_runner("cmd_drop", seed=1),
    "chaos_crash_restart": _chaos_runner("crash_restart", seed=1),
}


def scenario_digest(name: str) -> str:
    """Canonical trace digest of one named scenario (fresh run)."""
    return DIGEST_SCENARIOS[name]().trace.digest()
