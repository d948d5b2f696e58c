"""Checkpointable-state manifest (GENERATED — do not edit by hand).

One entry per runtime component class that carries checkpointable
state: ``qualname -> tuple of attribute names``. The checkpoint layer
(:mod:`repro.checkpoint.snapshot`) walks every captured/restored object
graph and asserts each listed instance still carries all of its listed
attributes; lint rule CKPT003 asserts this literal matches the static
state inventory. Regenerate with::

    python -m repro lint --write-manifest

after adding or removing mutable state on any runtime class.
"""

from __future__ import annotations

from typing import Dict, Tuple

STATE_MANIFEST: Dict[str, Tuple[str, ...]] = {
    'repro.apps.ping.PingClient': ('_outstanding', '_running', '_seq', 'samples'),
    'repro.apps.video.VideoReceiver': ('bins', 'bytes_received', 'packets_received'),
    'repro.apps.video.VideoSender': ('_frame_index', '_running', '_seq', 'frames_sent'),
    'repro.cell.deployment.BaselineCell': ('_reroute_armed',),
    'repro.core.failure_detector.FailureDetector': ('_deadline', '_grid_origin_ns', '_lag', '_last_heartbeat_ns', '_monitored', '_reported', '_sim', '_ticks_applied', 'detections'),
    'repro.core.fh_middlebox.FronthaulMiddlebox': ('_switch', 'detector', 'l2_table', 'notification_target'),
    'repro.core.migration.ClusterConfig': ('servers',),
    'repro.core.orion.L2SideOrion': ('cells', 'phy_orion_macs'),
    'repro.core.orion.PhySideOrion': ('_last_tti_slot', '_watchdog_running', 'nulls_injected'),
    'repro.core.orion._ServiceQueue': ('_busy_until', 'depth', 'max_depth'),
    'repro.corenet.core.CoreNetwork': ('_bearer_profiles', '_l2_for_ue', '_ue_snr_hint', '_ues', 'l2', 'packets_dl', 'packets_ul'),
    'repro.corenet.server.AppServer': ('_handlers', 'packets_received', 'packets_sent'),
    'repro.fapi.channels.ShmChannel': ('_pending', 'endpoint', 'messages_sent'),
    'repro.faults.injector.FaultInjector': ('_armed', 'impairments'),
    'repro.faults.soak.ProbeGapMonitor': ('deliveries', 'last_rx_ns', 'max_gap_ns'),
    'repro.fleet.phy_backend.FleetPhyBackend': ('_cache', '_cache_time', '_planned'),
    'repro.fleet.pool.StandbyPool': ('available', 'exhaustions', 'promotions', 'rewarmed'),
    'repro.fleet.population.FleetPopulation': ('cell_down', 'degraded_user_epochs', 'epochs', 'served_user_epochs'),
    'repro.fronthaul.air.AirInterface': ('_ports',),
    'repro.fronthaul.air.UeRadioPort': ('_pending_ul',),
    'repro.fronthaul.ru.RadioUnit': ('_cplane', '_dl_data', '_last_source_phy', '_sources_per_slot', '_started'),
    'repro.l2.mac.L2Process': ('_dl_rr_cursor', '_started', 'fapi_tx', 'ues'),
    'repro.l2.rlc.RlcReceiver': ('_expected_seq', '_fallback_clock', '_held', '_partial', '_seen', '_seen_max', 'pdus_since_status'),
    'repro.l2.rlc.RlcTransmitter': ('_flight', '_next_seq', '_queue', '_queued_bytes', '_retx', '_trail_misses'),
    'repro.net.addresses.MacAllocator': ('_next',),
    'repro.net.link.Link': ('_deferred', '_line_free_at', '_serialization_ns', 'bytes_sent', 'endpoint', 'frames_sent'),
    'repro.net.p4.control.ControlPlane': ('updates_issued',),
    'repro.net.p4.registers.RegisterArray': ('_cells', 'reads', 'writes'),
    'repro.net.p4.tables.MatchActionTable': ('_entries', 'hits', 'lookups'),
    'repro.net.ptp.PtpClock': ('_base_offset_ns', '_drift', '_last_sync_ns', 'disciplined', 'epoch_ns', 'syncs_applied'),
    'repro.net.switch.StaticL2Pipeline': ('mac_table',),
    'repro.net.switch.Switch': ('_ports', 'frames_dropped', 'frames_processed'),
    'repro.net.switch.SwitchPort': ('frames_in', 'frames_out'),
    'repro.phy.channel.UeChannelModel': ('_fade_until_slot', '_last_slot', '_shadow_db'),
    'repro.phy.harq.HarqBuffer': ('soft_llrs', 'tb_id', 'transmissions'),
    'repro.phy.harq.HarqProcessPool': ('_buffers',),
    'repro.phy.mimo.BeamformingTracker': ('_state', 'discards', 'soundings_processed'),
    'repro.phy.process.PhyProcess': ('_pending', '_tick_handle', 'alive', 'cells', 'codec', 'hung', 'service_inflation_ns', 'snr_filter'),
    'repro.phy.snr_filter.SnrMovingAverage': ('_state',),
    'repro.sim.engine.EventHandle': ('cancelled',),
    'repro.sim.engine.PeriodicHandle': ('_event',),
    'repro.sim.engine.Simulator': ('_cancelled_in_queue', '_events_processed', '_queue', '_running', 'compactions', 'now'),
    'repro.sim.rng.BatchedIntegers': ('_buf', '_pos'),
    'repro.sim.rng.RngRegistry': ('_streams',),
    'repro.sim.trace.TraceRecorder': ('_by_category', '_chain', '_events', '_evicted_events', '_evicted_horizon_ns'),
    'repro.transport.tcp.TcpReceiver': ('_held', '_ooo', 'bins', 'bytes_delivered', 'rcv_nxt', 'segments_received'),
    'repro.transport.tcp.TcpSender': ('_flight', '_lost', '_lost_heap', '_rack_time', '_recover', '_rto_handle', '_running', '_sack_ranges', '_sacked', '_unjudged', 'cwnd', 'in_fast_recovery', 'rto_ns', 'rttvar_ns', 'snd_nxt', 'snd_una', 'srtt_ns', 'ssthresh'),
    'repro.transport.udp.UdpSender': ('_running', '_seq', 'bitrate_bps'),
    'repro.transport.udp.UdpSink': ('_seen', '_seen_max_seq', 'bin_packets', 'bins', 'latencies_ns'),
    'repro.ue.ue.UserEquipment': ('_last_dl_control_ns', '_last_status_ns', '_out_of_sync', '_pending_feedback', '_pending_ul_status', '_sent_blocks', '_staged_slots', '_vran_instance_id', 'attached', 'dl_rx', 'ul_tx'),
}
