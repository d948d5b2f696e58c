"""Store-then-egress-event switch — the pre-fold forwarding code, a test fixture.

:class:`repro.net.switch.Switch` tells the egress link at ingress when a
frame will be ready (``Link.send(frame, ready_at)``), so a forwarded frame
costs no event of its own. This is the code it replaced, verbatim: the
forwarding decision waits out the pipeline latency in a ``_egress`` event,
a port transmits at the instant it is asked to, and the middlebox puts a
failure notification on its own scheduled ``port.transmit``.
``tests/test_switch_fold_fuzz.py`` drives both through the same generated
traffic and requires identical deliveries, link state and impairment
outcomes.
"""

from __future__ import annotations

from repro.core.commands import SLINGSHOT_CMD_BYTES, FailureNotification
from repro.core.fh_middlebox import FronthaulMiddlebox
from repro.net.packet import EtherType, EthernetFrame
from repro.net.switch import Switch, SwitchPort


class EgressEventPort(SwitchPort):
    """A port that serializes a frame the moment it is handed one."""

    def transmit(self, frame: EthernetFrame) -> None:
        """Send a frame out of this port toward the attached node."""
        self.frames_out += 1
        self.egress.send(frame)


class EgressEventSwitch(Switch):
    """The switch with one ``_egress`` event per forwarded frame."""

    def attach(self, endpoint, *args, **kwargs) -> SwitchPort:
        cabled = super().attach(endpoint, *args, **kwargs)
        port = self._ports[cabled.number] = EgressEventPort(self, cabled.number)
        port.ingress_link, port.egress = cabled.ingress_link, cabled.egress
        port.ingress_link.endpoint = port
        return port

    def ingress(self, frame: EthernetFrame, in_port: int) -> None:
        """Run the pipeline on an ingress frame and forward the result."""
        self.frames_processed += 1
        decision = self.pipeline.process(frame, in_port, self)
        if decision is None:
            self.frames_dropped += 1
            return
        self.sim.schedule(
            self.pipeline_latency_ns,
            self._egress,
            decision,
        )

    def _egress(self, decision) -> None:
        number, frame = decision
        self._ports[number].transmit(frame)


class EgressEventMiddlebox(FronthaulMiddlebox):
    """The middlebox whose notification rides its own scheduled transmit."""

    def _on_detected(self, phy_id: int, detected_at: int) -> None:
        """Reformat the detecting timer packet into a failure notification."""
        if self.trace is not None:
            self.trace.record(detected_at, "mbox.failure_detected", phy=phy_id)
        if self.notification_target is None or self._switch is None:
            return
        mac, port = self.notification_target
        notification = EthernetFrame(
            src=self.virtual_phy_mac,
            dst=mac,
            ethertype=EtherType.SLINGSHOT,
            payload=FailureNotification(phy_id=phy_id, detected_at=detected_at),
            wire_bytes=SLINGSHOT_CMD_BYTES,
        )
        self.stats.notifications_sent += 1
        self._switch.sim.schedule(
            self._switch.pipeline_latency_ns,
            self._switch.port(port).transmit,
            notification,
        )
