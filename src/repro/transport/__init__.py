"""End-to-end transport substrate (simplified but behaviourally real).

Flows between the application server and UEs ride radio bearers through
the core network. :mod:`repro.transport.packet` defines the user-plane
packet; :mod:`repro.transport.udp` and :mod:`repro.transport.tcp`
implement the two transports whose recovery behaviour the paper's
end-to-end experiments measure:

* UDP exposes radio-layer losses directly (Fig 10's near-immediate UDP
  recovery; Table 2's loss rates),
* TCP adds in-order delivery, congestion control, fast retransmit, and
  RTO — which is why its post-failover recovery takes up to 110 ms in
  the paper while UDP's is invisible.
"""

from repro.transport.packet import Packet, FlowDirection
from repro.transport.udp import UdpSender, UdpSink, UdpFlowStats
from repro.transport.tcp import TcpSender, TcpReceiver, TcpSegment

__all__ = [
    "Packet",
    "FlowDirection",
    "UdpSender",
    "UdpSink",
    "UdpFlowStats",
    "TcpSender",
    "TcpReceiver",
    "TcpSegment",
]
