"""Read every layer's counters off a built deployment.

Components count what they do in their own ``*Stats`` dataclasses
whether or not anyone looks; a metric is a *read* of those fields, in
place, on any cell however it came to exist — built, restored from a
checkpoint, forked from a warm base. :func:`stats_objects` walks the
wiring of ``cell/deployment.py`` (and, on a probe harness, the probe
endpoints and armed link impairments) and names each stats object
``<layer>.<component>[.<instance>]`` with the layer vocabulary of
``BENCHMARK.json``'s ``per_layer`` table; :func:`collect` flattens them
to ``<prefix>.<field>`` with the field names taken from
``dataclasses.fields`` — one row per stats *object* here, never a row
per counter.

Reading writes no trace record, draws no randomness and schedules
nothing (``detector.stats`` applies the detector's elapsed timer ticks,
as any touch of it does), so looking mid-run — at every ``drive_to``
pause, say — leaves the digest and the final reading unchanged.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict, Iterator, Mapping, Tuple


def _cell_of(root: Any) -> Any:
    """A probe harness's cell; a cell is its own. Told apart by the
    ``cell`` attribute, not by class: importing ``faults.campaign`` here
    would load the campaign tooling (argparse, the process pool) into
    every process that only wants ``telemetry.timeline``."""
    return getattr(root, "cell", root)


def _rlc_entities(
    prefix: str, **by_role: Mapping[int, Any]
) -> Iterator[Tuple[str, Any]]:
    for role, by_bearer in by_role.items():
        for bearer_id, entity in by_bearer.items():
            yield f"{prefix}.b{bearer_id}.{role}", entity.stats


def stats_objects(root: Any) -> Iterator[Tuple[str, Any]]:
    """``(name prefix, stats dataclass instance)`` for every ``*Stats``
    object of a ``SlingshotCell`` or a ``faults.campaign.ProbeHarness``."""
    cell = _cell_of(root)
    if cell is not root:
        yield "transport.udp.probe.tx", root.sender.stats
        yield "transport.udp.probe.rx", root.sink.stats
        if root.injector is not None:
            for link, impairment in root.injector.impairments.items():
                yield f"net.link.{link}.impairment", impairment.stats
    yield "core.mbox", cell.middlebox.stats
    yield "core.detector", cell.middlebox.detector.stats
    yield "core.orion.l2", cell.l2_orion.stats
    for node in cell.phy_servers:
        yield f"core.orion.phy{node.phy_id}", node.orion.stats
        yield f"phy.phy{node.phy_id}.cpu", node.phy.cpu
        yield f"phy.phy{node.phy_id}.codec", node.phy.codec.stats
        yield f"phy.phy{node.phy_id}.harq", node.phy.codec.harq.stats
    for index, site in enumerate(cell.sites):
        yield f"fronthaul.ru{index}", site.ru.stats
        yield f"l2.mac{index}", site.l2.stats
        for ue_id, context in site.l2.ues.items():
            yield from _rlc_entities(
                f"l2.rlc{index}.ue{ue_id}",
                dl_tx=context.dl_tx,
                ul_rx=context.ul_rx,
            )
    for ue_id, ue in cell.ues.items():
        yield f"ue.ue{ue_id}", ue.stats
        yield f"ue.ue{ue_id}.codec", ue.codec.stats
        yield f"ue.ue{ue_id}.harq", ue.codec.harq.stats
        yield from _rlc_entities(
            f"ue.ue{ue_id}.rlc", ul_tx=ue.ul_tx, dl_rx=ue.dl_rx
        )


def collect(root: Any) -> Dict[str, float]:
    """A flat, sorted ``name -> number`` reading of every field of every
    stats object :func:`stats_objects` reaches, plus the four counters
    kept as plain attributes (``PhySideOrion.nulls_injected`` and the
    engine's ``events_processed`` / ``cancel_noops`` / ``compactions``).

    Two things a caller comparing two looks at one run must expect
    (interval rows, ROADMAP's "§4's key insight as a number" item, start
    from them): a component that is *rebuilt* starts over — a restarted
    PHY gets a fresh ``PhyCodec`` (its ``phy.phy<N>.codec.*`` /
    ``.harq.*`` names drop to zero) and a re-attach rebuilds the UE's RLC
    entities (likewise; the L2 context of a released UE disappears with
    its names) — so a name's reading can *drop* between two looks and a
    name can vanish; and
    ``phy.phy<N>.cpu.busy_core_us`` is the one float, an order-fixed
    IEEE sum and so still exact across machines and ``--jobs``.
    """
    readings: Dict[str, float] = {
        f"{prefix}.{field.name}": getattr(stats, field.name)
        for prefix, stats in stats_objects(root)
        for field in fields(stats)
    }
    cell = _cell_of(root)
    for node in cell.phy_servers:
        readings[f"core.orion.phy{node.phy_id}.nulls_injected"] = (
            node.orion.nulls_injected
        )
    readings["engine.events_processed"] = cell.sim.events_processed
    readings["engine.cancel_noops"] = cell.sim.cancel_noops
    readings["engine.compactions"] = cell.sim.compactions
    return dict(sorted(readings.items()))

