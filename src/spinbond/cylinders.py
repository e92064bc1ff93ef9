"""Cylinder events: finite sign constraints on sites and edges.

A cylinder fixes the sign at finitely many sites and edges and is the
observable both the exact solver and the Monte Carlo estimators report on.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CylinderEvent:
    """Conjunction of sign constraints ``site -> +-1`` and ``edge -> +-1``."""

    site_constraints: tuple[tuple[int, int], ...]
    edge_constraints: tuple[tuple[int, int], ...]
    _label: str = field(repr=False, hash=False, compare=False, default="full")

    @staticmethod
    def of(sites: dict[int, int] | None = None, edges: dict[int, int] | None = None) -> "CylinderEvent":
        sites = dict(sites or {})
        edges = dict(edges or {})
        for label, mapping in (("site", sites), ("edge", edges)):
            for idx, s in mapping.items():
                if s not in (-1, 1):
                    raise ValueError(f"{label} {idx} constrained to {s}, signs must be +-1")
        site_constraints = tuple(sorted(sites.items()))
        edge_constraints = tuple(sorted(edges.items()))
        parts = [f"site{x}={'+' if s > 0 else '-'}1" for x, s in site_constraints]
        parts += [f"edge{e}={'+' if s > 0 else '-'}1" for e, s in edge_constraints]
        return CylinderEvent(
            site_constraints=site_constraints,
            edge_constraints=edge_constraints,
            _label="&".join(parts) if parts else "full",
        )

    def matches(self, site_signs, edge_signs) -> bool:
        for x, s in self.site_constraints:
            if site_signs[x] != s:
                return False
        for e, s in self.edge_constraints:
            if edge_signs[e] != s:
                return False
        return True

    def label(self) -> str:
        """Stable observable id, e.g. ``site3=+1&edge0=-1``; empty cylinder is ``full``.

        Built once in ``of``: forward runs record it at every checkpoint.
        """
        return self._label


def single_constraint_events(g) -> list[CylinderEvent]:
    """One cylinder per site and per edge, each pinned to +1.

    Meant as a default event family for distinguishing two laws: the -1
    constraint of a coordinate has the complementary frequency, so it can
    never witness a larger frequency gap.
    """
    events = [CylinderEvent.of(sites={x: 1}) for x in range(g.vertex_count)]
    events += [CylinderEvent.of(edges={e: 1}) for e in range(g.edge_count)]
    return events


def parse_cylinder_label(text: str) -> CylinderEvent:
    """Inverse of CylinderEvent.label, e.g. ``site3=+1&edge0=-1`` or ``full``."""
    text = text.strip()
    if text == "full":
        return CylinderEvent.of()
    sites: dict[int, int] = {}
    edges: dict[int, int] = {}
    for part in text.split("&"):
        try:
            target, sign_text = part.split("=")
            sign = {"+1": 1, "-1": -1}[sign_text]
            if target.startswith("site"):
                idx, mapping = int(target[4:]), sites
            elif target.startswith("edge"):
                idx, mapping = int(target[4:]), edges
            else:
                raise ValueError
        except (ValueError, KeyError):
            raise ValueError(
                f"bad cylinder term {part!r}, expected site<i>=+1, site<i>=-1, edge<i>=+1 or edge<i>=-1"
            ) from None
        if idx in mapping and mapping[idx] != sign:
            raise ValueError(f"cylinder {text!r} constrains {target} to both signs")
        mapping[idx] = sign
    return CylinderEvent.of(sites=sites, edges=edges)
