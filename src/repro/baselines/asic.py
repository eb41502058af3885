"""Published attention-accelerator platforms compared in Table 1.

The paper compares DEFA against three state-of-the-art attention accelerators:
ELSA (ISCA'21), SpAtten (HPCA'21) and BESAPU (JSSC'22).  Their rows in Table 1
are taken from the respective publications; only DEFA's own row is produced by
the simulator.  This module records those published rows and provides the
energy-efficiency comparison the paper reports (2.2 - 3.7x).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ASICPlatform:
    """One row of Table 1."""

    name: str
    venue: str
    function: str
    technology_nm: int
    area_mm2: float
    frequency_mhz: float
    precision: str
    power_mw: float
    throughput_gops: float

    @property
    def energy_efficiency_gops_w(self) -> float:
        """Energy efficiency in GOPS/W (throughput over power)."""
        if self.power_mw == 0:
            return 0.0
        return self.throughput_gops / (self.power_mw / 1e3)

ELSA = ASICPlatform(
    name="ELSA",
    venue="ISCA'21",
    function="Attention",
    technology_nm=40,
    area_mm2=1.26,
    frequency_mhz=1000.0,
    precision="INT9",
    power_mw=969.4,
    throughput_gops=1088.0,
)

SPATTEN = ASICPlatform(
    name="SpAtten",
    venue="HPCA'21",
    function="Attention",
    technology_nm=40,
    area_mm2=1.55,
    frequency_mhz=1000.0,
    precision="INT12",
    power_mw=294.0,
    throughput_gops=360.0,
)

BESAPU = ASICPlatform(
    name="BESAPU",
    venue="JSSC'22",
    function="Attention",
    technology_nm=28,
    area_mm2=6.82,
    frequency_mhz=500.0,
    precision="INT12",
    power_mw=272.8,
    throughput_gops=522.0,
)

DEFA_PUBLISHED = ASICPlatform(
    name="DEFA (published)",
    venue="DAC'24",
    function="DeformAttn",
    technology_nm=40,
    area_mm2=2.63,
    frequency_mhz=400.0,
    precision="INT12",
    power_mw=99.8,
    throughput_gops=418.0,
)


def published_platforms() -> list[ASICPlatform]:
    """The three comparison platforms in the paper's column order."""
    return [ELSA, SPATTEN, BESAPU]


def energy_efficiency_improvements(defa: ASICPlatform) -> dict[str, float]:
    """DEFA's energy-efficiency advantage over each published platform."""
    return {
        platform.name: defa.energy_efficiency_gops_w / platform.energy_efficiency_gops_w
        for platform in published_platforms()
    }
