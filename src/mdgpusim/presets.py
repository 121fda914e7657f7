"""Shipped runtime profiles, benchmark systems and default models.

Systems and runtime profiles ship as ``data/*.cfg``; this module only
parses those files into typed objects and groups kernel kinds so
per-system scale factors can stretch whole kernel families at once.

Each file is read and parsed once per process.  ``_data_text`` reads a
file's text the first time it is asked for it, and the listing of the
runtime files is taken once.  The loaders build a file's objects only
the first time its text comes up, and then hand out the same frozen
``SystemPreset`` and ``RuntimeProfile`` objects.  Keyed by the text,
that memo never answers for other text: a test that puts its own
function in place of ``_data_text`` gets its own text parsed.  A file
that fails to parse is not memoized, so it fails again on every load.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass
from functools import lru_cache
from importlib import resources
from typing import Any, Dict, Tuple

from .config import ConfigError, is_int, is_number, parse_config, subsection
from .costs import KernelKind
from .runtime import RuntimeProfile

# the kernel families a SystemPreset scale field stretches; every kind is
# in exactly one
_FAMILIES = {
    "nbnxm": {KernelKind.NBNXM_LOCAL, KernelKind.NBNXM_NONLOCAL,
              KernelKind.PRUNE_ONLY, KernelKind.PAIR_SEARCH,
              KernelKind.HALO_PACK_UNPACK},
    "pme": {KernelKind.PME_SPREAD, KernelKind.PME_GATHER, KernelKind.PME_SOLVE,
            KernelKind.FFT_3D_FORWARD, KernelKind.FFT_3D_INVERSE,
            KernelKind.GRID_MEMSET},
    "listed": {KernelKind.LISTED_FORCES},
    "update": {KernelKind.LEAP_FROG, KernelKind.CONSTRAINTS,
               KernelKind.REDUCE_FORCES},
}
_FAMILY = {kind: family for family, kinds in _FAMILIES.items() for kind in kinds}


@dataclass(frozen=True)
class SystemPreset:
    """One benchmark system.

    Scale factors stretch kernel families relative to the water-box
    baseline the cost table was fitted on: denser or charged systems
    pay more per atom in specific kernel groups.
    """

    name: str
    atoms: int
    pme: bool
    cutoff_nm: float = 0.9
    nstlist: int = 100
    nbnxm_scale: float = 1.0
    pme_scale: float = 1.0
    listed_scale: float = 1.0
    update_scale: float = 1.0

    def validate(self) -> "SystemPreset":
        """Reject fields no run can use, with a one-line reason."""
        def need(f: str, what: str):
            return ValueError(f"{self.name}: {f} must be {what}, got {getattr(self, f)!r}")

        for f in ("atoms", "nstlist"):
            if not is_int(getattr(self, f)):
                raise need(f, "an integer")
        if self.atoms < 1:
            raise ValueError(f"{self.name}: need at least one atom, got {self.atoms}")
        if self.nstlist < 1:
            raise need("nstlist", ">= 1")
        if not isinstance(self.pme, bool):
            raise need("pme", "true or false")
        for f in ("cutoff_nm", "nbnxm_scale", "pme_scale", "listed_scale", "update_scale"):
            value = getattr(self, f)
            if not (is_number(value) and 0 < value < math.inf):
                raise need(f, "a number above 0")
        return self

    def scale_for(self, kind: KernelKind) -> float:
        return {"nbnxm": self.nbnxm_scale, "pme": self.pme_scale,
                "listed": self.listed_scale, "update": self.update_scale}[_FAMILY[kind]]


@lru_cache(maxsize=None)
def _data_text(filename: str) -> str:
    """The text of the bundled data file ``filename``, read once."""
    return resources.files("mdgpusim").joinpath("data", filename).read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def _profile_files() -> Tuple[str, ...]:
    """The bundled runtime profile files, sorted, listed once."""
    data_dir = resources.files("mdgpusim").joinpath("data")
    return tuple(sorted(entry.name for entry in data_dir.iterdir()
                        if entry.name.startswith("runtime-") and entry.name.endswith(".cfg")))


def _checked(cls, filename: str, prefix: str, fields: Dict[str, Any]) -> Dict[str, Any]:
    """``fields``, once each key is known to name a field of ``cls`` and
    every field of ``cls`` without a default has a key: a misspelt key
    must not quietly leave its field at the default, nor a missing one
    fail as a ``TypeError``."""
    for key in fields:
        if key not in cls.__dataclass_fields__:
            raise ConfigError(f"{filename}: unknown key {prefix + key!r}")
    for key, spec in cls.__dataclass_fields__.items():
        if (key not in fields and spec.default is MISSING
                and spec.default_factory is MISSING):
            raise ConfigError(f"{filename}: missing key {prefix + key!r}")
    return fields


@lru_cache(maxsize=None)
def _profile(filename: str, text: str) -> RuntimeProfile:
    """The profile ``filename`` holds when its text is ``text``."""
    mapping = parse_config(text)
    return RuntimeProfile(**_checked(RuntimeProfile, filename, "", mapping)).validate()


def load_profiles() -> Dict[str, RuntimeProfile]:
    profiles = {}
    for name in _profile_files():
        profile = _profile(name, _data_text(name))
        profiles[profile.name] = profile
    return profiles


def get_profile(name: str) -> RuntimeProfile:
    profiles = load_profiles()
    try:
        return profiles[name]
    except KeyError:
        raise KeyError(f"unknown runtime profile {name!r}; "
                       f"have {sorted(profiles)}") from None


@lru_cache(maxsize=None)
def _systems(text: str) -> Dict[str, SystemPreset]:
    """The systems ``systems.cfg`` holds when its text is ``text``; the
    caller copies the dict before handing it out."""
    mapping = parse_config(text)
    names = sorted({k.split(".", 1)[0] for k in mapping})
    systems = {}
    for name in names:
        fields = _checked(SystemPreset, "systems.cfg", f"{name}.",
                          {**subsection(mapping, name), "name": name})
        systems[name] = SystemPreset(**fields)
    return systems


def load_systems() -> Dict[str, SystemPreset]:
    return dict(_systems(_data_text("systems.cfg")))


def get_system(name: str) -> SystemPreset:
    systems = load_systems()
    try:
        return systems[name]
    except KeyError:
        raise KeyError(f"unknown system {name!r}; have {sorted(systems)}") from None
