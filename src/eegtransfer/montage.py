"""Electrode geometry: montage loading, channel alignment, neighbor queries.

A montage is an ordered set of named electrodes with unit-sphere 3D
coordinates.  Montages are immutable after construction and safe to share
across threads.  The package bundles a 62-channel 10-10 layout
(``data/montage62.csv``); the CSV format is ``name,x,y,z`` with one header
line, so alternative coordinate files can be dropped in.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

NORM_TOL = 1e-6
RENORM_RANGE = (0.5, 2.0)

DEFAULT_MONTAGE_FILE = "montage62.csv"


class MontageError(ValueError):
    pass


@dataclass(frozen=True)
class ChannelMontage:
    """Named electrodes with unit-norm positions, in cap order."""

    names: tuple[str, ...]
    positions: np.ndarray  # (n, 3), rows unit-norm

    def __post_init__(self):
        if len(self.names) == 0:
            raise MontageError("montage has no channels")
        if len(set(self.names)) != len(self.names):
            dupes = sorted({n for n in self.names if self.names.count(n) > 1})
            raise MontageError(f"duplicate channel names: {dupes}")
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.shape != (len(self.names), 3):
            raise MontageError(f"positions shape {pos.shape} != ({len(self.names)}, 3)")
        norms = np.linalg.norm(pos, axis=1)
        if np.any(np.abs(norms - 1.0) > NORM_TOL):
            raise MontageError("positions must be unit vectors")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "names", tuple(self.names))

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise MontageError(f"channel {name!r} not in montage") from None


@dataclass(frozen=True)
class ChannelSubsetMap:
    """Maps source channel rows onto rows of a reference montage."""

    source_names: tuple[str, ...]
    target_indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.source_names) != len(self.target_indices):
            raise MontageError("source_names and target_indices length mismatch")
        if len(set(self.target_indices)) != len(self.target_indices):
            raise MontageError("duplicate target indices in channel map")
        object.__setattr__(self, "source_names", tuple(self.source_names))
        object.__setattr__(self, "target_indices", tuple(int(i) for i in self.target_indices))

    @classmethod
    def from_names(cls, source_names, reference: ChannelMontage) -> "ChannelSubsetMap":
        """Resolve each source name against the reference montage."""
        return cls(tuple(source_names),
                   tuple(reference.index(n) for n in source_names))


def load_montage(path) -> ChannelMontage:
    """Load a ``name,x,y,z`` CSV file (see `parse_montage`)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"montage file not found: {path}")
    return parse_montage(path.read_text(encoding="utf-8"), path)


def parse_montage(text, where) -> ChannelMontage:
    """The montage in ``name,x,y,z`` CSV `text`; near-unit positions are
    renormalized.

    Positions with norm inside [0.5, 2.0] are projected back onto the unit
    sphere; zero or out-of-range norms are rejected as data errors.  Every
    MontageError message starts with `where`.
    """
    text = text.strip()
    if not text:
        raise MontageError(f"{where}: montage file is empty")
    lines = text.splitlines()
    header = [h.strip().lower() for h in lines[0].split(",")]
    if header != ["name", "x", "y", "z"]:
        raise MontageError(f"{where}: expected header 'name,x,y,z', got {lines[0]!r}")
    if len(lines) < 2:
        raise MontageError(f"{where}: montage file has no channel rows")
    names = []
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise MontageError(f"{where}:{lineno}: expected 4 fields, got {len(parts)}")
        name = parts[0]
        try:
            vec = np.array([float(p) for p in parts[1:]], dtype=np.float64)
        except ValueError:
            raise MontageError(f"{where}:{lineno}: non-numeric coordinate") from None
        norm = float(np.linalg.norm(vec))
        if not np.isfinite(norm) or norm < RENORM_RANGE[0] or norm > RENORM_RANGE[1]:
            raise MontageError(
                f"{where}:{lineno}: position norm {norm:.4g} outside {RENORM_RANGE}")
        names.append(name)
        # renormalize only when needed, so load(save(m)) is bit-idempotent
        rows.append(vec if abs(norm - 1.0) <= NORM_TOL else vec / norm)
    try:
        return ChannelMontage(tuple(names), np.array(rows))
    except MontageError as e:
        raise MontageError(f"{where}: {e}") from None


def save_montage(montage: ChannelMontage, path) -> None:
    lines = ["name,x,y,z"]
    for name, p in zip(montage.names, montage.positions):
        lines.append("%s,%.17g,%.17g,%.17g" % (name, p[0], p[1], p[2]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def default_montage() -> ChannelMontage:
    """The bundled 62-channel 10-10 montage."""
    ref = resources.files("eegtransfer.data").joinpath(DEFAULT_MONTAGE_FILE)
    with resources.as_file(ref) as path:
        return load_montage(path)


def align_to_reference(features, subset_map: ChannelSubsetMap,
                       reference: ChannelMontage) -> np.ndarray:
    """Scatter source feature rows into a reference-sized matrix.

    Row ``target_indices[k]`` of the output is a bit-identical copy of input
    row k; every unmapped reference row is zero.
    """
    features = np.asarray(features)
    if features.ndim != 2 or features.shape[0] != len(subset_map.source_names):
        raise MontageError(
            f"features shape {features.shape} does not match "
            f"{len(subset_map.source_names)} source channels")
    n_ref = len(reference)
    if any(not 0 <= t < n_ref for t in subset_map.target_indices):
        raise MontageError("target index outside reference montage")
    out = np.zeros((n_ref, features.shape[1]), dtype=features.dtype)
    out[list(subset_map.target_indices)] = features
    return out


def nearest_neighbor(montage: ChannelMontage, index: int) -> int:
    """Index of the closest other channel (chordal distance, ties -> lowest)."""
    n = len(montage)
    if n < 2:
        raise MontageError("nearest_neighbor needs at least 2 channels")
    if not 0 <= index < n:
        raise MontageError(f"channel index {index} out of range")
    d = np.linalg.norm(montage.positions - montage.positions[index], axis=1)
    d[index] = np.inf
    return int(np.argmin(d))  # argmin returns the first (lowest) minimizer
