"""Raster-level primitives shared by DRC measurement and generators.

All layout clips are binary ``uint8``/``bool`` arrays with shape
``(height, width)``; row 0 is the top of the clip.  These helpers provide
run-length extraction (the workhorse of the pixel DRC engine), connected
component labelling, and density statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Run",
    "runs_in_line",
    "runs_per_row",
    "runs_per_column",
    "gaps_in_line",
    "connected_components",
    "component_areas",
    "density",
    "validate_clip",
    "as_binary",
]


@dataclass(frozen=True)
class Run:
    """A maximal run of set pixels within one row or column.

    ``line`` is the row index (for horizontal runs) or column index (for
    vertical runs); ``start``/``stop`` delimit the half-open pixel span.
    """

    line: int
    start: int
    stop: int

    @property
    def length(self) -> int:
        return self.stop - self.start


def as_binary(img: np.ndarray) -> np.ndarray:
    """Coerce an arbitrary numeric raster into a boolean layout mask.

    Float images (e.g. diffusion-model output in ``[-1, 1]`` or ``[0, 1]``)
    are thresholded at the midpoint of their value range convention:
    anything strictly greater than 0.5 for non-negative images, or greater
    than 0.0 for signed images, counts as metal.
    """
    arr = np.asarray(img)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D raster, got shape {arr.shape}")
    if arr.dtype == np.bool_:
        return arr
    if np.issubdtype(arr.dtype, np.integer):
        return arr != 0
    threshold = 0.0 if arr.min() < 0 else 0.5
    return arr > threshold


def validate_clip(img: np.ndarray) -> np.ndarray:
    """Validate and normalise a layout clip to ``uint8`` in {0, 1}."""
    return as_binary(img).astype(np.uint8)


def runs_in_line(line: np.ndarray) -> list[tuple[int, int]]:
    """Half-open ``(start, stop)`` spans of consecutive set pixels."""
    mask = np.asarray(line) != 0
    padded = np.concatenate(([False], mask, [False]))
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    return [(int(a), int(b)) for a, b in zip(changes[0::2], changes[1::2])]


def gaps_in_line(line: np.ndarray) -> list[tuple[int, int]]:
    """Half-open spans of clear pixels *between* runs (borders excluded).

    Border gaps are excluded because a clip is a window into a larger
    layout: space between a shape and the clip boundary is not a measurable
    spacing.
    """
    runs = runs_in_line(line)
    return [(runs[i][1], runs[i + 1][0]) for i in range(len(runs) - 1)]


def runs_per_row(img: np.ndarray) -> list[Run]:
    """All horizontal runs of a clip, top to bottom."""
    binary = as_binary(img)
    out: list[Run] = []
    for y in range(binary.shape[0]):
        out.extend(Run(y, a, b) for a, b in runs_in_line(binary[y]))
    return out


def runs_per_column(img: np.ndarray) -> list[Run]:
    """All vertical runs of a clip, left to right."""
    binary = as_binary(img)
    out: list[Run] = []
    for x in range(binary.shape[1]):
        out.extend(Run(x, a, b) for a, b in runs_in_line(binary[:, x]))
    return out


def connected_components(img: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected component labelling of the metal pixels.

    Returns ``(labels, count)`` where ``labels`` is an int array with 0 for
    background and 1..count for each polygon.  4-connectivity matches
    physical metal connectivity (diagonal touch is not an electrical short in
    Manhattan layouts).
    """
    from scipy import ndimage  # deferred: importing it costs ~0.35 s

    binary = as_binary(img)
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    labels, count = ndimage.label(binary, structure=structure)
    return labels, int(count)


def component_areas(img: np.ndarray) -> np.ndarray:
    """Pixel areas of each connected polygon, in label order."""
    labels, count = connected_components(img)
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    return np.bincount(labels.ravel(), minlength=count + 1)[1:].astype(np.int64)


def density(img: np.ndarray) -> float:
    """Fraction of set pixels in the clip, in ``[0, 1]``."""
    binary = as_binary(img)
    if binary.size == 0:
        return 0.0
    return float(binary.mean())
