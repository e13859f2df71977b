"""Non-local means denoising — the conventional baseline of Table III.

The paper compares its template-based denoiser against OpenCV's
``fastNlMeansDenoising``; OpenCV is unavailable offline, so this is a
faithful numpy/scipy implementation of the same algorithm (Buades et al.):
each pixel becomes a weighted average of pixels with similar patch
neighbourhoods, with Gaussian weights on patch distance.  Patch distances
for every search offset are computed with a box filter, making the whole
filter a few hundred vectorized passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.raster import as_binary

__all__ = ["NlMeansConfig", "nl_means_filter", "nl_means_denoise"]


@dataclass(frozen=True)
class NlMeansConfig:
    """NL-means parameters.

    ``strength`` is the filter parameter *h* on unit-range images; 0.2 is a
    moderate setting (OpenCV's default h=10 on 8-bit images is ~0.04, which
    barely modifies binary layouts; much larger values blur polygon corners
    into width violations — either way the filter cannot compete with
    template snapping, which is Table III's point).
    """

    patch_size: int = 5
    search_radius: int = 5
    strength: float = 0.2  # the filter parameter "h"

    def __post_init__(self) -> None:
        if self.patch_size < 1 or self.patch_size % 2 == 0:
            raise ValueError("patch_size must be odd and positive")
        if self.search_radius < 1:
            raise ValueError("search_radius must be at least 1")
        if self.strength <= 0:
            raise ValueError("strength must be positive")


def nl_means_filter(
    img: np.ndarray, config: NlMeansConfig = NlMeansConfig()
) -> np.ndarray:
    """The raw NL-means filter on a float image in [0, 1]."""
    from scipy import ndimage  # deferred: importing it costs ~0.35 s

    x = np.asarray(img, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {x.shape}")
    radius = config.search_radius
    h2 = config.strength * config.strength

    accum = np.zeros_like(x)
    weight_sum = np.zeros_like(x)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            shifted = np.roll(np.roll(x, dy, axis=0), dx, axis=1)
            sq_diff = (x - shifted) ** 2
            dist = ndimage.uniform_filter(sq_diff, size=config.patch_size)
            weight = np.exp(-dist / h2)
            accum += weight * shifted
            weight_sum += weight
    return accum / weight_sum


def nl_means_denoise(
    noisy: np.ndarray,
    template: np.ndarray | None = None,
    config: NlMeansConfig = NlMeansConfig(),
) -> np.ndarray:
    """Denoise a generated clip with NL-means and re-binarize.

    Signature-compatible with
    :func:`~repro.core.template_denoise.template_denoise` (the template is
    accepted and ignored — NL-means is template-free), so the Table III
    harness can swap denoisers uniformly.
    """
    del template  # conventional denoising uses no template
    x = as_binary(noisy).astype(np.float64)
    filtered = nl_means_filter(x, config)
    return (filtered > 0.5).astype(np.uint8)
