"""Image tensors and the resolution-erosion operators.

Images are numpy float32 arrays of shape (C, H, W) with intensities in
[0, 1].  An erosion step average-pools the image and upsamples the result
back to the original size, stripping high-frequency content while keeping
the coarse structure.  Every operator also takes a (..., C, H, W) stack
and gives each image the bits it gets alone.  All functions here are
pure.
"""

from dataclasses import dataclass

import numpy as np

UPSAMPLE_MODES = ("nearest", "bilinear")


class ErosionConfigError(ValueError):
    """Raised when an erosion configuration is incompatible with an image."""


@dataclass(frozen=True)
class ErosionConfig:
    """Number of erosion steps, pooling factor, and upsampling mode."""

    steps: int
    pool_factor: int = 2
    upsample_mode: str = "nearest"

    def __post_init__(self):
        if self.steps < 1:
            raise ErosionConfigError(f"steps must be >= 1, got {self.steps}")
        if self.pool_factor < 2:
            raise ErosionConfigError(
                f"pool_factor must be >= 2, got {self.pool_factor}")
        if self.upsample_mode not in UPSAMPLE_MODES:
            raise ErosionConfigError(
                f"upsample_mode must be one of {UPSAMPLE_MODES}, "
                f"got {self.upsample_mode!r}")

    def check_image(self, h, w):
        """Raise unless pool_factor**steps divides both image dims, so
        every level of erosion_sequence pools cleanly."""
        # pool_factor >= 2, so past 64 steps the power divides no image size
        total = self.pool_factor ** min(self.steps, 65)
        if h % total or w % total:
            raise ErosionConfigError(
                f"pool_factor**steps = {self.pool_factor}**{self.steps} "
                f"does not divide the image dims {h}x{w}")


def avg_pool(img: np.ndarray, factor: int) -> np.ndarray:
    """Non-overlapping average pooling with a factor x factor kernel.

    Height and width must be divisible by the factor; odd remainders are
    rejected rather than padded.  The result is float32, summed in
    float32 and divided by factor**2.  For factor 2 the add order is
    written down: (x00 + x01) + (x10 + x11) when the output is at least
    2 wide, ((x00 + x01) + x10) + x11 when it is 1 wide, which is the
    order numpy 2.4's mean(dtype=float32) takes, at several times its
    speed.  Other factors use that mean.
    """
    if factor < 2:
        raise ValueError(f"pool factor must be >= 2, got {factor}")
    *lead, h, w = img.shape
    if h % factor != 0:
        raise ValueError(f"height {h} not divisible by pool factor {factor}")
    if w % factor != 0:
        raise ValueError(f"width {w} not divisible by pool factor {factor}")
    if factor == 2:
        x = img.astype(np.float32, copy=False)
        top, bottom = x[..., 0::2, :], x[..., 1::2, :]
        out = top[..., 0::2] + top[..., 1::2]
        if w > 2:
            out += bottom[..., 0::2] + bottom[..., 1::2]
        else:
            out += bottom[..., 0::2]
            out += bottom[..., 1::2]
        out /= 4
        return out
    blocks = img.reshape(*lead, h // factor, factor, w // factor, factor)
    return blocks.mean(axis=(-3, -1), dtype=np.float32)


def upsample(img: np.ndarray, factor: int, mode: str = "nearest") -> np.ndarray:
    """Scale the image up by an integer factor.

    nearest replicates every source pixel into a factor x factor block, so
    no new values are introduced.  bilinear interpolates with half-pixel
    center alignment (source coord = (dest + 0.5) / factor - 0.5, clamped
    at the borders); output values stay within the input min/max.
    """
    if factor < 2:
        raise ValueError(f"upsample factor must be >= 2, got {factor}")
    if mode == "nearest":
        return np.repeat(np.repeat(img, factor, axis=-2), factor, axis=-1)
    if mode == "bilinear":
        return _upsample_bilinear(img, factor)
    raise ValueError(f"unknown upsample mode {mode!r}")


def _axis_weights(in_size: int, factor: int):
    """Per-output-pixel (low index, high index, high weight) along one axis."""
    src = (np.arange(in_size * factor, dtype=np.float64) + 0.5) / factor - 0.5
    src = np.clip(src, 0.0, in_size - 1)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, in_size - 1)
    frac = src - lo
    return lo, hi, frac


def _upsample_bilinear(img: np.ndarray, factor: int) -> np.ndarray:
    h, w = img.shape[-2:]
    ylo, yhi, yf = _axis_weights(h, factor)
    xlo, xhi, xf = _axis_weights(w, factor)
    img64 = img.astype(np.float64)
    # Separable: interpolate rows, then columns.
    rows = img64[..., ylo, :] * (1.0 - yf)[:, None] \
        + img64[..., yhi, :] * yf[:, None]
    out = rows[..., xlo] * (1.0 - xf) + rows[..., xhi] * xf
    return out.astype(np.float32)


def erosion_sequence(img: np.ndarray, cfg: ErosionConfig) -> list[np.ndarray]:
    """The original image followed by K progressively eroded versions.

    Successive pooling builds a running low-resolution pyramid (the k-th
    level has 1/pool_factor**k the resolution); each level is upsampled
    back to the original size for querying.  With nearest upsampling the
    k-th element is constant on aligned pool_factor**k blocks, so the
    last element of a full collapse is the per-channel mean image.

    Requires pool_factor**steps to divide both spatial dims (full
    collapse to 1x1 included); see ErosionConfig.check_image.  For a
    (..., C, H, W) stack every element of the list is a stack too,
    holding each image's own sequence element.
    """
    cfg.check_image(*img.shape[-2:])
    seq = [img]
    pooled = img
    for k in range(1, cfg.steps + 1):
        pooled = avg_pool(pooled, cfg.pool_factor)
        seq.append(upsample(pooled, cfg.pool_factor ** k, cfg.upsample_mode))
    return seq
