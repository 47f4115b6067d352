"""Image transformations: the operations the image server offers.

"Transformations include routines like scaling, edge detection, etc."
(§IV-C.1).  All operations take and return ``(H, W, 3) uint8`` arrays.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np


def grayscale(image: np.ndarray) -> np.ndarray:
    """Luma grayscale, replicated over three channels."""
    weights = np.array([0.299, 0.587, 0.114])
    gray = (image.astype(np.float64) @ weights)
    return np.repeat(np.clip(gray, 0, 255).astype(np.uint8)[..., None], 3,
                     axis=2)


def scale_nearest(image: np.ndarray, width: int, height: int) -> np.ndarray:
    """Nearest-neighbour resize to exactly (height, width)."""
    if width <= 0 or height <= 0:
        raise ValueError("target dimensions must be positive")
    src_h, src_w = image.shape[:2]
    rows = (np.arange(height) * (src_h / height)).astype(np.intp)
    cols = (np.arange(width) * (src_w / width)).astype(np.intp)
    return image[rows][:, cols].copy()


def scale_half(image: np.ndarray) -> np.ndarray:
    """2x2 box-filter downscale — the 640x480 -> 320x240 quality step."""
    h, w = image.shape[:2]
    h2, w2 = h // 2, w // 2
    trimmed = image[:h2 * 2, :w2 * 2].astype(np.uint16)
    pooled = (trimmed[0::2, 0::2] + trimmed[1::2, 0::2]
              + trimmed[0::2, 1::2] + trimmed[1::2, 1::2]) // 4
    return pooled.astype(np.uint8)


#: Rows per pass of :func:`edge_detect`'s float64 work.
_EDGE_BAND_ROWS = 64


def edge_detect(image: np.ndarray) -> np.ndarray:
    """Sobel edge magnitude (the paper's demo transformation).

    Luma and gradients are computed in bands of rows, so the float64
    temporaries of a 640x480 frame peak near 6 MB rather than 16 MB (a
    server keeps that much resident per worker thread that ever ran it).
    Every element goes through the same float64 operations in the same
    order as a whole-frame pass, so the result is the same bytes.
    """
    h, w = image.shape[:2]
    weights = np.array([0.299, 0.587, 0.114])
    padded = np.empty((h + 2, w + 2))       # luma with a 1-pixel edge pad
    for top in range(0, h, _EDGE_BAND_ROWS):
        band = image[top:top + _EDGE_BAND_ROWS]
        padded[top + 1:top + 1 + len(band), 1:-1] = \
            band.astype(np.float64) @ weights
    padded[0, 1:-1] = padded[1, 1:-1]
    padded[-1, 1:-1] = padded[-2, 1:-1]
    padded[:, 0] = padded[:, 1]
    padded[:, -1] = padded[:, -2]
    magnitude = np.empty((h, w))
    for top in range(0, h, _EDGE_BAND_ROWS):
        p = padded[top:top + _EDGE_BAND_ROWS + 2]
        gx = (p[:-2, 2:] + 2 * p[1:-1, 2:] + p[2:, 2:]
              - p[:-2, :-2] - 2 * p[1:-1, :-2] - p[2:, :-2])
        gy = (p[2:, :-2] + 2 * p[2:, 1:-1] + p[2:, 2:]
              - p[:-2, :-2] - 2 * p[:-2, 1:-1] - p[:-2, 2:])
        np.sqrt(gx * gx + gy * gy, out=magnitude[top:top + len(gx)])
    del padded
    peak = magnitude.max()
    if peak:
        magnitude /= peak
        magnitude *= 255
    scaled = np.clip(magnitude, 0, 255, out=magnitude).astype(np.uint8)
    del magnitude
    return np.repeat(scaled[..., None], 3, axis=2)


def crop(image: np.ndarray, x: int, y: int, width: int,
         height: int) -> np.ndarray:
    """Crop to a region of interest (the military-application filter of §I)."""
    h, w = image.shape[:2]
    if not (0 <= x < w and 0 <= y < h):
        raise ValueError(f"crop origin ({x}, {y}) outside {w}x{h} image")
    if width <= 0 or height <= 0:
        raise ValueError("crop dimensions must be positive")
    return image[y:min(y + height, h), x:min(x + width, w)].copy()


def invert(image: np.ndarray) -> np.ndarray:
    """Negative (useful on astronomy plates)."""
    return (255 - image.astype(np.int16)).astype(np.uint8)


def identity(image: np.ndarray) -> np.ndarray:
    """No transformation (fetch the raw frame)."""
    return image.copy()


#: Named operations the image server dispatches on.
OPERATIONS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": identity,
    "grayscale": grayscale,
    "edge": edge_detect,
    "invert": invert,
}


def apply_operation(name: str, image: np.ndarray) -> np.ndarray:
    """Apply a named operation; unknown names raise ``KeyError``."""
    try:
        op = OPERATIONS[name]
    except KeyError:
        raise KeyError(f"unknown image operation {name!r}; "
                       f"available: {sorted(OPERATIONS)}")
    return op(image)
