"""Built-in synthetic test sequence so experiments need no external video data."""

from __future__ import annotations

import numpy as np

from .frames import Frame


def _texture(width: int, height: int) -> np.ndarray:
    """Static smooth multi-frequency pattern in [0, 60].

    Deterministic in (width, height): pure trigonometric field, no RNG. Gives
    frames dense gradients so recovery quality is measurable, while
    frame-to-frame subtraction still cancels it exactly.
    """
    x = np.arange(width)[None, :]
    y = np.arange(height)[:, None]
    f = (0.35 * np.sin(2 * np.pi * x / 31 + 0.9) * np.cos(2 * np.pi * y / 27 + 0.4)
         + 0.35 * np.cos(2 * np.pi * x / 13 + 2.2) * np.sin(2 * np.pi * y / 17 + 1.1)
         + 0.30 * np.sin(2 * np.pi * (x + y) / 41 + 0.6))
    return np.rint(60 * (f + 1.0) / 2.0)


def moving_square(width: int, height: int, count: int, *, square: int = 40,
                  step: int = 2, start_x: int = 20):
    """One square of intensity 100 sliding right over a static background.

    The square translates `step` pixels per frame (parking at the right edge if
    the sequence outruns the frame) and occludes the background texture. The
    static texture cancels under key-frame subtraction but keeps raw-frame
    recovery honest.
    """
    bg = _texture(width, height).astype(np.uint8)
    y0 = max(0, (height - square) // 2)
    frames = []
    for i in range(count):
        x = max(0, min(start_x + step * i, width - square))
        canvas = bg.copy()
        canvas[y0:y0 + square, x:x + square] = 100
        frames.append(Frame(canvas))
    return frames
