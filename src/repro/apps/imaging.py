"""The image application (§IV-C.1): a Skyserver-like image server.

"remote clients request images and transformations on these images from an
image server.  Transformations include routines like scaling, edge
detection, etc.  The image server receiving a request responds with the
appropriate image, modified based on the quality file."

Workload shape matches the paper: 640x480 PPM frames at 3 bytes/pixel
(~0.9 MB ideal response), a quality file that resizes the output to 320x240
when response times are high, and edge detection as the requested
transformation.  The 'telescope library' is a set of synthetic star fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..clock import Clock
from ..core import (HandlerRegistry, SoapBinClient, SoapBinService)
from ..media import apply_operation, scale_half, starfield
from ..pbio import Format, FormatRegistry
from ..transport import Channel

FULL_WIDTH, FULL_HEIGHT = 640, 480

#: The paper's quality file: full resolution on a healthy link, 320x240 once
#: response times cross the threshold.  The resize is a *custom* quality
#: handler — projection alone cannot shrink an image.
DEFAULT_QUALITY_FILE = """\
attribute rtt
history 3
0.0  0.20 - ImageFull
0.20 inf  - ImageHalf
handler ImageHalf resize_half
"""


def image_formats() -> Dict[str, Format]:
    """The message formats of the imaging service."""
    return {
        "GetImageRequest": Format.from_dict(
            "GetImageRequest", {"filename": "string",
                                "operation": "string"}),
        "ImageFull": Format.from_dict(
            "ImageFull", {"filename": "string", "width": "int32",
                          "height": "int32", "pixels": "uint8[]"}),
        "ImageHalf": Format.from_dict(
            "ImageHalf", {"filename": "string", "width": "int32",
                          "height": "int32", "pixels": "uint8[]"}),
    }


def resize_half_handler(value, src, dst, registry, attrs):
    """Quality handler: 2x2 box downscale of the response image."""
    image = value_to_image(value)
    half = scale_half(image)
    return {"filename": value["filename"], "width": half.shape[1],
            "height": half.shape[0], "pixels": half.reshape(-1)}


def image_to_value(filename: str, image: np.ndarray) -> Dict[str, object]:
    """Pack an image array into the response message shape."""
    return {"filename": filename, "width": image.shape[1],
            "height": image.shape[0],
            "pixels": np.ascontiguousarray(image).reshape(-1)}


def value_to_image(value: Dict[str, object]) -> np.ndarray:
    """Rebuild the numpy image from a response message value."""
    pixels = np.asarray(value["pixels"], dtype=np.uint8)
    return pixels.reshape(int(value["height"]), int(value["width"]), 3)


class ImageServer:
    """The image server: a library of frames plus transformation dispatch.

    ``GetImage`` is registered ``pure=True``: a transformed frame is a
    function of ``(filename, operation)`` and the library, so the service
    memoises it in its response cache and a repeat request skips the
    transformation.  The library therefore changes through
    :meth:`put_image`, which also invalidates that cache; assigning to
    ``library[...]`` directly breaks the purity contract — memoised
    transformations of the old frame would keep being served.
    """

    def __init__(self, registry: Optional[FormatRegistry] = None,
                 quality_file: Optional[str] = DEFAULT_QUALITY_FILE,
                 n_images: int = 4, prep_time_fn=None) -> None:
        self.registry = registry if registry is not None else FormatRegistry()
        self.formats = image_formats()
        for fmt in self.formats.values():
            self.registry.register(fmt)
        handlers = HandlerRegistry()
        handlers.register("resize_half", resize_half_handler)
        self.service = SoapBinService(self.registry,
                                      quality_text=quality_file,
                                      handlers=handlers,
                                      prep_time_fn=prep_time_fn)
        self.service.add_operation("GetImage",
                                   self.formats["GetImageRequest"],
                                   self.formats["ImageFull"],
                                   self._get_image, pure=True)
        self.library: Dict[str, np.ndarray] = {
            f"sky{i:02d}.ppm": starfield(FULL_WIDTH, FULL_HEIGHT, seed=i)
            for i in range(n_images)}

    @property
    def endpoint(self):
        return self.service.endpoint

    def put_image(self, name: str, image: np.ndarray) -> None:
        """Add or replace a library frame and invalidate the response
        cache, so no transformation of the frame it replaced is served."""
        self.library[name] = image
        quality = self.service.quality
        if quality is not None and quality.cache is not None:
            quality.cache.invalidate()

    def _get_image(self, params: Dict[str, object]) -> Dict[str, object]:
        filename = str(params["filename"])
        if filename not in self.library:
            raise KeyError(f"no image named {filename!r}")
        image = apply_operation(str(params["operation"]),
                                self.library[filename])
        return image_to_value(filename, image)


class ImagingClient:
    """Client wrapper returning reassembled numpy images."""

    def __init__(self, channel: Channel, registry: FormatRegistry,
                 clock: Optional[Clock] = None) -> None:
        self.formats = image_formats()
        self._client = SoapBinClient(channel, registry, clock=clock)

    def request_image(self, filename: str,
                      operation: str = "edge") -> np.ndarray:
        """Fetch and rebuild one transformed image."""
        out = self._client.call("GetImage",
                                {"filename": filename,
                                 "operation": operation},
                                self.formats["GetImageRequest"],
                                self.formats["ImageFull"])
        return value_to_image(out)

    @property
    def rtt_estimate(self) -> Optional[float]:
        return self._client.estimator.estimate


@dataclass
class ExperimentPoint:
    """One sample of the Fig. 8 series."""

    time: float
    response_time: float
    response_bytes: int


def fixed_policy_quality_file(message_type: str) -> str:
    """A degenerate quality file pinning one message type (the Fig. 8
    'large only' / 'small only' baselines)."""
    handler = ("handler ImageHalf resize_half\n"
               if message_type == "ImageHalf" else "")
    return (f"attribute rtt\nhistory 1\n0.0 inf - {message_type}\n{handler}")


def run_imaging_experiment(policy: str, duration: float = 90.0,
                           think_time: float = 1.0,
                           seed: int = 2004) -> List[ExperimentPoint]:
    """Drive the imaging client over the Fig. 8 scenario.

    ``policy`` is ``"full"``, ``"half"`` or ``"adaptive"``.  Returns the
    response-time series against experiment time on the scenario's stepped
    cross-traffic (UDP load ramping up and back down on the 100 Mbps link).
    """
    from ..netsim import imaging_scenario
    from ..transport import SimChannel

    quality = {
        "full": fixed_policy_quality_file("ImageFull"),
        "half": fixed_policy_quality_file("ImageHalf"),
        "adaptive": DEFAULT_QUALITY_FILE,
    }[policy]
    scenario = imaging_scenario(seed=seed)
    clock = scenario.clock
    server = ImageServer(quality_file=quality,
                         prep_time_fn=clock.now)
    channel = SimChannel(server.endpoint, scenario.link, clock)
    client = ImagingClient(channel, server.registry, clock=clock)
    points: List[ExperimentPoint] = []
    index = 0
    while clock.now() < duration:
        start = clock.now()
        filename = f"sky{index % len(server.library):02d}.ppm"
        client.request_image(filename, "edge")
        record = channel.log[-1]
        points.append(ExperimentPoint(time=start,
                                      response_time=clock.now() - start,
                                      response_bytes=record.response_bytes))
        clock.advance(think_time)
        index += 1
    return points
