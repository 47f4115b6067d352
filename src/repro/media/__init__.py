"""Media substrate: PPM images, image operations, SVG, synthetic data."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "ops": ["OPERATIONS", "apply_operation", "grayscale", "scale_nearest",
            "scale_half", "edge_detect", "crop", "invert", "identity"],
    "ppm": ["PpmError", "encode_p6", "encode_p3", "decode", "image_bytes"],
    "svg": ["SvgDocument", "molecule_to_svg"],
    "synth": ["MoleculeTrajectory", "starfield"],
})
