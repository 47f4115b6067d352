"""The paper's four evaluation applications, adapted to SOAP-binQ.

* :mod:`~repro.apps.imaging` — the Skyserver-like image server (Fig. 8),
* :mod:`~repro.apps.mdbond` — the molecular-dynamics bond server (Fig. 9),
* :mod:`~repro.apps.airline` — the airline operational information system
  (Table I),
* :mod:`~repro.apps.remoteviz` — the ECho-backed remote-visualization
  portal (§IV-C.4).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "airline": ["AirlineDataset", "AirlineServer", "CateringClient",
                "airline_formats", "event_encodings", "event_stream"],
    "imaging": ["ImageServer", "ImagingClient", "image_formats",
                "image_to_value", "value_to_image", "resize_half_handler",
                "run_imaging_experiment", "ExperimentPoint"],
    "mdbond": ["BondServer", "BondClient", "bond_formats",
               "take_batch_handler", "run_mdbond_experiment", "MdPoint"],
    "remoteviz": ["ServicePortal", "DisplayClient", "BondEventSource",
                  "viz_formats"],
}, aliases={
    "IMAGING_QUALITY_FILE": ("imaging", "DEFAULT_QUALITY_FILE"),
    "MDBOND_QUALITY_FILE": ("mdbond", "DEFAULT_QUALITY_FILE"),
})
