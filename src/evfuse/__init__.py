"""evfuse: fuse event-camera streams with frame-camera video.

The package covers the full path from raw sensor bytes to a verified fused
dataset: decoding/encoding the ESF-1 wire format, pairing trigger edges into
exposures, windowing events against frames, accumulating event frames,
planar (homography) label transfer, edge-correlation alignment checks,
event-rate/bandwidth budgeting, lens/sensor resolvability math, and a
synthetic scene generator used to validate all of it end to end.
"""

from .errors import EvfuseError, InvalidInput
from .streams import (
    EVENT_DTYPE,
    TRIGGER_DTYPE,
    Columns,
    EventStream,
    StreamHeader,
    ValidationReport,
    make_events,
    make_triggers,
    validate_stream,
)
from .codec import (
    EncodeStats,
    decode_esf,
    encode_esf,
    encode_stats,
    parse_csv,
    read_esf,
    write_csv,
    write_esf,
)
from .sync import (
    CustomWindow,
    ExposureInterval,
    PairingResult,
    SyncMethod,
    SyncWindow,
    assign_events,
    median_period2,
    parse_method,
    read_exposures_csv,
    read_windows_csv,
    triggers_to_exposures,
    window_counts,
    windows,
    write_exposures_csv,
    write_windows_csv,
)
from .frames import (
    DEFAULT_CLIP,
    accumulate,
    read_image,
    read_pgm,
    render_gray,
    write_image,
    write_pgm,
)
from .geometry import (
    CalibrationReport,
    estimate_homography,
    estimate_homography_ransac,
    load_homography,
    reprojection_stats,
    save_homography,
    warp_box,
    warp_image,
    warp_points,
)
from .labels import (
    BoundingBox,
    clip_box,
    iou,
    read_labels_json,
    transfer_box,
    transfer_boxes,
    write_labels_json,
)
from .alignment import (
    ZnccResult,
    canny,
    edge_deviation,
    event_frame_deviation,
    gaussian_blur,
    match_deviation,
    zncc_score,
)
from .rate import (
    DEFAULT_ERC_CAP_EVPS,
    DEFAULT_SATURATION_EVPS,
    ErcConfig,
    RateReport,
    RateSeries,
    erc_filter,
    rate_report,
    rate_series,
)
from .optics import (
    MIN_DETECTABLE_PX,
    FieldOfView,
    LensSpec,
    SensorSpec,
    crop_factor,
    effective_focal,
    field_of_view,
    get_lenses,
    get_sensor,
    load_presets,
    object_extent_px,
    pixel_pitch,
)
from .synth import SceneSpec, SceneResult, gen_scene, warp_view

__version__ = "0.1.0"
