"""Multi-slab volume reconstruction toolkit.

Combines separately acquired 2D slab stacks (contiguous or interleaved)
into one 3D-consistent high-resolution volume: null-slice padding with
signal masks, rigid registration to a low-resolution reference by
normalized mutual information, mask-normalized fusion, plus the QC
metrics and synthetic phantom needed to validate every stage.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateInput,
    EmptyOverlap,
    EmptyROI,
    InvalidInput,
    LayoutMismatch,
    ParseError,
    RegistrationFailed,
    SlabreconError,
    UnsupportedFormat,
)
from .geometry import AffineGeometry, RigidTransform, compose, invert, transform_deviation
from .volume import InterpolationMethod, Volume, resample
from .layout import (
    AcquisitionPreset,
    ContiguousLayout,
    InterleavedLayout,
    NestedLayout,
    PaddedSlab,
    PRESETS,
    get_preset,
    pad_slab,
    prepare_reference,
    split_volume,
)
from .registration import (
    JointHistogram,
    RegistrationConfig,
    RegistrationResult,
    apply_result,
    joint_histogram,
    nmi,
    register_rigid,
)
from .fusion import FusionOutput, fuse, reconstruct
from .qc import (
    EllipsoidROI,
    QCReport,
    ROIStats,
    ShiftReport,
    compute_qc,
    load_rois,
    relative_contrast,
    roi_stats,
    save_rois,
    shift_index,
    snr,
)
from .phantom import GeneratedPhantom, PhantomSpec, canonical_rois, generate_phantom, phantom_geometry
from .simulate import (
    MotionScenario,
    SimulatedDataset,
    classify_motion,
    rician_noise,
    simulate_acquisition,
)
from .nifti import read_volume, write_volume
