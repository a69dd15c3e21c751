"""Photometric stereo with Blinn-Phong reflectance under a perspective camera.

Reconstructs depth from three images of a static scene lit by three known
distant lights, with a built-in forward renderer for closed-loop testing.
"""

from .core import (
    CameraIntrinsics,
    ConfigError,
    DepthMap,
    GradientField,
    Image,
    LightSource,
    Material,
    NormalField,
    NumericalError,
    input_mask,
    mse,
    normalize_unit_range,
)
from .geometry import normals_to_perspective_gradient, pixel_grid
from .integrate import align_depth, exp_depth, poisson_integrate
from .render import (
    MODEL_BLINN_PHONG,
    MODEL_LAMBERTIAN,
    PROJECTION_ORTHOGRAPHIC,
    PROJECTION_PERSPECTIVE,
    SceneSpec,
    log_depth_gradients,
    make_sphere_depth,
    render_blinn_phong_orthographic,
    render_blinn_phong_perspective,
    render_lambertian_orthographic,
    render_lambertian_perspective,
    render_scene,
)
from .solve import (
    AlbedoMap,
    ConditioningReport,
    blinn_phong_ortho_solve,
    blinn_phong_pps_solve,
    lambertian_pps_closed_form,
    sensitivity_indicator,
    woodham_normals,
)

__version__ = "0.1.0"

__all__ = [
    "AlbedoMap",
    "CameraIntrinsics",
    "ConditioningReport",
    "ConfigError",
    "DepthMap",
    "GradientField",
    "Image",
    "LightSource",
    "Material",
    "MODEL_BLINN_PHONG",
    "MODEL_LAMBERTIAN",
    "NormalField",
    "NumericalError",
    "PROJECTION_ORTHOGRAPHIC",
    "PROJECTION_PERSPECTIVE",
    "SceneSpec",
    "align_depth",
    "blinn_phong_ortho_solve",
    "blinn_phong_pps_solve",
    "exp_depth",
    "input_mask",
    "lambertian_pps_closed_form",
    "log_depth_gradients",
    "make_sphere_depth",
    "mse",
    "normalize_unit_range",
    "normals_to_perspective_gradient",
    "pixel_grid",
    "poisson_integrate",
    "render_blinn_phong_orthographic",
    "render_blinn_phong_perspective",
    "render_lambertian_orthographic",
    "render_lambertian_perspective",
    "render_scene",
    "sensitivity_indicator",
    "woodham_normals",
]
