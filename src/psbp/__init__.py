"""Photometric stereo with Blinn-Phong reflectance under a perspective camera.

Reconstructs depth from three images of a static scene lit by three known
distant lights, with a built-in forward renderer for closed-loop testing.
"""

from .core import (
    AlbedoMap,
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
)
from .geometry import normals_to_perspective_gradient
from .integrate import align_depth, exp_depth, poisson_integrate
from .render import SceneSpec, make_sphere_depth, render_scene
from .solve import (
    blinn_phong_ortho_solve,
    blinn_phong_pps_solve,
    lambertian_pps_closed_form,
    woodham_normals,
)

__version__ = "0.1.0"

__all__ = [
    "AlbedoMap",
    "CameraIntrinsics",
    "ConfigError",
    "DepthMap",
    "GradientField",
    "Image",
    "LightSource",
    "Material",
    "NormalField",
    "NumericalError",
    "SceneSpec",
    "align_depth",
    "blinn_phong_ortho_solve",
    "blinn_phong_pps_solve",
    "exp_depth",
    "input_mask",
    "lambertian_pps_closed_form",
    "make_sphere_depth",
    "normals_to_perspective_gradient",
    "poisson_integrate",
    "render_scene",
    "woodham_normals",
]
