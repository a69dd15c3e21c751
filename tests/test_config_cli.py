"""Configuration validation and end-to-end command-line runs."""

import json
import shutil
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from psbp.cli import main
from psbp.config import load_config, parse_config
from psbp.core import ConfigError, GradientField, Material, input_mask
from psbp.fileio import (
    load_image,
    load_mask,
    read_json,
    read_pfm,
    save_mask,
    write_json,
    write_pfm,
)
from psbp.pipeline import reprojection_error
from psbp.render import log_depth_gradients, make_sphere_depth, shade_pixels


def sphere_render_payload(out):
    return {
        "mode": "render",
        "out": str(out),
        "intrinsics": {
            "focal_length": 1.0,
            "pixel_pitch": 0.009375,
            "principal_point": [31.5, 31.5],
        },
        "lights": [
            {"direction": [0, 0, 1], "diffuse_intensity": 1.2, "specular_intensity": 1.2},
            {"direction": [1, 0, 2], "diffuse_intensity": 1.2, "specular_intensity": 1.2},
            {"direction": [0, 1, 2], "diffuse_intensity": 1.2, "specular_intensity": 1.2},
        ],
        "material": {"diffuse": 0.5, "specular": 0.5, "shininess": 150.0},
        "scene": {"type": "sphere", "size": [64, 64], "center": [0, 0, 4], "radius": 1.0},
    }


def reconstruct_payload(render_dir, out, method="bp-pps"):
    payload = sphere_render_payload(out)
    payload["mode"] = "reconstruct"
    payload["method"] = method
    payload["images"] = [str(render_dir / f"image_{i}.pgm") for i in (1, 2, 3)]
    del payload["scene"]
    return payload


def evaluate_payload(render_dir, estimate_dir, out):
    payload = sphere_render_payload(out)
    payload["mode"] = "evaluate"
    payload["images"] = [str(render_dir / f"image_{i}.pgm") for i in (1, 2, 3)]
    payload["estimate_dir"] = str(estimate_dir)
    payload["ground_truth"] = str(render_dir / "depth_gt.pfm")
    del payload["scene"]
    return payload


def conditioning_payload(out):
    payload = sphere_render_payload(out)
    payload["mode"] = "conditioning"
    payload["conditioning"] = {"size": [32, 24]}
    del payload["scene"]
    del payload["material"]
    return payload


# ------------------------------------------------------------- validation

def test_parse_minimal_render_config(tmp_path):
    cfg = parse_config(sphere_render_payload(tmp_path / "out"), base_dir=tmp_path)
    assert cfg.mode == "render"
    assert cfg.scene.type == "sphere"
    assert cfg.scene.size == (64, 64)
    assert cfg.material.k_s == 0.5
    assert len(cfg.lights) == 3
    assert cfg.intrinsics.h_x == 0.009375


def test_unknown_top_level_key_rejected(tmp_path):
    payload = sphere_render_payload(tmp_path)
    payload["solver"] = "fast"
    with pytest.raises(ConfigError) as exc:
        parse_config(payload)
    assert "solver" in str(exc.value)


def test_images_field_errors_name_the_field(tmp_path):
    payload = reconstruct_payload(tmp_path, tmp_path / "out")
    payload["images"] = payload["images"][:2]
    with pytest.raises(ConfigError) as exc:
        parse_config(payload)
    assert "'images'" in str(exc.value)


def test_mode_and_method_choices(tmp_path):
    payload = sphere_render_payload(tmp_path)
    payload["mode"] = "train"
    with pytest.raises(ConfigError):
        parse_config(payload)
    payload = reconstruct_payload(tmp_path, tmp_path)
    payload["method"] = "bp-direct"
    with pytest.raises(ConfigError):
        parse_config(payload)


def test_material_required_for_blinn_phong_methods(tmp_path):
    payload = reconstruct_payload(tmp_path, tmp_path / "out")
    del payload["material"]
    with pytest.raises(ConfigError) as exc:
        parse_config(payload)
    assert "'material'" in str(exc.value)
    payload["method"] = "lambert-pps"
    parse_config(payload)  # closed form needs no reflectance constants


def test_invalid_nested_values_are_reported(tmp_path):
    payload = sphere_render_payload(tmp_path)
    payload["lights"][0]["direction"] = [0, 0]
    with pytest.raises(ConfigError) as exc:
        parse_config(payload)
    assert "direction" in str(exc.value)

    payload = sphere_render_payload(tmp_path)
    payload["material"] = {"diffuse": 0.8, "specular": 0.8}
    with pytest.raises(ConfigError) as exc:
        parse_config(payload)
    assert "'material'" in str(exc.value)

    payload = sphere_render_payload(tmp_path)
    payload["intrinsics"]["focal_length"] = True
    with pytest.raises(ConfigError):
        parse_config(payload)

    payload = sphere_render_payload(tmp_path)
    payload["scene"]["radius"] = -1.0
    with pytest.raises(ConfigError) as exc:
        parse_config(payload)
    assert "radius" in str(exc.value)


def test_load_config_resolves_relative_paths_and_overrides(tmp_path):
    payload = reconstruct_payload(tmp_path, "result")
    payload["images"] = ["image_1.pgm", "image_2.pgm", "image_3.pgm"]
    cfg_path = tmp_path / "job.json"
    write_json(cfg_path, payload)
    cfg = load_config(cfg_path, overrides={"method": "lambert-pps", "out": None})
    assert cfg.method == "lambert-pps"
    assert cfg.out == tmp_path / "result"
    assert cfg.images[0] == tmp_path / "image_1.pgm"
    cfg2 = load_config(cfg_path, overrides={"method": "bp-ppn", "out": str(tmp_path / "alt")})
    assert cfg2.method == "bp-ppn"
    assert cfg2.out == tmp_path / "alt"


def test_load_config_bad_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="ascii")
    with pytest.raises(ConfigError):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="ascii")
    with pytest.raises(ConfigError):
        load_config(arr)


# ---------------------------------------------------------------- pipeline

@pytest.fixture(scope="module")
def rendered_sphere(tmp_path_factory):
    out = tmp_path_factory.mktemp("render")
    assert main(["render", "--config", _write_cfg(out, sphere_render_payload(out))]) == 0
    return out


def _write_cfg(directory, payload):
    path = directory / "config.json"
    write_json(path, payload)
    return str(path)


def test_render_artifacts(rendered_sphere):
    out = rendered_sphere
    for name in ("image_1.pgm", "image_2.pgm", "image_3.pgm", "depth_gt.pfm",
                 "mask.pgm", "report.json", "timings.json"):
        assert (out / name).exists()
    report = read_json(out / "report.json")
    assert report["size"] == [64, 64]
    assert report["pixels_in_mask"] > 1000
    mask = load_mask(out / "mask.pgm")
    img = load_image(out / "image_1.pgm")
    assert img.shape == (64, 64)
    assert np.all(img[~mask] == 0.0)
    depth = read_pfm(out / "depth_gt.pfm")
    assert depth[mask].min() > 2.9


def test_render_lambertian_model_equals_zero_specular(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    pa = sphere_render_payload(a_dir)
    pa["material"] = {"diffuse": 0.5, "specular": 0.0, "shininess": 150.0}
    pb = sphere_render_payload(b_dir)
    pb["material"] = {"diffuse": 0.5}
    pb["scene"]["model"] = "lambertian"
    assert main(["render", "--config", _write_cfg(tmp_path, pa)]) == 0
    assert main(["render", "--config", _write_cfg(tmp_path, pb)]) == 0
    for i in (1, 2, 3):
        assert (a_dir / f"image_{i}.pgm").read_bytes() == (b_dir / f"image_{i}.pgm").read_bytes()


def test_cli_closed_loop_reconstruct_and_evaluate(rendered_sphere, tmp_path):
    recon = tmp_path / "recon"
    assert main(["reconstruct", "--config",
                 _write_cfg(tmp_path, reconstruct_payload(rendered_sphere, recon))]) == 0
    report = read_json(recon / "report.json")
    assert report["method"] == "bp-pps"
    assert report["solved_pixels"] > 0.8 * report["input_pixels"]
    for name in ("grad_x.pfm", "grad_y.pfm", "depth.pfm", "mask.pgm"):
        assert (recon / name).exists()

    ev = tmp_path / "eval"
    assert main(["evaluate", "--config",
                 _write_cfg(tmp_path, evaluate_payload(rendered_sphere, recon, ev))]) == 0
    result = read_json(ev / "evaluation.json")
    assert result["method"] == "bp-pps"
    assert result["mse_normalized"] < 0.01
    assert result["pixels"]["joint"] > 1000
    assert len(result["mse_reprojection"]) == 3


def test_cli_ppn_loop(rendered_sphere, tmp_path):
    recon = tmp_path / "recon"
    cfgp = reconstruct_payload(rendered_sphere, recon, method="bp-ppn")
    assert main(["reconstruct", "--config", _write_cfg(tmp_path, cfgp)]) == 0
    assert (recon / "normals.pfm").exists()
    depth = read_pfm(recon / "depth.pfm")
    mask = load_mask(recon / "mask.pgm")
    assert depth[mask].min() > 0.0

    ev = tmp_path / "eval"
    assert main(["evaluate", "--config",
                 _write_cfg(tmp_path, evaluate_payload(rendered_sphere, recon, ev))]) == 0
    result = read_json(ev / "evaluation.json")
    assert result["mse_normalized"] < 0.02


def test_cli_lambert_ppn_writes_albedo(rendered_sphere, tmp_path):
    recon = tmp_path / "recon"
    cfgp = reconstruct_payload(rendered_sphere, recon, method="lambert-ppn")
    del cfgp["material"]
    assert main(["reconstruct", "--config", _write_cfg(tmp_path, cfgp)]) == 0
    assert (recon / "albedo.pfm").exists()
    assert (recon / "normals.pfm").exists()


def test_lambert_ppn_and_pps_write_the_same_depth(rendered_sphere, tmp_path):
    # Both routes solve the same per-pixel 3x3 Lambertian system, so the
    # normal-field route's log-depth gradients and depth match the closed form.
    outs = {}
    for method in ("lambert-ppn", "lambert-pps"):
        out = tmp_path / method
        cfgp = reconstruct_payload(rendered_sphere, out, method=method)
        del cfgp["material"]
        assert main(["reconstruct", "--config", _write_cfg(tmp_path, cfgp)]) == 0
        outs[method] = out
    ppn, pps = outs["lambert-ppn"], outs["lambert-pps"]
    mask = load_mask(ppn / "mask.pgm")
    assert mask.any()
    assert np.array_equal(mask, load_mask(pps / "mask.pgm"))
    for name in ("grad_x.pfm", "grad_y.pfm", "depth.pfm"):
        a = read_pfm(ppn / name)[mask]
        b = read_pfm(pps / name)[mask]
        assert np.abs(a - b).max() <= 1e-6 * np.abs(b).max(), name


def test_reconstruct_outputs_are_deterministic(rendered_sphere, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["reconstruct", "--config",
                     _write_cfg(tmp_path, reconstruct_payload(rendered_sphere, out))]) == 0
        outs.append(out)
    for name in ("grad_x.pfm", "grad_y.pfm", "depth.pfm", "mask.pgm", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_conditioning_mode_artifacts(tmp_path):
    payload = conditioning_payload(tmp_path / "out")
    assert main(["conditioning", "--config", _write_cfg(tmp_path, payload)]) == 0
    out = tmp_path / "out"
    for i in range(1, 12):
        assert (out / f"indicator_{i:02d}.pgm").exists()
    report = read_json(out / "conditioning.json")
    assert report["size"] == [32, 24]
    assert report["non_coplanar"] is True
    assert len(report["flagged_counts"]) == 11


def test_relative_out_flag_resolves_against_the_working_directory(tmp_path, monkeypatch,
                                                                    capsys):
    # a path written in the config resolves against the config's directory,
    # a path given on the command line against the working directory
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "config.json").write_text(json.dumps(conditioning_payload("cfg_out")))
    monkeypatch.chdir(tmp_path)
    assert main(["conditioning", "--config", "sub/config.json"]) == 0
    assert (sub / "cfg_out" / "conditioning.json").is_file()
    assert main(["conditioning", "--config", "sub/config.json", "--out", "cli_out"]) == 0
    assert (tmp_path / "cli_out" / "conditioning.json").is_file()
    assert not (sub / "cli_out").exists()
    assert capsys.readouterr().out.splitlines()[-1] == "psbp: conditioning ok -> cli_out"


def test_reprojection_error_vanishes_on_ground_truth(rendered_sphere):
    cfg = parse_config(sphere_render_payload(rendered_sphere), base_dir=rendered_sphere)
    depth = make_sphere_depth(64, 64, cfg.intrinsics, (0, 0, 4.0), 1.0)
    grad = log_depth_gradients(depth, cfg.intrinsics)
    images = [load_image(rendered_sphere / f"image_{i}.pgm") for i in (1, 2, 3)]
    usable = input_mask(images, high=0.999)  # drop clipped specular peaks
    errors = reprojection_error(grad, images, cfg.lights, cfg.material, cfg.intrinsics,
                                model="blinn-phong", mask=usable)
    # file quantization is the only error source left
    assert max(errors) < 1e-8


@pytest.mark.parametrize("full", [False, True], ids=["partial-mask", "full-mask"])
@pytest.mark.parametrize("case", ["blinn-phong", "lambertian", "lambertian-albedo"])
def test_reprojection_error_matches_per_light_renders_bit_for_bit(rendered_sphere, case, full):
    # reprojection_error shades only the joint mask's pixels, all lights in
    # one call; each error must keep the bits of a full-frame one-light
    # render scored by the mean of the squared differences in mask order.
    # A full mask takes the path that gathers nothing.
    cfg = parse_config(sphere_render_payload(rendered_sphere), base_dir=rendered_sphere)
    intr = cfg.intrinsics
    rng = np.random.default_rng(12)
    images = [load_image(rendered_sphere / f"image_{i}.pgm") for i in (1, 2, 3)]
    if full:
        grad, usable = GradientField(*rng.uniform(-0.5, 0.5, size=(2, 64, 64))), None
    else:
        grad = log_depth_gradients(make_sphere_depth(64, 64, intr, (0, 0, 4.0), 1.0), intr)
        grad = GradientField(grad.gx * 1.01 + 1e-3, grad.gy, grad.mask)
        usable = input_mask(images, high=0.999)
    joint = grad.mask if usable is None else grad.mask & usable
    assert joint.all() == full and joint.any()
    model = "blinn-phong" if case == "blinn-phong" else "lambertian"
    albedo = rng.uniform(0.3, 0.9, size=(64, 64)) if case == "lambertian-albedo" else None
    got = reprojection_error(grad, images, cfg.lights, cfg.material, intr, model=model,
                             albedo=albedo, mask=usable)
    if model == "blinn-phong":
        material = cfg.material
    elif albedo is not None:
        material = Material(k_d=1.0, k_s=0.0, shininess=1.0)
    else:
        material = replace(cfg.material, k_s=0.0)
    want = []
    for light, img in zip(cfg.lights, images):
        [pred] = shade_pixels(grad, ..., [light], material, intr)
        if albedo is not None:
            pred = albedo * pred
        d = pred[joint] - img[joint]
        want.append(float(np.mean(d * d)))
    assert min(want) > 0.0
    assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
    with pytest.raises(ValueError, match="mask is empty"):
        reprojection_error(grad, images, cfg.lights, cfg.material, intr, model=model,
                           albedo=albedo, mask=np.zeros((64, 64), dtype=bool))


def test_evaluate_rejects_a_nonfinite_metric(rendered_sphere, tmp_path, monkeypatch, capsys):
    import psbp.pipeline

    recon = tmp_path / "recon"
    cfgp = reconstruct_payload(rendered_sphere, recon, method="lambert-pps")
    assert main(["reconstruct", "--config", _write_cfg(tmp_path, cfgp)]) == 0
    align = psbp.pipeline.align_depth

    def nan_raw(estimate, reference):
        aligned, _, normalized = align(estimate, reference)
        return aligned, float("nan"), normalized

    monkeypatch.setattr(psbp.pipeline, "align_depth", nan_raw)
    ev = tmp_path / "eval"
    capsys.readouterr()
    assert main(["evaluate", "--config",
                 _write_cfg(tmp_path, evaluate_payload(rendered_sphere, recon, ev))]) == 2
    assert "mse_raw" in capsys.readouterr().err
    assert not (ev / "evaluation.json").exists()


def test_evaluate_peak_memory_in_frames(tmp_path):
    # evaluate of a full-frame 256x192 Lambertian relief, reprojected with
    # the albedo.pfm that lambert-pps writes, holds at most 12.45 float64
    # frames of numpy buffers at its peak (11.90 measured; 11.94 when
    # DepthMap gathered its pixels to check them; 12.37 when
    # GradientField widened its float32 input before zeroing it off the
    # mask and the reprojection shaded whole frames; 18.9 when the
    # alignment formed whole-frame copies and every PFM was widened on
    # reading).  numpy reports its buffers to tracemalloc, so the count is
    # exact.  An untraced run first gives the bytes that the traced one must
    # repeat.
    width, height = 256, 192
    pitch = 0.6 / width
    rows, cols = np.mgrid[0:height, 0:width]
    x = (cols - (width - 1) / 2.0) * pitch
    y = (rows - (height - 1) / 2.0) * pitch
    z = (3.5 - 0.35 * np.exp(-((x - 0.08) ** 2 + (y + 0.05) ** 2) / 0.030)
         - 0.18 * np.exp(-(x**2 + y**2) / 0.12))
    write_pfm(tmp_path / "relief.pfm", z.astype(np.float32))
    render = tmp_path / "render"
    images = [str(render / f"image_{i}.pgm") for i in (1, 2, 3)]
    base = {"lights": sphere_render_payload(render)["lights"],
            "intrinsics": {"focal_length": 1.0, "pixel_pitch": pitch,
                           "principal_point": [(width - 1) / 2.0, (height - 1) / 2.0]}}
    evaluate = dict(base, mode="evaluate", images=images, estimate_dir=str(tmp_path / "recon"),
                    ground_truth=str(render / "depth_gt.pfm"))
    for payload in (
        dict(base, mode="render", out=str(render), material={"diffuse": 0.7},
             scene={"type": "depth-map", "path": str(tmp_path / "relief.pfm"),
                    "model": "lambertian"}),
        dict(base, mode="reconstruct", out=str(tmp_path / "recon"), method="lambert-pps",
             images=images),
        dict(evaluate, out=str(tmp_path / "untraced")),
    ):
        assert main([payload["mode"], "--config", _write_cfg(tmp_path, payload)]) == 0
    config = _write_cfg(tmp_path, dict(evaluate, out=str(tmp_path / "traced")))
    tracemalloc.start()
    try:
        base_bytes = tracemalloc.get_traced_memory()[0]
        assert main(["evaluate", "--config", config]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base_bytes
    finally:
        tracemalloc.stop()
    result = (tmp_path / "traced" / "evaluation.json").read_bytes()
    assert result == (tmp_path / "untraced" / "evaluation.json").read_bytes()
    assert json.loads(result)["pixels"]["joint"] == width * height
    frames = peak / (width * height * 8)
    print(f"evaluate peak: {frames:.2f} float64 frames")
    assert frames <= 12.45


def test_reconstruct_exits_2_on_a_non_finite_potential(rendered_sphere, tmp_path, monkeypatch,
                                                       capsys):
    """A NaN in the integrated potential is a numerical failure (exit 2)
    that names the pixel, not an invalid depth map (exit 1).  So is a
    log-depth that float32's depth.pfm cannot hold, which would overflow to
    inf there (100) or flush the depth to zero (-110), not an error of the
    writer (exit 1) or a zero depth written."""
    import psbp.pipeline

    integrate = psbp.pipeline.poisson_integrate
    for value, what in ((np.nan, "non-finite log-depth"),
                        (100.0, "log-depth outside float32's range"),
                        (-110.0, "log-depth outside float32's range")):

        def bad_potential(grad, hx, hy):
            u = integrate(grad, hx, hy)
            u[tuple(np.argwhere(grad.mask)[0])] = value
            return u

        monkeypatch.setattr(psbp.pipeline, "poisson_integrate", bad_potential)
        recon = tmp_path / f"recon{value}"
        cfgp = reconstruct_payload(rendered_sphere, recon, method="lambert-pps")
        capsys.readouterr()
        assert main(["reconstruct", "--config", _write_cfg(tmp_path, cfgp)]) == 2
        err = capsys.readouterr().err
        assert f"numerical failure: {what}" in err and " at pixel (col=" in err
        assert not (recon / "depth.pfm").exists()


@pytest.fixture(scope="module")
def lambert_recon(rendered_sphere, tmp_path_factory):
    """A lambert-pps reconstruction of the rendered sphere (it writes albedo.pfm)."""
    recon = tmp_path_factory.mktemp("lambert_recon")
    payload = reconstruct_payload(rendered_sphere, recon, method="lambert-pps")
    assert main(["reconstruct", "--config", _write_cfg(recon, payload)]) == 0
    return recon


@pytest.mark.parametrize("artifact, fields", [
    ("mask.pgm", ("estimate_dir", "mask.pgm")),
    ("grad_x.pfm", ("estimate_dir", "grad_x.pfm")),
    ("grad_y.pfm", ("estimate_dir", "grad_y.pfm")),
    ("albedo.pfm", ("estimate_dir", "albedo.pfm")),
    ("ground_truth_mask", ("ground_truth_mask",)),
])
def test_evaluate_names_an_artifact_of_the_wrong_size(rendered_sphere, lambert_recon, tmp_path,
                                                       capsys, artifact, fields):
    recon = tmp_path / "recon"
    shutil.copytree(lambert_recon, recon)
    payload = evaluate_payload(rendered_sphere, recon, tmp_path / "eval")
    small = np.ones((16, 16))
    if artifact == "ground_truth_mask":
        save_mask(tmp_path / "gt_mask.pgm", small > 0)
        payload["ground_truth_mask"] = str(tmp_path / "gt_mask.pgm")
    elif artifact.endswith(".pgm"):
        save_mask(recon / artifact, small > 0)
    else:
        write_pfm(recon / artifact, small)
    capsys.readouterr()
    assert main(["evaluate", "--config", _write_cfg(tmp_path, payload)]) == 1
    err = capsys.readouterr().err
    assert all(f"config field '{fields[0]}'" in err and name in err for name in fields), err
    assert not (tmp_path / "eval" / "evaluation.json").exists()


INF = float("inf")
NAN = float("nan")


@pytest.mark.parametrize("mode, keys, value, field", [
    ("render", ("scene", "size"), [INF, 32], "size"),
    ("conditioning", ("conditioning", "size"), [INF, 8], "size"),
    ("render", ("scene", "radius"), NAN, "radius"),
    ("render", ("intrinsics", "focal_length"), NAN, "focal_length"),
    ("render", ("intrinsics", "pixel_pitch"), INF, "pixel_pitch"),
    ("render", ("material", "shininess"), NAN, "shininess"),
    ("render", ("lights", 1, "diffuse_intensity"), INF, "diffuse_intensity"),
], ids=["scene.size", "conditioning.size", "radius", "focal_length", "pixel_pitch",
        "shininess", "diffuse_intensity"])
def test_nonfinite_config_numbers_are_rejected(tmp_path, capsys, mode, keys, value, field):
    out = tmp_path / "out"
    payload = sphere_render_payload(out) if mode == "render" else conditioning_payload(out)
    block = payload
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="ascii")  # NaN / Infinity literals
    assert main([mode, "--config", str(path)]) == 1
    assert f"'{field}'" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.pgm"))


def test_reconstruct_names_a_light_without_diffuse_intensity(tmp_path, capsys):
    """Every solver divides by the diffuse intensities, so reconstruct
    rejects 0 at validation, naming the light; render still draws with it."""
    payload = reconstruct_payload(tmp_path / "nowhere", tmp_path / "out")
    payload["lights"][1]["diffuse_intensity"] = 0
    assert main(["reconstruct", "--config", _write_cfg(tmp_path, payload)]) == 1
    assert "config field 'lights[1].diffuse_intensity'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

    render = sphere_render_payload(tmp_path / "out")
    render["lights"][1]["diffuse_intensity"] = 0
    assert parse_config(render).lights[1].diffuse_intensity == 0.0


def test_cli_exit_codes(tmp_path, capsys):
    # 0: help; 1: usage errors, which argparse alone would exit with 2
    cfg = _write_cfg(tmp_path, sphere_render_payload(tmp_path / "out"))
    assert main(["render", "--help"]) == 0
    assert main(["render", "--config", cfg, "--fast"]) == 1
    assert main(["render"]) == 1
    assert main(["reconstruct", "--no-centerize", "--config", cfg]) == 1
    assert "unrecognized arguments: --no-centerize" in capsys.readouterr().err

    # 1: unreadable / invalid configuration
    assert main(["render", "--config", str(tmp_path / "nope.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{]", encoding="ascii")
    assert main(["render", "--config", str(bad)]) == 1
    payload = sphere_render_payload(tmp_path / "out")
    payload["extra"] = 1
    assert main(["render", "--config", _write_cfg(tmp_path, payload)]) == 1
    # a raw-pixel camera is written as intrinsics: pitch 1, principal point 0
    del payload["extra"]
    payload["centerize"] = False
    assert main(["render", "--config", _write_cfg(tmp_path, payload)]) == 1
    assert "config field 'centerize': unknown field" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

    # 1: reconstruct pointed at missing images
    recon_cfg = reconstruct_payload(tmp_path / "nowhere", tmp_path / "out")
    assert main(["reconstruct", "--config", _write_cfg(tmp_path, recon_cfg)]) == 1

    # 2: numerical failure — all-black inputs leave nothing to integrate
    from psbp.fileio import save_image

    dark = tmp_path / "dark"
    dark.mkdir()
    for i in (1, 2, 3):
        save_image(dark / f"image_{i}.pgm", np.zeros((16, 16)))
    recon_cfg = reconstruct_payload(dark, tmp_path / "out2")
    assert main(["reconstruct", "--config", _write_cfg(tmp_path, recon_cfg)]) == 2


P5_64 = b"P5\n64 64\n255\n"
PF_64 = b"Pf\n64 64\n%s\n"


# (mode, config field, file under tmp_path, its bytes or None for no file,
#  what stderr says of it); image_2 is read after a good image_1
@pytest.mark.parametrize("mode, field, name, content, says", [
    # the size check fails before a 10 GB read
    ("reconstruct", "images", "in/image_2.pgm", b"P5\n100000 100000\n255\n" + bytes(16),
     "declares 10000000000 bytes, but 16 remain"),
    ("reconstruct", "images", "in/image_2.pgm", b"P5\n-2 2\n255\n" + bytes(4),
     "width must be a positive integer"),
    ("reconstruct", "images", "in/image_2.pgm", b"P5\nabc 2\n255\n" + bytes(4),
     "width must be a positive integer"),
    # a sample above maxval would load above 1 and mask the image as saturated
    ("reconstruct", "images", "in/image_2.pgm", b"P5\n16 16\n100\n" + bytes([50] * 255 + [200]),
     "sample 200 exceeds maxval 100"),
    ("reconstruct", "images", "in/image_2.pgm", b"P5\n0 0\n255\n",
     "width must be a positive integer"),
    ("reconstruct", "images", "in/image_2.pgm", P5_64 + bytes(100), "truncated pixel data"),
    ("reconstruct", "images", "in/image_2.pgm", b"P5\n" + b"9" * 5000 + b" 2\n255\n" + bytes(4),
     "width must be a positive integer"),
    ("reconstruct", "images", "in/image_2.pgm", b"P5\n32 32\n255\n" + bytes(1024),
     "has dimensions (32, 32), not (64, 64)"),
    ("evaluate", "images", "in/image_1.pgm", b"P5\n32 32\n255\n" + bytes(1024),
     "has dimensions (32, 32), not (64, 64)"),
    ("render", "scene.path", "in/depth_gt.pfm", PF_64 % b"nan" + bytes(4 * 64 * 64),
     "scale must be a nonzero finite number"),
    ("render", "scene.path", "in/depth_gt.pfm", b"PF\n64 64\n-1.0\n" + bytes(12 * 64 * 64),
     "has dimensions (64, 64, 3), not one channel"),
    ("render", "scene.path", "in/depth_gt.pfm", None, "No such file"),
    ("render", "scene.path", "in/mask.pgm", b"P5\n16 16\n255\n" + bytes(256),
     "has dimensions (16, 16), not (64, 64)"),
    ("evaluate", "estimate_dir", "recon/grad_x.pfm", PF_64 % b"-1.0" + bytes(100),
     "truncated pixel data"),
    ("evaluate", "estimate_dir", "recon/mask.pgm", None, "No such file"),
    ("evaluate", "estimate_dir", "recon/report.json", b'{"method": ', "Expecting value"),
    ("evaluate", "estimate_dir", "recon/report.json", b"[1]", "holds no JSON object"),
    ("evaluate", "ground_truth", "in/depth_gt.pfm", PF_64 % b"0" + bytes(4 * 64 * 64),
     "scale must be a nonzero finite number"),
    ("evaluate", "ground_truth_mask", "gt_mask.pgm", P5_64 + bytes(10), "truncated pixel data"),
], ids=["images-huge-header", "images-negative-width", "images-nonnumeric-width",
        "images-samples-above-maxval", "images-0x0", "images-truncated",
        "images-5000-digit-width", "images-wrong-size", "evaluate-images-wrong-size",
        "scene-nan-scale", "scene-3-channel", "scene-missing", "scene-mask-wrong-size",
        "estimate-truncated", "estimate-missing", "report-malformed", "report-not-an-object",
        "ground-truth-zero-scale", "ground-truth-mask-truncated"])
def test_cli_names_the_field_and_file_of_a_malformed_input(rendered_sphere, lambert_recon,
                                                            tmp_path, capsys, mode, field,
                                                            name, content, says):
    shutil.copytree(rendered_sphere, tmp_path / "in")
    out = tmp_path / "out"
    if mode == "render":
        payload = sphere_render_payload(out)
        payload["scene"] = {"type": "depth-map", "path": str(tmp_path / "in" / "depth_gt.pfm")}
    elif mode == "reconstruct":
        payload = reconstruct_payload(tmp_path / "in", out)
    else:
        shutil.copytree(lambert_recon, tmp_path / "recon")
        payload = evaluate_payload(tmp_path / "in", tmp_path / "recon", out)
    if field == "ground_truth_mask":
        payload["ground_truth_mask"] = str(tmp_path / name)
    bad = tmp_path / name
    if content is None:
        bad.unlink(missing_ok=True)
    else:
        bad.write_bytes(content)
    capsys.readouterr()
    assert main([mode, "--config", _write_cfg(tmp_path, payload)]) == 1
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err and str(bad) in err and says in err, err
    assert "Traceback" not in err
