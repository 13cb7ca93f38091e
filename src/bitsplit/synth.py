"""Bundled synthetic assets: shapes dataset, a handcrafted toy classifier, and a
ResNet-50-shaped analysis graph.

Everything derives deterministically from an integer seed. Dataset pixels live
on the k/256 grid so 8-bit input quantization is exact. The toy classifier is
constructed, not trained: a fixed filter bank feeds a matched-filter fc layer
whose rows are the feature-space centroids of the ten clean templates.
"""

from __future__ import annotations

import numpy as np

from .engine import EvalSet, run_inference
from .graph import LayerGraph, LayerNode

NUM_CLASSES = 10
IMG = 16


# -- dataset -------------------------------------------------------------------


def class_templates() -> np.ndarray:
    """Ten fixed 16x16 binary shape masks.

    Classes come in look-alike pairs at graded offsets (bars shifted by two
    pixels, dot grids by one) so that precision loss translates into a
    measurable, graded accuracy drop rather than all-or-nothing behavior.
    """
    T = np.zeros((NUM_CLASSES, IMG, IMG), dtype=np.float64)
    i = np.arange(IMG)
    T[0, 5:9, 2:14] = 1  # horizontal bar
    T[1, 7:11, 2:14] = 1  # same bar, two rows lower
    T[2, 2:14, 5:9] = 1  # vertical bar
    T[3, 2:14, 7:11] = 1  # same bar, two columns right
    T[4][np.abs(i[:, None] - i[None, :]) <= 1] = 1  # diagonal
    T[5][np.abs(i[:, None] + i[None, :] - (IMG - 1)) <= 1] = 1  # anti-diagonal
    T[6, 3:13, 3:13] = 1
    T[6, 5:11, 5:11] = 0  # ring
    T[7, 5:11, 5:11] = 1  # filled square
    for y in (3, 7, 11):
        for x in (3, 7, 11):
            T[8, y : y + 2, x : x + 2] = 1  # dot grid
    for y in (4, 8, 12):
        for x in (4, 8, 12):
            T[9, y : y + 2, x : x + 2] = 1  # dot grid, one pixel off
    return T


BG_LEVEL = 40
FG_LEVEL = 150


def _render(mask: np.ndarray, jitter: np.ndarray) -> np.ndarray:
    px = BG_LEVEL + mask * (FG_LEVEL - BG_LEVEL) + jitter
    px = np.clip(np.rint(px), 0, 255)
    return (px / 256.0).astype(np.float32).reshape(1, IMG, IMG)


def make_eval_set(per_class: int = 20, seed: int = 0, noise: int = 60) -> EvalSet:
    """Noisy renders of the templates; pixels exactly representable at 8 bits."""
    rng = np.random.default_rng(seed)
    T = class_templates()
    inputs, labels = [], []
    for k in range(per_class):
        for c in range(NUM_CLASSES):
            jitter = rng.integers(-noise, noise + 1, size=(IMG, IMG))
            inputs.append(_render(T[c], jitter))
            labels.append(c)
    return EvalSet(inputs=inputs, labels=labels)


def clean_inputs() -> list:
    T = class_templates()
    return [_render(T[c], np.zeros((IMG, IMG))) for c in range(NUM_CLASSES)]


# -- toy classifier ---------------------------------------------------------------


def _stem_nodes(rng) -> list:
    f = np.zeros((8, 1, 3, 3), dtype=np.float64)
    f[0, 0, 1, 1] = 1.0  # identity
    f[1, 0] = 1.0 / 9.0  # blur
    f[2, 0] = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]) / 4.0  # edge x
    f[3, 0] = f[2, 0].T  # edge y
    f[4, 0] = np.array([[0, 1, 0], [1, -4, 1], [0, 1, 0]]) / 4.0  # laplacian
    f[5, 0] = np.array([[2, 1, 0], [1, 0, -1], [0, -1, -2]]) / 4.0  # diag edge
    f[6, 0] = np.fliplr(f[5, 0])  # anti-diag edge
    f[7, 0] = np.array([[-1, -1, -1], [-1, 8, -1], [-1, -1, -1]]) / 8.0  # center-surround

    k = np.arange(8)
    bn = np.stack(
        [
            1.0 + 0.05 * np.cos(k),  # gamma
            0.02 * np.sin(k),  # beta
            0.03 + 0.01 * k / 8.0,  # running mean
            1.0 + 0.1 * np.sin(k + 0.5),  # running var
        ]
    )

    blur = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=np.float64) / 16.0
    mix2 = 0.7 * np.eye(8) + 0.3 * rng.standard_normal((8, 8)) / np.sqrt(8)
    w2 = mix2[:, :, None, None] * blur[None, None, :, :]

    mixp = 0.8 * np.eye(8) + 0.2 * rng.standard_normal((8, 8)) / np.sqrt(8)
    wp = mixp[:, :, None, None]

    sharpen = np.array([[0, -1, 0], [-1, 5, -1], [0, -1, 0]], dtype=np.float64) / 3.0
    wd = np.broadcast_to(sharpen, (8, 3, 3)).copy()

    return [
        LayerNode(0, "input", out_shape=(1, IMG, IMG)),
        LayerNode(1, "conv", attrs={"stride": 1, "pad": 1}, weight_shape=(8, 1, 3, 3),
                  out_shape=(8, IMG, IMG), inputs=[0], weights=f.astype(np.float32)),
        LayerNode(2, "batchnorm", weight_shape=(4, 8), out_shape=(8, IMG, IMG), inputs=[1],
                  weights=bn.astype(np.float32)),
        LayerNode(3, "relu", out_shape=(8, IMG, IMG), inputs=[2]),
        LayerNode(4, "conv", attrs={"stride": 2, "pad": 1}, weight_shape=(8, 8, 3, 3),
                  out_shape=(8, 8, 8), inputs=[3], weights=w2.astype(np.float32)),
        LayerNode(5, "relu", out_shape=(8, 8, 8), inputs=[4]),
        LayerNode(6, "pointwise_conv", weight_shape=(8, 8, 1, 1), out_shape=(8, 8, 8), inputs=[5],
                  weights=wp.astype(np.float32)),
        LayerNode(7, "add", out_shape=(8, 8, 8), inputs=[5, 6]),
        LayerNode(8, "relu", out_shape=(8, 8, 8), inputs=[7]),
        LayerNode(9, "depthwise_conv", attrs={"stride": 2, "pad": 1}, weight_shape=(8, 3, 3),
                  out_shape=(8, 4, 4), inputs=[8], weights=wd.astype(np.float32)),
    ]


def make_toy_classifier(seed: int = 0) -> LayerGraph:
    """Small conv net over the shapes dataset; fc rows are template centroids."""
    rng = np.random.default_rng(seed + 1000003)
    nodes = _stem_nodes(rng)
    stem = LayerGraph(nodes, input_bits=8)
    feats = [run_inference(stem, x)[0].ravel().astype(np.float64) for x in clean_inputs()]
    F = np.stack(feats)
    scale = 1.0 / max(1e-9, float(np.mean(np.linalg.norm(F, axis=1))))
    W = (F * scale).astype(np.float32)
    b = (-0.5 * scale * np.sum(F * F, axis=1)).astype(np.float32)
    nodes = nodes + [
        LayerNode(10, "fc", weight_shape=(NUM_CLASSES, 8 * 4 * 4), out_shape=(NUM_CLASSES,),
                  inputs=[9], weights=W, bias=b)
    ]
    return LayerGraph(nodes, input_bits=8)


def toy_device_config() -> dict:
    """Small-accelerator edge, datacenter cloud, cellular uplink."""
    return {
        "edge": {
            "name": "npu-s",
            "off_chip_bytes": 262144,
            "bandwidth_bytes_per_s": 2.5e8,
            "peak_ops_per_s": 2.0e9,
            "mac_bits": 8,
            "supported_bits": [2, 4, 8],
        },
        "cloud": {
            "name": "server",
            "off_chip_bytes": 1 << 34,
            "bandwidth_bytes_per_s": 1.3e10,
            "peak_ops_per_s": 9.6e13,
            "mac_bits": 16,
            "supported_bits": [2, 4, 8, 16],
        },
        "network": {"uplink_bps": 3.0e6, "fixed_rtt_s": 0.0},
    }


TOY_MEMORY_BYTES = 2500


def table1_device_config() -> dict:
    """Published accelerator profiles: small edge NPU vs datacenter TPU."""
    return {
        "edge": {
            "name": "eyeriss",
            "off_chip_bytes": 4 << 30,
            "bandwidth_bytes_per_s": 1.0e9,
            "peak_ops_per_s": 3.4e10,
            "mac_bits": 8,
            "supported_bits": [2, 4, 8],
        },
        "cloud": {
            "name": "tpu",
            "off_chip_bytes": 16 << 30,
            "bandwidth_bytes_per_s": 1.3e10,
            "peak_ops_per_s": 9.6e13,
            "mac_bits": 16,
            "supported_bits": [2, 4, 8, 16],
        },
        "network": {"uplink_bps": 3.0e6, "fixed_rtt_s": 0.0},
    }


# -- ResNet-50-shaped analysis graph ------------------------------------------------


def resnet50_shapes():
    """Shapes-only residual classifier graph (no weight blobs).

    Returns (graph, names) where names maps human labels like
    "layer4.0.conv3" to node ids. Weighted layers appear in the canonical
    execution order (block order conv1, conv2, downsample, conv3), so the
    weighted index of layer4.0.conv3 is 46 and fc is 53.
    """
    nodes = []
    names = {}
    nid = 0

    def emit(name, **kw):
        nonlocal nid
        node = LayerNode(nid, **kw)
        nodes.append(node)
        names[name] = nid
        nid += 1
        return node.id

    emit("input", op_kind="input", out_shape=(3, 224, 224))
    prev = emit(
        "conv1",
        op_kind="conv",
        attrs={"stride": 4, "pad": 2},
        weight_shape=(64, 3, 7, 7),
        out_shape=(64, 56, 56),
        inputs=[0],
    )

    stages = [  # (label, blocks, width, out channels, spatial, first stride)
        ("layer1", 3, 64, 256, 56, 1),
        ("layer2", 4, 128, 512, 28, 2),
        ("layer3", 6, 256, 1024, 14, 2),
        ("layer4", 3, 512, 2048, 7, 2),
    ]
    in_c, in_sp = 64, 56
    for label, blocks, width, out_c, sp, first_stride in stages:
        for b in range(blocks):
            stride = first_stride if b == 0 else 1
            block_in, block_in_c, block_in_sp = prev, in_c, in_sp
            c1 = emit(
                "%s.%d.conv1" % (label, b),
                op_kind="pointwise_conv",
                weight_shape=(width, block_in_c, 1, 1),
                out_shape=(width, block_in_sp, block_in_sp),
                inputs=[block_in],
            )
            c2 = emit(
                "%s.%d.conv2" % (label, b),
                op_kind="conv",
                attrs={"stride": stride, "pad": 1},
                weight_shape=(width, width, 3, 3),
                out_shape=(width, sp, sp),
                inputs=[c1],
            )
            if b == 0:
                skip = emit(
                    "%s.%d.downsample" % (label, b),
                    op_kind="pointwise_conv",
                    attrs={"stride": stride},
                    weight_shape=(out_c, block_in_c, 1, 1),
                    out_shape=(out_c, sp, sp),
                    inputs=[block_in],
                )
            else:
                skip = block_in
            c3 = emit(
                "%s.%d.conv3" % (label, b),
                op_kind="pointwise_conv",
                weight_shape=(out_c, width, 1, 1),
                out_shape=(out_c, sp, sp),
                inputs=[c2],
            )
            prev = emit(
                "%s.%d.add" % (label, b),
                op_kind="add",
                out_shape=(out_c, sp, sp),
                inputs=[c3, skip],
            )
            in_c, in_sp = out_c, sp

    pool = emit("pool", op_kind="global_pool", out_shape=(2048,), inputs=[prev])
    emit("fc", op_kind="fc", weight_shape=(1000, 2048), out_shape=(1000,), inputs=[pool])
    return LayerGraph(nodes, input_bits=8), names
