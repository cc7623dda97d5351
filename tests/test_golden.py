"""Golden digests of the formulation matrices and the closed-form cuts.

The instances are generated with integer revenues, so every entry of the
constraint matrices and every closed-form multiplier is exact; the digests
therefore pin the row layout and the certificates (including the insertion
order of their multipliers) independently of how they are computed.
"""

import hashlib

import numpy as np

from dfopt.formulations import Kind, build
from dfopt.instancegen import GeneratorConfig, TreeShape, generate_instance
from dfopt.subproblems import integer_cut

SHAPES = (
    TreeShape(kind="t1", depth=3),
    TreeShape(kind="t2", depth=3),
    TreeShape(kind="t3", leaves=8),
)
SEEDS = (0, 1, 2)

BUILD_DIGEST = "8c62edd2acf0ef72ec306a61d8ac546f319a910a7e8d3838510d1a62f563114e"
CUT_DIGEST = "d6b83d0a891b89657e8e4eeb3c0a7b572cdefd2f120faa6412fa868e7afba380"


def golden_instances():
    for shape in SHAPES:
        for seed in SEEDS:
            yield generate_instance(
                GeneratorConfig(n=8, num_trees=4, shape=shape, seed=seed)
            )


def binary_points(n, seed):
    rng = np.random.default_rng(seed)
    points = [(0,) * n, (1,) * n]
    points += [tuple(int(v) for v in rng.integers(0, 2, size=n)) for _ in range(6)]
    return points


def little_endian(a):
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


def test_build_matrices_are_pinned():
    h = hashlib.sha256()
    for catalog, forest in golden_instances():
        for kind in Kind:
            for cardinality in (None, 3):
                lp = build(kind, catalog, forest, cardinality).lp
                h.update(repr((kind.value, cardinality, lp.A.shape)).encode())
                h.update(little_endian(lp.A))
                h.update(little_endian(lp.b))
                h.update(",".join(lp.senses).encode())
    assert h.hexdigest() == BUILD_DIGEST


def test_integer_cut_certificates_are_pinned():
    h = hashlib.sha256()
    for k, (catalog, forest) in enumerate(golden_instances()):
        for x in binary_points(catalog.n, k):
            for tree in forest.trees:
                for kind in Kind:
                    value, cert = integer_cut(kind.value, catalog, tree, x)
                    record = (
                        value,
                        cert.gamma,
                        list(cert.alpha.items()),
                        list(cert.beta.items()),
                    )
                    h.update(repr(record).encode())
    assert h.hexdigest() == CUT_DIGEST
