"""Built-in experiment setups used by the CLI subcommands.

``example1``: a rotated three-component Gaussian target on [-2, 2],
interpolated with four kernels ranging from componentwise Gaussians to
kernels built on the eigenvectors of the target's sample covariance.

``example2``: a four-output kernel on [-1, 1]^2 with three Gaussian terms
and fixed integer coefficient matrices; used to exercise the a-priori
error bounds.

``counterexample``: the two-output kernel whose pointwise square loses
positive definiteness.
"""

import numpy as np

from .kernels import PointSet, ScalarKernel, SeparableKernel
from .linalg import sym_eig
from .tuning import GridSearchConfig, KernelTemplate, select_shapes

EXAMPLE1_DOMAIN = (-2.0, 2.0)
EXAMPLE2_DOMAIN = (-1.0, 1.0)

# Validation points and centers of example1's shape grid search.
EXAMPLE1_TUNE_VALIDATION = 40
EXAMPLE1_TUNE_CENTERS = 35

# Shape values selected by the original grid-search run; used as defaults.
REFERENCE_SHAPES = {
    "k1": (1.931,),
    "k2": (1.931, 1.931, 1.600),
    "k3": (0.244, 3.393),
    "k4": (0.244, 3.393, 3.393),
}

_ROTATION = np.array(
    [
        [1 / np.sqrt(3.0), 1 / np.sqrt(3.0), 1 / np.sqrt(3.0)],
        [0.0, 1 / np.sqrt(2.0), -1 / np.sqrt(2.0)],
        [-np.sqrt(2.0 / 3.0), 1 / np.sqrt(6.0), 1 / np.sqrt(6.0)],
    ]
)


def example1_target(X):
    """Target f: [-2, 2] -> R^3; accepts (n, 1) or (n,) input."""
    x = np.asarray(X, dtype=np.float64).reshape(-1)
    g = np.stack(
        [
            np.exp(-2.5 * (x - 0.5) ** 2) + np.exp(-2.0 * (x + 0.5) ** 2),
            np.exp(-3.5 * (x - 0.7) ** 2),
            np.ones_like(x),
        ]
    )
    return (_ROTATION @ g).T


def example1_centers(N) -> PointSet:
    """N equidistant centers on [-2, 2]; the single center sits at 0."""
    if N < 1:
        raise ValueError("need at least one center")
    if N == 1:
        return PointSet(np.array([[0.0]]))
    return PointSet(np.linspace(-2.0, 2.0, N)[:, None])


def covariance_eigenbasis(samples):
    """Mean, ascending eigenvalues and eigenvectors of the sample covariance.

    Uses the unbiased divisor (count - 1).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    mu = samples.mean(axis=0)
    centered = samples - mu
    C = centered.T @ centered / (samples.shape[0] - 1)
    w, V = sym_eig(C)
    return mu, w[::-1].copy(), V[:, ::-1].copy()


def example1_covariance_directions(seed):
    """Unit directions v1, v2, v3 from 401 random target evaluations.

    v1 is the direction of least variance (the near-constant component);
    v2 and v3 carry the comparable nonzero eigenvalues and are the pair
    grouped together in the third kernel.
    """
    rng = np.random.default_rng(seed)
    xs = rng.uniform(*EXAMPLE1_DOMAIN, size=401)
    mu, w_asc, V_asc = covariance_eigenbasis(example1_target(xs))
    return (V_asc[:, 0], V_asc[:, 1], V_asc[:, 2]), w_asc, mu


def example1_templates(v1, v2, v3):
    """Coefficient templates of the four kernels, keyed k1..k4."""
    e = np.eye(3)
    out1 = [np.outer(v, v) for v in (v1, v2, v3)]
    return {
        "k1": KernelTemplate(coeffs=(np.eye(3),), groups=(0,)),
        "k2": KernelTemplate(
            coeffs=tuple(np.outer(e[:, i], e[:, i]) for i in range(3)),
            groups=(0, 1, 2),
        ),
        "k3": KernelTemplate(
            coeffs=(out1[0], out1[1] + out1[2]), groups=(0, 1)
        ),
        "k4": KernelTemplate(coeffs=tuple(out1), groups=(0, 1, 2)),
    }


def example1_kernels(v1, v2, v3, shapes=REFERENCE_SHAPES):
    """Instantiate k1..k4 with explicit shape tuples per kernel."""
    templates = example1_templates(v1, v2, v3)
    kernels = {}
    for name, tpl in templates.items():
        vals = shapes[name]
        kernels[name] = tpl.instantiate(dict(enumerate(vals)))
    return kernels


def example1_tune(v1, v2, v3, seed, grid_size=50, lo=0.1, hi=100.0):
    """Fresh grid search for all four kernels at a fixed seed."""
    rng = np.random.default_rng(seed)
    validation = PointSet(
        rng.uniform(*EXAMPLE1_DOMAIN, size=(EXAMPLE1_TUNE_VALIDATION, 1))
    )
    cfg = GridSearchConfig(
        lo=lo,
        hi=hi,
        grid_size=grid_size,
        validation=validation,
        centers=example1_centers(EXAMPLE1_TUNE_CENTERS),
    )
    templates = example1_templates(v1, v2, v3)
    results = {}
    for name, tpl in templates.items():
        results[name] = select_shapes(tpl, example1_target, cfg)
    return results, cfg


def example2_kernel() -> SeparableKernel:
    """Four-output kernel with three Gaussian terms on [-1, 1]^2."""
    Q1 = np.array(
        [
            [1, 1, -1, -1],
            [1, 1, -1, -1],
            [-1, -1, 1, 1],
            [-1, -1, 1, 1],
        ],
        dtype=np.float64,
    )
    Q2 = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, -1],
            [0, 0, -1, 1],
        ],
        dtype=np.float64,
    )
    Q3 = np.array(
        [
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 1, -1],
            [0, 0, -1, 1],
        ],
        dtype=np.float64,
    )
    return SeparableKernel.create(
        [
            (ScalarKernel.gaussian(1.0), Q1),
            (ScalarKernel.gaussian(2.0), Q2),
            (ScalarKernel.gaussian(3.0), Q3),
        ]
    )


def counterexample_kernel() -> SeparableKernel:
    """Two-output kernel whose pointwise square is indefinite on {0, 1}."""
    Q1 = np.ones((2, 2))
    Q2 = np.array([[0.0, 0.0], [0.0, 1.0]])
    return SeparableKernel.create(
        [
            (ScalarKernel.gaussian(0.1), Q1),
            (ScalarKernel.gaussian(1.0), Q2),
        ]
    )
