"""Dense feed-forward networks with exact reverse-mode gradients and Adam.

Everything is float64 and purely functional: parameters live in a single
flat vector, and every operation returns fresh arrays so that repeated
calls with the same inputs are bit-identical.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError

HIDDEN_ACTIVATIONS = ("relu", "tanh")
OUTPUT_ACTIVATIONS = ("sigmoid", "tanh", "linear")
INIT_SCHEMES = ("he", "xavier")


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of one fully-connected net.

    layer_dims lists the input dimension first and the output dimension
    last, so the number of weight layers is ``len(layer_dims) - 1``.
    """

    layer_dims: tuple[int, ...]
    hidden_activation: str = "relu"
    output_activation: str = "linear"
    init_scheme: str = "he"

    def __post_init__(self):
        object.__setattr__(self, "layer_dims", tuple(int(d) for d in self.layer_dims))
        if len(self.layer_dims) < 2:
            raise ConfigurationError("layer_dims needs at least input and output dims")
        if any(d < 1 for d in self.layer_dims):
            raise ConfigurationError(f"all layer dims must be >= 1, got {self.layer_dims}")
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ConfigurationError(f"unknown hidden activation {self.hidden_activation!r}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ConfigurationError(f"unknown output activation {self.output_activation!r}")
        if self.init_scheme not in INIT_SCHEMES:
            raise ConfigurationError(f"unknown init scheme {self.init_scheme!r}")

    @property
    def depth(self) -> int:
        """Number of weight layers."""
        return len(self.layer_dims) - 1

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]


def param_count(spec: MlpSpec) -> int:
    """Total number of weights and biases: sum of d_in*d_out + d_out per layer."""
    dims = spec.layer_dims
    return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))


@dataclass
class MlpParams:
    """One concrete network: a spec plus its flat float64 parameter vector."""

    spec: MlpSpec
    flat: np.ndarray

    def __post_init__(self):
        self.flat = np.asarray(self.flat, dtype=np.float64)
        if self.flat.ndim != 1 or self.flat.shape[0] != param_count(self.spec):
            raise InputError(
                f"flat vector has length {self.flat.shape}, "
                f"expected ({param_count(self.spec)},)"
            )

    def copy(self) -> "MlpParams":
        return MlpParams(self.spec, self.flat.copy())


def _layer_slices(spec: MlpSpec) -> tuple[tuple[slice, slice, int, int], ...]:
    """(weight_slice, bias_slice, out_dim, in_dim) per layer, in order."""
    return _slices_of_dims(spec.layer_dims)


@functools.lru_cache(maxsize=None)
def _slices_of_dims(dims: tuple[int, ...]) -> tuple[tuple[slice, slice, int, int], ...]:
    out = []
    off = 0
    for n_in, n_out in zip(dims, dims[1:]):
        w_sl = slice(off, off + n_in * n_out)
        off += n_in * n_out
        b_sl = slice(off, off + n_out)
        off += n_out
        out.append((w_sl, b_sl, n_out, n_in))
    return tuple(out)


def init_mlp(spec: MlpSpec, seed) -> MlpParams:
    """Draw weights per the spec's init scheme; biases are zero.

    he: N(0, 2/fan_in); xavier: N(0, 2/(fan_in+fan_out)). Deterministic in seed.
    """
    rng = np.random.default_rng(seed)
    flat = np.zeros(param_count(spec))
    for w_sl, b_sl, n_out, n_in in _layer_slices(spec):
        if spec.init_scheme == "he":
            std = np.sqrt(2.0 / n_in)
        else:
            std = np.sqrt(2.0 / (n_in + n_out))
        flat[w_sl] = rng.normal(0.0, std, size=n_in * n_out)
    return MlpParams(spec, flat)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # piecewise form avoids overflow warnings for large |z|: with e = exp(-|z|),
    # 1 / (1 + e) for z >= 0 and e / (1 + e) for z < 0; minimum(z, -z) is -|z|
    # but keeps a NaN's sign
    e = np.negative(z)
    np.exp(np.minimum(z, e, out=e), out=e)
    out = np.where(z < 0, e, 1.0)
    e += 1.0
    out /= e
    return out


def _activate_(z: np.ndarray, name: str) -> np.ndarray:
    """Apply the activation to z, overwriting z where the op allows it.

    z must be a buffer the caller owns; relu and tanh reuse it, sigmoid
    returns a fresh array and linear returns z itself.
    """
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "tanh":
        return np.tanh(z, out=z)
    if name == "sigmoid":
        return _sigmoid(z)
    return z  # linear


def _scale_by_deriv_(delta: np.ndarray, a: np.ndarray, name: str) -> np.ndarray:
    """delta times the activation's derivative, taken from its output a.

    relu' = [a > 0], tanh' = 1 - a^2, sigmoid' = a (1 - a), linear' = 1;
    delta is overwritten.
    """
    if name == "relu":
        delta *= a > 0
    elif name == "tanh":
        delta *= 1.0 - a * a
    elif name == "sigmoid":
        delta *= a * (1.0 - a)
    return delta


def _check_input(spec: MlpSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.in_dim:
        raise InputError(
            f"expected input shape (n, {spec.in_dim}), got {x.shape}"
        )
    return x


def _forward(spec: MlpSpec, flat: np.ndarray, x: np.ndarray, acts: list | None):
    """The forward loop. Appends each layer's input to acts unless it is None.

    flat has shape lead + (P,): one net of this spec per index of lead, each
    applied to the same x, giving lead + (n, out_dim). lead == () is the
    one-net pass, and every stacked slice equals it bit for bit.

    Every layer computes into a fresh buffer z, so x is never modified and
    only the current layer is held when acts is None.
    """
    lead = flat.shape[:-1]
    last = spec.depth - 1
    a = x
    for i, (w_sl, b_sl, n_out, n_in) in enumerate(_layer_slices(spec)):
        if acts is not None:
            acts.append(a)
        w = flat[..., w_sl].reshape(lead + (n_out, n_in))
        b = flat[..., b_sl]
        z = a @ w.swapaxes(-1, -2)
        z += b[..., None, :]
        a = _activate_(z, spec.output_activation if i == last else spec.hidden_activation)
    return a


def forward_batch(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Forward pass for a batch: x of shape (n, in_dim) -> (n, out_dim)."""
    return _forward(params.spec, params.flat, _check_input(params.spec, x), None)


def value_and_vjp(params: MlpParams, x: np.ndarray):
    """Forward pass plus its vector-Jacobian product with respect to flat.

    Returns (out, vjp): out equals forward_batch(params, x), and vjp(g) is
    the gradient of sum_i <g[i], out[i]> w.r.t. the flat vector, computed
    by exact reverse mode from the activations cached by this one pass.
    """
    spec = params.spec
    x = _check_input(spec, x)
    acts: list[np.ndarray] = []
    out = _forward(spec, params.flat, x, acts)

    def vjp(out_grads: np.ndarray) -> np.ndarray:
        delta = np.array(out_grads, dtype=np.float64)  # a copy: scaled in place
        if delta.shape != out.shape:
            raise InputError(
                f"expected out_grads shape {out.shape}, got {delta.shape}"
            )
        delta = _scale_by_deriv_(delta, out, spec.output_activation)
        grad = np.empty_like(params.flat)  # every weight and bias slice is written
        slices = _layer_slices(spec)
        for i in range(len(slices) - 1, -1, -1):
            w_sl, b_sl, n_out, n_in = slices[i]
            np.matmul(delta.T, acts[i], out=grad[w_sl].reshape(n_out, n_in))
            grad[b_sl] = delta.sum(axis=0)
            if i > 0:
                # acts[i] is the activated output of layer i-1
                w = params.flat[w_sl].reshape(n_out, n_in)
                delta = _scale_by_deriv_(delta @ w, acts[i], spec.hidden_activation)
        return grad

    return out, vjp


def backward_batch(
    params: MlpParams, x: np.ndarray, out_grads: np.ndarray
) -> np.ndarray:
    """Gradient of sum_i <out_grads[i], forward_batch(params, x)[i]> w.r.t. flat.

    Exact reverse-mode differentiation; shapes (n, in_dim) and (n, out_dim).
    """
    return value_and_vjp(params, x)[1](out_grads)


def param_l2_norm(params: MlpParams) -> float:
    """Euclidean norm of the flat parameter vector."""
    return float(np.linalg.norm(params.flat))


def project_to_ball(params: MlpParams, radius: float) -> MlpParams:
    """Rescale the flat vector onto the 2-norm ball of the given radius.

    A no-op (same values) when the vector is already inside the ball; used
    as the optional weight-constraint switch during training.
    """
    if radius <= 0:
        raise InputError("projection radius must be > 0")
    norm = param_l2_norm(params)
    if norm <= radius:
        return MlpParams(params.spec, params.flat.copy())
    return MlpParams(params.spec, params.flat * (radius / norm))


@dataclass
class AdamState:
    """First/second moment accumulators and hyperparameters for Adam."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.m.shape != self.v.shape:
            raise InputError("m and v must have the same shape")
        if self.t < 0:
            raise InputError("step counter must be >= 0")

    def to_dict(self) -> dict:
        return {
            "m": self.m.tolist(),
            "v": self.v.tolist(),
            "t": self.t,
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
        }


def adam_init(n_params: int, lr: float = 0.001) -> AdamState:
    """Fresh optimizer state with zero moments."""
    return AdamState(m=np.zeros(n_params), v=np.zeros(n_params), lr=lr)


def adam_step(
    state: AdamState, params: MlpParams, grads: np.ndarray
) -> tuple[AdamState, MlpParams]:
    """One bias-corrected Adam update; returns fresh (state, params)."""
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != params.flat.shape or state.m.shape != params.flat.shape:
        raise InputError("gradient / state length does not match parameter vector")
    t = state.t + 1
    # Two work buffers, with the operations in the order of the textbook form
    #   m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g,
    #   flat - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
    # so the result is the same bit for bit; the second buffer ends as flat.
    work = grads * (1.0 - state.beta1)
    m = state.m * state.beta1
    m += work
    np.multiply(grads, 1.0 - state.beta2, out=work)
    work *= grads
    v = state.v * state.beta2
    v += work
    np.divide(m, 1.0 - state.beta1**t, out=work)
    work *= state.lr
    new_flat = v / (1.0 - state.beta2**t)
    np.sqrt(new_flat, out=new_flat)
    new_flat += state.eps
    np.divide(work, new_flat, out=new_flat)
    np.subtract(params.flat, new_flat, out=new_flat)
    new_state = AdamState(
        m=m, v=v, t=t, lr=state.lr, beta1=state.beta1,
        beta2=state.beta2, eps=state.eps,
    )
    return new_state, MlpParams(params.spec, new_flat)
