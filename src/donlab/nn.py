"""Dense feed-forward networks with exact reverse-mode gradients and Adam.

Everything is float64 and purely functional: parameters live in a single
flat vector, and every public operation returns fresh arrays so that
repeated calls with the same inputs are bit-identical. The private forward
loop can instead write into scratch buffers its caller keeps and reuses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ConfigurationError, InputError, check_number

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
        object.__setattr__(self, "layer_dims", tuple(self.layer_dims))  # "40" stays a str
        if len(self.layer_dims) < 2:
            raise ConfigurationError("layer_dims needs at least input and output dims")
        for i, d in enumerate(self.layer_dims):
            check_number(f"layer_dims[{i}]", d, ConfigurationError, count=True, at_least=1)
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


@functools.lru_cache(maxsize=None)
def _layer_slices(spec: MlpSpec, start: int = 0,
                  stop: int | None = None) -> tuple[tuple[slice, slice, int, int], ...]:
    """(weight_slice, bias_slice, out_dim, in_dim) of layers start..stop-1
    (default: all), with the slices counted from layer start's first weight."""
    dims = spec.layer_dims[start:None if stop is None else stop + 1]
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


def _sigmoid(z: np.ndarray, spare: np.ndarray | None = None) -> np.ndarray:
    # piecewise form avoids overflow warnings for large |z|: with e = exp(-|z|),
    # 1 / (1 + e) for z >= 0 and e / (1 + e) for z < 0; minimum(z, -z) is -|z|
    # but keeps a NaN's sign. As 0 <= e <= 1, the numerator is maximum(e, z >= 0),
    # which a NaN z passes as e's NaN. Writes into z, and e into spare (shaped
    # as z) if given.
    e = np.negative(z, out=spare)
    np.exp(np.minimum(z, e, out=e), out=e)
    num = np.maximum(e, z >= 0, out=z)
    e += 1.0
    return np.divide(num, e, out=z)


def _activate_(z: np.ndarray, name: str, spare: np.ndarray | None = None) -> np.ndarray:
    """Apply the activation to z in place and return z, a buffer the caller owns.

    sigmoid takes its temporary from spare, a free buffer shaped as z, if given.
    """
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "tanh":
        return np.tanh(z, out=z)
    if name == "sigmoid":
        return _sigmoid(z, spare)
    return z  # linear


def _scale_by_deriv_(delta: np.ndarray, a: np.ndarray, name: str) -> np.ndarray:
    """delta times the activation's derivative, taken from its output a.

    relu' = [a > 0], tanh' = 1 - a^2, sigmoid' = a (1 - a), linear' = 1;
    delta is overwritten.
    """
    if name == "relu":
        np.multiply(delta, a > 0, out=delta, dtype=np.float64)
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


def _forward(spec: MlpSpec, flat: np.ndarray, x: np.ndarray, acts: list | None,
             start: int = 0, stop: int | None = None, out: np.ndarray | None = None,
             scratch: list | None = None):
    """The forward loop. Appends each layer's input to acts unless it is None.

    Runs layers start..stop-1 (default: all), whose parameters flat holds
    from its first entry on, with shape lead + (P,): one net per index of
    lead, on x of shape (n, d) or lead + (n, d). lead == () is the one-net
    pass, and every stacked slice equals it bit for bit. The last layer
    writes into out if given, the others into fresh buffers, never into x.
    A pass without acts may instead give scratch, a list of two 1-d float64
    buffers that the caller keeps between passes: the layers write into its
    entries in turn, the other entry being the sigmoid's temporary, and an
    entry too small for a layer is replaced in the list by one that fits.
    The result is then a view of an entry. Weights enter as C-ordered copies
    of their transposes (faster in BLAS, same bits).
    """
    lead = flat.shape[:-1]
    layers = _layer_slices(spec, start, stop)
    a = x
    for i, (w_sl, b_sl, n_out, n_in) in enumerate(layers, start):
        if acts is not None:
            acts.append(a)
        z, spare = out if i == start + len(layers) - 1 else None, None
        if scratch is not None:  # this layer's entry, then the spare
            shape = np.broadcast_shapes(lead, a.shape[:-2]) + (a.shape[-2], n_out)
            size = math.prod(shape)
            scratch[:] = [buf if buf.size >= size else np.empty(size) for buf in scratch]
            z, spare = (scratch[(i - start + k) % 2][:size].reshape(shape) for k in (0, 1))
        w = flat[..., w_sl].reshape(lead + (n_out, n_in))
        z = np.matmul(a, np.ascontiguousarray(w.swapaxes(-1, -2)), out=z)
        z += flat[..., b_sl][..., None, :]
        name = spec.output_activation if i == spec.depth - 1 else spec.hidden_activation
        a = _activate_(z, name, spare)
    return a


def _backward(spec: MlpSpec, flat: np.ndarray, acts: list, delta: np.ndarray,
              grad: np.ndarray, start: int = 0) -> np.ndarray:
    """The backward loop from delta, the gradient w.r.t. the last layer's
    pre-activation, over the layers from start whose inputs acts holds, stacked
    as _forward. Writes into grad, laid out as flat; returns the delta below start.
    """
    lead = flat.shape[:-1]
    layers = _layer_slices(spec, start, start + len(acts))
    for i in range(len(layers) - 1, -1, -1):
        w_sl, b_sl, n_out, n_in = layers[i]
        np.matmul(delta.swapaxes(-1, -2), acts[i],
                  out=grad[..., w_sl].reshape(lead + (n_out, n_in)))
        np.einsum("...ij->...j", delta, out=grad[..., b_sl])
        if start + i > 0:
            # acts[i] is the activated output of the layer below
            w = flat[..., w_sl].reshape(lead + (n_out, n_in))
            delta = _scale_by_deriv_(delta @ w, acts[i], spec.hidden_activation)
    return delta


def forward_batch(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Forward pass for a batch: x of shape (n, in_dim) -> (n, out_dim)."""
    return _forward(params.spec, params.flat, _check_input(params.spec, x), None)


def param_l2_norm(params: MlpParams) -> float:
    """Euclidean norm of the flat parameter vector."""
    return float(np.linalg.norm(params.flat))


def project_to_ball(params: MlpParams, radius: float) -> MlpParams:
    """Rescale the flat vector onto the 2-norm ball of the given radius.

    A no-op (same values) when the vector is already inside the ball; used
    as the optional weight-constraint switch during training.
    """
    check_number("projection radius", radius, InputError, above=0)
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
        check_number("step counter t", self.t, InputError, count=True, at_least=0)
        check_number("lr", self.lr, InputError, finite=True, above=0)
        check_number("beta1", self.beta1, InputError, at_least=0, below=1)
        check_number("beta2", self.beta2, InputError, at_least=0, below=1)
        check_number("eps", self.eps, InputError, finite=True, above=0)

    def to_dict(self) -> dict:
        return asdict(self) | {"m": self.m.tolist(), "v": self.v.tolist()}


def adam_init(n_params: int, lr: float = 0.001) -> AdamState:
    """Fresh optimizer state with zero moments."""
    return AdamState(m=np.zeros(n_params), v=np.zeros(n_params), lr=lr)


def _adam_update(state: AdamState, flat: np.ndarray, grads: np.ndarray):
    """One bias-corrected Adam update of the vector flat by grads; returns fresh
    (state, flat). Elementwise, so one call can serve two nets."""
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
    np.subtract(flat, new_flat, out=new_flat)
    return replace(state, m=m, v=v, t=t), new_flat
