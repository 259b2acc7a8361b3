"""Scalar nonlinearities and their complex lifts.

An activation is a base real function plus a complex mode:

* ``real``  : sigma(x)
* ``imag``  : i * sigma(x)          (pure-phase states when exponentiated)
* ``mixed`` : (1 + i) * sigma(x)
* ``pair``  : sigma(x) + i * sigma2(x)

Base kinds also include ``rsqrt`` (x -> 1/sqrt(x)) and ``recip`` (x -> 1/x),
which are needed to express per-sample normalization (LayerNorm, softmax)
as scalar graph nodes. ``dicke_delta`` is the ReLU tent
relu(x-1) - 2 relu(x) + relu(x+1), equal to the Kronecker delta at 0 on
integer inputs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import AmplitudeOverflowError, ContractError, NumericError

EXP_OVERFLOW_LIMIT = 700.0

_MODES = ("real", "imag", "mixed", "pair")


def _relu(x):
    return np.maximum(x, 0.0)


def _gelu(x):
    # exact Gaussian-CDF form x * Phi(x)
    return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def _dicke_delta(x):
    return _relu(x - 1.0) - 2.0 * _relu(x) + _relu(x + 1.0)


def _checked_exp(x):
    re_part = np.real(x) if np.iscomplexobj(x) else x
    mx = np.max(re_part) if np.ndim(x) else re_part
    if mx > EXP_OVERFLOW_LIMIT:
        # the first column with an entry over the limit, one configuration per
        # column, so that splitting a batch into blocks cannot move it
        idx = None
        if np.ndim(x):
            over = (re_part > EXP_OVERFLOW_LIMIT).reshape(-1, np.shape(x)[-1]).any(axis=0)
            idx = int(np.argmax(over))
            mx = np.max(re_part[..., idx])
        raise AmplitudeOverflowError(
            f"exp argument real part {float(mx):.3g} exceeds {EXP_OVERFLOW_LIMIT}", bits=idx
        )
    return np.exp(x)


def _rsqrt(x):
    if np.any(x <= 0.0):
        raise NumericError("rsqrt argument must be positive")
    return 1.0 / np.sqrt(x)


def _recip(x):
    if np.any(x == 0.0):
        raise NumericError("recip argument must be nonzero")
    return 1.0 / x


class _Kind:
    def __init__(self, fn, holomorphic, pole_spacing=None):
        self.fn = fn
        # holomorphic kinds accept complex arguments (numpy implementation
        # is the analytic continuation); others require real input
        self.holomorphic = holomorphic
        # for pole-limited kinds: sigma(z) is singular at z = i*pole_spacing*(m + 1/2)
        self.pole_spacing = pole_spacing


_KINDS: dict[str, _Kind] = {
    "identity": _Kind(lambda x: x, True),
    "tanh": _Kind(np.tanh, True, pole_spacing=math.pi),
    "sin": _Kind(np.sin, True),
    "cos": _Kind(np.cos, True),
    "relu": _Kind(_relu, False),
    "gelu": _Kind(_gelu, False),
    "softplus": _Kind(None, False),  # fn built per beta
    "exp": _Kind(_checked_exp, True),
    "dicke_delta": _Kind(_dicke_delta, False),
    "poly": _Kind(None, True),  # fn built per coeffs
    "rsqrt": _Kind(_rsqrt, False),
    "recip": _Kind(_recip, False),
}


@dataclass(frozen=True)
class Activation:
    """Base kind plus complex mode; ``second`` is the imaginary part in pair mode."""

    kind: str
    mode: str = "real"
    second: str | None = None
    beta: float | None = None
    coeffs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ContractError(f"unknown activation kind {self.kind!r}")
        if self.mode not in _MODES:
            raise ContractError(f"unknown complex mode {self.mode!r}")
        if self.mode == "pair":
            if self.second not in _KINDS:
                raise ContractError("pair mode requires a valid second kind")
        if self.kind == "softplus" and (self.beta is None or self.beta <= 0):
            raise ContractError("softplus requires beta > 0")
        if self.beta is not None and not math.isfinite(self.beta):
            raise ContractError(f"beta {self.beta!r} is not finite")
        if "poly" in self._parts:
            if not self.coeffs:
                raise ContractError("poly requires coefficients")
            object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
            if not all(map(math.isfinite, self.coeffs)):
                raise ContractError(f"poly coefficients {self.coeffs} are not all finite")

    def _base_fn(self, kind: str):
        if kind == "softplus":
            beta = self.beta

            def softplus(x):
                bx = beta * x
                return (np.maximum(bx, 0.0) + np.log1p(np.exp(-np.abs(bx)))) / beta

            return softplus
        if kind == "poly":
            coeffs = self.coeffs

            def poly(x):
                # Horner's rule with the operations of
                # np.polynomial.polynomial.polyval in the same order, so
                # the result is bitwise the same at a fraction of its cost.
                # The product is not formed in place: numpy multiplies a
                # one-element complex array into itself without the fused
                # multiply-add of its vector loop, so a lone configuration
                # would get other bytes than the same one in a batch
                c0 = x * 0
                c0 += coeffs[-1]
                for c in coeffs[-2::-1]:
                    c0 = c0 * x
                    c0 += c
                return c0

            return poly
        return _KINDS[kind].fn

    @property
    def _parts(self) -> tuple[str, ...]:
        return (self.kind, self.second) if self.mode == "pair" else (self.kind,)

    @property
    def holomorphic(self) -> bool:
        return all(_KINDS[k].holomorphic for k in self._parts)

    @property
    def degree(self) -> int | None:
        """Polynomial degree; None unless every part is identity or poly."""
        degrees = []
        for k in self._parts:
            if k == "identity":
                degrees.append(1)
            elif k == "poly":
                nonzero = np.nonzero(self.coeffs)[0]
                degrees.append(int(nonzero.max()) if nonzero.size else 0)
            else:
                return None
        return max(degrees)

    @property
    def pole_distance(self) -> float | None:
        """Distance from the real axis of the nearest singularity; None when
        every part is entire.

        A pole-limited part contributes pole_spacing/2; a part that is not
        holomorphic contributes 0.0, since its evaluator is no analytic
        continuation off the real axis.
        """
        distances = [
            _KINDS[k].pole_spacing / 2.0 if _KINDS[k].pole_spacing is not None else 0.0
            for k in self._parts
            if not (_KINDS[k].holomorphic and _KINDS[k].pole_spacing is None)  # not entire
        ]
        return min(distances) if distances else None

    def apply(self, x):
        """Apply to a real scalar or array; complex input only for holomorphic kinds."""
        arr = np.asarray(x)
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite input to activation {self.kind}")
        if np.iscomplexobj(arr):
            if not self.holomorphic:
                raise NumericError(f"activation {self.kind} does not accept complex input")
        else:
            arr = arr.astype(np.float64, copy=False)
        # a complex input with a large imaginary part overflows sin, cos and
        # exp; the callers refuse the non-finite result with a typed error
        with np.errstate(over="ignore", invalid="ignore"):
            y = self._base_fn(self.kind)(arr)
            if self.mode == "real":
                out = y
            elif self.mode == "imag":
                out = 1j * y
            elif self.mode == "mixed":
                out = (1.0 + 1j) * y
            else:  # pair
                out = y + 1j * self._base_fn(self.second)(arr)
        if np.ndim(x) == 0:
            return complex(out)
        return out


# ---------------------------------------------------------------------------
# string encoding used by the graph JSON format
#
#   "tanh"            real mode
#   "i*tanh"          imag mode
#   "(1+i)*sin"       mixed mode
#   "tanh+i*sin"      pair mode
#   "softplus(2.0)"   parameterized kind
#   "poly(1,0,2)"     polynomial coefficients, low order first
# ---------------------------------------------------------------------------

_BASE_RE = re.compile(r"^([a-z_]+)(?:\(([^)]*)\))?$")


def _parse_base(text: str):
    m = _BASE_RE.match(text.strip())
    if not m:
        raise ContractError(f"cannot parse activation {text!r}")
    kind, args = m.group(1), m.group(2)
    if kind == "softplus":
        if args is None:
            raise ContractError("softplus requires a beta argument, e.g. softplus(2.0)")
    elif kind == "poly":
        if args is None:
            raise ContractError("poly requires coefficients, e.g. poly(1,0,2)")
    elif args is not None:
        raise ContractError(f"activation {kind!r} takes no arguments")
    try:
        beta = float(args) if kind == "softplus" else None
        coeffs = tuple(float(p) for p in args.split(",")) if kind == "poly" else None
    except ValueError:
        raise ContractError(f"activation {text!r} has a malformed number") from None
    return kind, beta, coeffs


def parse_activation(text: str) -> Activation:
    t = text.strip()
    if t.startswith("(1+i)*"):
        kind, beta, coeffs = _parse_base(t[len("(1+i)*") :])
        return Activation(kind, "mixed", beta=beta, coeffs=coeffs)
    if t.startswith("i*"):
        kind, beta, coeffs = _parse_base(t[len("i*") :])
        return Activation(kind, "imag", beta=beta, coeffs=coeffs)
    if "+i*" in t:
        first, second = t.split("+i*", 1)
        kind, beta, coeffs = _parse_base(first)
        kind2, beta2, coeffs2 = _parse_base(second)
        if beta2 is not None or coeffs2 is not None:
            raise ContractError("pair mode second kind cannot carry parameters")
        return Activation(kind, "pair", second=kind2, beta=beta, coeffs=coeffs)
    kind, beta, coeffs = _parse_base(t)
    return Activation(kind, "real", beta=beta, coeffs=coeffs)


def format_activation(a: Activation) -> str:
    base = a.kind
    if a.kind == "softplus":
        base = f"softplus({a.beta!r})"
    elif a.kind == "poly":
        base = "poly(" + ",".join(repr(c) for c in a.coeffs) + ")"
    if a.mode == "real":
        return base
    if a.mode == "imag":
        return f"i*{base}"
    if a.mode == "mixed":
        return f"(1+i)*{base}"
    return f"{base}+i*{a.second}"

