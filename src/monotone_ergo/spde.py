"""Monotone splitting solver for a stochastic reaction-diffusion
equation on the unit-volume 1-D torus with finitely many noise modes.

    du = [Laplacian(u) + f(u)] dt + sum_k sigma_k(xi) dW^k.

One step is Lie splitting through the drift's exact flow:

    u+ = G [phi_dt(clip(u, -R, R)) + sqrt(dt) sum_k sigma_k g_k],
    G = (I - dt * L_h)^{-1},

with L_h the 3-point circulant Laplacian scaled by N^2 and phi_t the
flow of x' = f(x) in closed form: copysign(e^{Kt} / sqrt(1/x^2 + c), x)
with c = (e^{2Kt} - 1) / K (2t at K = 0) for the cubic x (K - x^2),
e^{at} x for the linear a x, and x, unclipped, for the zero drift.

A scalar flow is increasing, and the cubic form is a chain of monotone,
correctly rounded operations (x = 0 maps to +-0 through 1/0 = inf), so
phi_dt keeps order in floating point too; x e^{Kt} / sqrt(1 + x^2 c)
can invert close inputs by an ulp.  I - dt L_h is an M-matrix, so its
resolvent G is entrywise positive; `Stepper` builds G once, in closed
form (the periodized Green's function of the 3-point operator, no
transform whose rounding could leave an entry below zero), and refuses
a G with a negative entry.  So the step preserves pointwise order at
every dt, and dt is a matter of accuracy alone (Brehier & Goudenege,
DCDS-B 24, 2019).  `clamp_R` (R) bounds the field the flow acts on: a
value beyond +-R steps from +-R.  Each drift family's dissipativity
margins are closed forms too.

A step applies the flow into a fresh buffer, adds the noise there and
applies the dense positive resolvent in fixed row blocks: it forms
b + (r - b) G with b the first entry of each row (G's rows sum to one,
so this is r G, and a constant row stays exactly constant), as one
product per block of `_BLOCK_ROWS` rows, the last block zero-padded to
that size in a buffer the stepper owns.  Every product then has one
shape, so a row's result does not depend on which block it rides in,
and the product stays below the size at which OpenBLAS starts threads.
Each step returns a fresh array, because observers may keep the stepped
ensembles.

Noise draws come from a counter-based generator keyed by (seed, step):
paths and modes are indexed by array position inside one block, which
makes runs bit-reproducible and lets two initial conditions share the
identical noise path.

`SpdeConfig.step_of` turns a time into its step, or a time off the dt
grid into a ConfigError naming its key.  `integrate` is the one
time-stepping loop: it advances a tuple of ensembles on one shared noise
path, checks finiteness after every step and hands the ensembles to an
observer at each step it is given.  `simulate` and the experiments are
observers on top of it.

Stepping is row-independent bit for bit, so `integrate` splits the path
axis into contiguous row shards, one per usable CPU, as long as every
shard gets `_SHARD_MIN_WORK` cell-steps (a shorter job costs less than
the forks that would spread it), and runs them through
`shards.run_sharded`: each shard steps in its own `fork`ed worker
process, and a single shard runs in-process through the same function.
Every shard draws the full noise block of each step (the generator makes
it as one stream) and forms the noise increment of its own rows only,
as a fixed-order sum over the modes, so the noise stream and every
output are those of one unsharded loop.  An observer is therefore a
per-shard reduction: it maps a shard's rows at a step to a partial
result array, and the parent concatenates the partials of each step in
path order (snapshots and per-path distances row by row; a maximum as
one value per shard, whose maximum the caller takes).  A shard that
meets a non-finite value stops and returns that step's index; the
parent raises NonFinite for the smallest one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .serialize import (ConfigError, array, checked, integer, number,
                        read_keys)
from .shards import run_sharded, usable_cpus

ASSUMPTION_RANGE = 50.0
_positive = checked(number, lambda value: value > 0, "positive")


class NonFinite(ValueError):
    def __init__(self, step_index):
        self.step_index = step_index
        super().__init__(f"non-finite field values at step {step_index} "
                         f"(dt too large?)")

    def __reduce__(self):
        return NonFinite, (self.step_index,)


# ---------------------------------------------------------------------------
# drift and noise specifications
# ---------------------------------------------------------------------------

# each drift family's params, all required
_DRIFT_PARAMS = {"cubic": ("K",), "linear": ("a",), "zero": ()}


def _drift_flow(name, params, dt, R):
    """u -> phi_dt(clip(u, -R, R)) as a fresh array (module docstring);
    numpy's exp makes an explosive drift's factor inf, not an error."""
    if name == "zero":
        return lambda u: u + 0.0
    if name == "linear":
        grow = np.exp(params["a"] * dt)
        return lambda u: np.clip(u, -R, R) * grow
    K = params["K"]
    grow = np.exp(K * dt)
    c = np.expm1(2.0 * K * dt) / K if K else 2.0 * dt

    def cubic(u):
        x = np.clip(u, -R, R)
        with np.errstate(divide="ignore"):
            v = np.reciprocal(np.square(x))
        v += c
        np.divide(grow, np.sqrt(v, out=v), out=v)
        return np.copysign(v, x, out=v)
    return cubic


def _dissipativity_margins(name, params, K1, K2, K3, R):
    """Exact (growth margin, Lipschitz margin, Cf) of a drift family on
    |x| <= R: min of K1 - K2 x^2 - x f(x), min of K3 - f', and
    max(0, max of f on [0, R])."""
    if name == "cubic":
        K = params["K"]
        # K1 - b s + s^2 in s = x^2 on [0, R^2], vertex at s = b / 2
        b = K2 + K
        if b <= 0.0:
            growth = K1
        elif b / 2.0 <= R * R:
            growth = K1 - b * b / 4.0
        else:
            growth = K1 - b * R * R + R ** 4
        # f = x (K - x^2) peaks on x >= 0 at x = sqrt(K/3)
        if K <= 0.0:
            cf = 0.0
        elif K <= 3.0 * R * R:
            cf = (2.0 * K / 3.0) * math.sqrt(K / 3.0)
        else:
            cf = R * (K - R * R)
        return growth, K3 - K, cf
    # linear a x; zero, which has no params, is a = 0.  K1 - (K2 + a) x^2
    # is smallest at |x| = R when K2 + a > 0, else at x = 0.
    a = params.get("a", 0.0)
    return K1 - max(0.0, K2 + a) * R * R, K3 - a, max(0.0, a * R)


@dataclass(frozen=True)
class DriftSpec:
    name: str
    params: dict
    K1: float
    K2: float
    K3: float

    def __post_init__(self):
        if self.name not in _DRIFT_PARAMS:
            raise ConfigError(f"field 'name': unknown drift {self.name!r}")
        object.__setattr__(self, "params", read_keys(
            self.params, dict.fromkeys(_DRIFT_PARAMS[self.name], number),
            f"'params' of the {self.name} drift", _DRIFT_PARAMS[self.name]))

    def check_dissipativity(self):
        """One-sided growth and one-sided Lipschitz bounds on
        |x| <= ASSUMPTION_RANGE, in closed form.

        Returns (ok, report); report carries the worst margins and Cf.
        """
        m1, m2, cf = _dissipativity_margins(self.name, self.params, self.K1,
                                            self.K2, self.K3,
                                            ASSUMPTION_RANGE)
        ok = bool(m1 >= -1e-9 and m2 >= -1e-9)
        return ok, {"min_growth_margin": float(m1),
                    "min_lipschitz_margin": float(m2), "Cf": float(cf)}

    @staticmethod
    def from_json_obj(obj) -> "DriftSpec":
        return DriftSpec(**read_keys(obj, _DRIFT_READERS, "drift",
                                     _DRIFT_READERS))


# the drift keys, all required; __post_init__ reads the params by family
_DRIFT_READERS = {"name": str, "params": lambda params: params,
                  "K1": _positive, "K2": _positive, "K3": number}


# each closed-form profile kind's keys, all required, with their readers
_PROFILE_READERS = {"const": {"kind": str, "amp": number},
                    "cos": {"kind": str, "amp": number, "freq": number},
                    "sin": {"kind": str, "amp": number, "freq": number}}


def read_profile(obj) -> dict:
    """A closed-form profile object (`profile`), read by its kind's table."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind not in ("const", "cos", "sin"):
        raise ConfigError(f"field 'kind': must be 'const', 'cos' or 'sin' "
                          f"in a profile object, not {obj!r}")
    readers = _PROFILE_READERS[kind]
    return read_keys(obj, readers, f"{kind} profile", readers)


_VALUES_READERS = {"values": array(1, float)}


def read_field(obj) -> dict:
    """An initial field object: {"values": [numbers]} or a profile."""
    if isinstance(obj, dict) and "values" in obj:
        return read_keys(obj, _VALUES_READERS, "field", {"values"})
    return read_profile(obj)


def profile(spec, N: int) -> np.ndarray:
    """A profile or field read by `read_field` at the grid points j / N:
    its N values, const amp, or amp cos / amp sin of 2 pi freq x."""
    if "values" in spec:
        if len(spec["values"]) != N:
            raise ConfigError(f"{len(spec['values'])} values, but the "
                              f"grid has {N} points")
        return spec["values"]
    if spec["kind"] == "const":
        return np.full(N, spec["amp"], dtype=float)
    grid = np.arange(N) / N
    wave = np.cos if spec["kind"] == "cos" else np.sin
    return spec["amp"] * wave(2 * np.pi * spec["freq"] * grid)


@dataclass(frozen=True)
class NoiseSpec:
    m: int
    sigma: tuple = ()     # closed-form profile dicts, one per mode

    def __post_init__(self):
        if self.m != len(self.sigma):
            raise ConfigError(f"field 'm': must equal len(sigma), "
                              f"{len(self.sigma)}, not {self.m!r}")

    def tabulate(self, N: int) -> np.ndarray:
        return np.array([profile(s, N) for s in self.sigma]).reshape(self.m, N)

    @staticmethod
    def from_json_obj(obj) -> "NoiseSpec":
        return NoiseSpec(**read_keys(obj, _NOISE_READERS, "noise", {"m"}))


_NOISE_READERS = {"m": integer,
                  "sigma": lambda sigma: tuple(map(read_profile, sigma))}


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Field:
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ConfigError("non-finite field values")
        object.__setattr__(self, "values", v)
        self.values.setflags(write=False)


def l2_sq(values: np.ndarray) -> np.ndarray:
    """Quadrature-weighted squared L2 norm along the grid axis."""
    return (np.asarray(values, dtype=float) ** 2).mean(axis=-1)


def phi(values) -> np.ndarray | float:
    """Signed square functional 2 * integral of x^2 sign(x)."""
    v = np.asarray(values, dtype=float)
    return 2.0 * (v ** 2 * np.sign(v)).mean(axis=-1)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# the largest seed: the noise generator's key is an unsigned 64-bit integer
SEED_MAX = 2 ** 64 - 1

# the solver block's keys; the defaults of the optional ones live in SpdeConfig
_SOLVER_READERS = {"N": checked(integer, lambda N: N >= 2, "at least 2"),
                   "dt": _positive, "T": number,
                   "drift": DriftSpec.from_json_obj,
                   "noise": NoiseSpec.from_json_obj, "seed": integer,
                   "n_paths": checked(integer, lambda n: n >= 1,
                                      "at least 1"),
                   "clamp_R": _positive}


@dataclass(frozen=True)
class SpdeConfig:
    N: int
    dt: float
    T: float
    drift: DriftSpec
    noise: NoiseSpec
    seed: int = 0
    n_paths: int = 1
    clamp_R: float = 20.0

    def __post_init__(self):
        self.step_of(self.T, "T")
        if not 0 <= self.seed <= SEED_MAX:
            raise ConfigError(f"field 'seed': must be in [0, {SEED_MAX}], "
                              f"not {self.seed!r}")

    def step_of(self, t: float, key: str) -> int:
        """The step k with k dt = t (to 1e-9 relative): a negative time or
        one off the dt grid is a ConfigError naming `key`."""
        k = int(round(t / self.dt))
        if k < 0 or abs(k * self.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ConfigError(f"field {key!r}: must be a nonnegative "
                              f"multiple of dt = {self.dt!r}, not {t!r}")
        return k

    @property
    def n_steps(self) -> int:
        return self.step_of(self.T, "T")

    @staticmethod
    def from_json_obj(obj) -> "SpdeConfig":
        return SpdeConfig(**read_keys(obj, _SOLVER_READERS, "spde block",
                                      {"N", "dt", "T", "drift", "noise"}))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def noise_draws(seed: int, step_index: int, n_paths: int, m: int) -> np.ndarray:
    """Standard-normal block for one time step, counter-keyed by
    (seed, step); paths and modes are identified by array position."""
    gen = np.random.Generator(
        np.random.Philox(key=np.array([seed, step_index], dtype=np.uint64)))
    return gen.standard_normal((n_paths, m))


# rows of every resolvent product (module docstring)
_BLOCK_ROWS = 128


def _resolvent(N: int, dt: float) -> np.ndarray:
    """G = (I - dt L_h)^{-1} in closed form, a symmetric circulant.

    With a = dt N^2 the operator is (1 + 2a) u_i - a (u_{i-1} + u_{i+1}).
    Its Green's function on the line is rho^|k| / sqrt(1 + 4a), with
    rho = 2a / (1 + 2a + sqrt(1 + 4a)) the root in (0, 1) of
    a rho^2 - (1 + 2a) rho + a = 0 (so a (1/rho - rho) = sqrt(1 + 4a)), and
    summing its periodic images gives

        G_k = (rho^k + rho^(N-k)) / (sqrt(1 + 4a) (1 - rho^N)),

    a sum and a quotient of positive numbers, so no entry can round below
    zero.
    """
    a = dt * N * N
    root = math.sqrt(1.0 + 4.0 * a)
    rho = 2.0 * a / (1.0 + 2.0 * a + root)
    k = np.arange(N)
    row = (rho ** k + rho ** (N - k)) / (root * (1.0 - rho ** N))
    return row[np.abs(k[:, None] - k[None, :])]


class Stepper:
    """Precomputed tables for repeated steps of one configuration."""

    def __init__(self, config: SpdeConfig):
        self.config = config
        N = config.N
        self.sigma = config.noise.tabulate(N)          # (m, N)
        self.resolvent = _resolvent(N, config.dt)
        if np.any(self.resolvent < 0.0):
            raise ConfigError("the implicit resolvent has a negative entry, "
                              "so the step would not preserve order")
        self._padded = np.zeros((_BLOCK_ROWS, N))
        self.sqrt_dt = math.sqrt(config.dt)
        self.flow = _drift_flow(config.drift.name, config.drift.params,
                                config.dt, config.clamp_R)

    def increment(self, draws: np.ndarray) -> np.ndarray:
        """The noise increment sqrt(dt) sum_k sigma_k g_k of each row of a
        draw block (paths, m), summed over the modes in order, so a row's
        value does not depend on the rows drawn with it."""
        if not self.config.noise.m:
            return np.zeros((len(draws), self.config.N))
        total = draws[:, :1] * self.sigma[0]
        for j in range(1, self.config.noise.m):
            total += draws[:, j:j + 1] * self.sigma[j]
        total *= self.sqrt_dt
        return total

    def step(self, u: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """One splitting step of an ensemble u (paths on leading axes);
        `noise` is `increment` of the draws of u's rows."""
        cfg = self.config
        rhs = self.flow(u)
        if cfg.noise.m:
            rhs += noise
        # b + (rhs - b) G in fixed row blocks (module docstring)
        rows = rhs.reshape(-1, cfg.N)
        base = rows[:, :1].copy()
        rows -= base
        out = np.empty_like(rows)
        full = len(rows) - len(rows) % _BLOCK_ROWS
        for lo in range(0, full, _BLOCK_ROWS):
            hi = lo + _BLOCK_ROWS
            np.matmul(rows[lo:hi], self.resolvent, out=out[lo:hi])
        if full < len(rows):
            tail = len(rows) - full
            self._padded[:tail] = rows[full:]
            self._padded[tail:] = 0.0
            out[full:] = (self._padded @ self.resolvent)[:tail]
        out += base
        return out.reshape(rhs.shape)


# cell-steps (paths x grid points x ensembles x steps) one forked shard
# must carry; below it the fork and the hand-back cost more than the
# stepping they spread.  `simulate` of N = 64 fields for 1024 steps on a
# 2-core Xeon (medians of 5 to 9 runs, BLAS pinned to one thread), one
# shard against two: 128 paths (2^22 cell-steps a shard) 164 / 159 ms,
# 192 paths 251 / 176 ms, 256 paths 233 / 179 ms
_SHARD_MIN_WORK = 1 << 22


def integrate(config: SpdeConfig, ensembles: tuple, steps,
              observe) -> dict:
    """Advance every ensemble in `ensembles` (arrays (n_paths, N)) through
    steps 1..max(steps), all on the one noise path keyed by `config.seed`.

    The paths are split into row shards (module docstring).  After each
    step k of `steps` (k >= 1), observe(ensembles) sees a shard's stepped
    rows and returns a partial result, an array with one row per path or
    per shard.  Returns {k: the partials of step k concatenated in path
    order}, in step order.  Raises NonFinite(k) for the first step k after
    which any ensemble has a non-finite value.
    """
    steps = set(steps)
    n_paths, N = ensembles[0].shape
    work = n_paths * N * len(ensembles) * max(steps, default=0)
    shards = max(1, min(usable_cpus(), n_paths, work // _SHARD_MIN_WORK))
    results = run_sharded(n_paths, shards, lambda lo, hi: _integrate_rows(
        config, ensembles, lo, hi, steps, observe))
    failed = [k for k, _ in results if k is not None]
    if failed:
        raise NonFinite(min(failed))
    return {k: np.concatenate([partials[k] for _, partials in results])
            for k in results[0][1]}


def _integrate_rows(config, ensembles, lo, hi, steps, observe):
    """Rows lo:hi of `integrate`: (first non-finite step or None,
    {k: observe's partial})."""
    stepper = Stepper(config)
    n_paths = ensembles[0].shape[0]
    ensembles = tuple(U[lo:hi] for U in ensembles)
    partials = {}
    for k in range(1, max(steps, default=0) + 1):
        # the whole block is drawn, as the generator makes it in one
        # stream, but only rows lo:hi of its increment are formed
        noise = stepper.increment(
            noise_draws(config.seed, k, n_paths, config.noise.m)[lo:hi])
        ensembles = tuple(stepper.step(U, noise) for U in ensembles)
        if not all(np.all(np.isfinite(U)) for U in ensembles):
            return k, partials
        if k in steps:
            partials[k] = observe(ensembles)
    return None, partials


def simulate(config: SpdeConfig, u0, record_times):
    """Run an ensemble; return {t: array (n_paths, N)} for each record time t.

    u0 may be a Field (broadcast over paths) or an (n_paths, N) array.  The
    noise path is config.seed's: a second initial condition rides the
    identical noise path under the same config, or an independent one
    under a config with another seed.
    """
    u0v = u0.values if isinstance(u0, Field) else np.asarray(u0, dtype=float)
    if u0v.ndim == 1:
        U = np.broadcast_to(u0v, (config.n_paths, config.N)).copy()
    else:
        U = u0v.copy()
    steps = {float(t): config.step_of(t, "record_times")
             for t in record_times}
    # every step returns fresh arrays, so a snapshot needs no copy
    snaps = integrate(config, (U,), steps.values(),
                      lambda ensembles: ensembles[0])
    snaps[0] = U
    return {t: snaps[k] for t, k in steps.items()}

