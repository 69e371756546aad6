"""Monotone semi-implicit solver for a stochastic reaction-diffusion
equation on the unit-volume 1-D torus with finitely many noise modes.

    du = [Laplacian(u) + f(u)] dt + sum_k sigma_k(xi) dW^k.

One step is drift-explicit / diffusion-implicit:

    u+ = G [u + dt f(clamp(u)) + sqrt(dt) sum_k sigma_k g_k],

    G = (I - dt * L_h)^{-1},

with L_h the 3-point circulant Laplacian scaled by N^2.  I - dt L_h is an
M-matrix, so its resolvent G is entrywise positive; `Stepper` builds G
once, in closed form (the periodized Green's function of the 3-point
operator, no transform whose rounding could leave an entry below zero),
and refuses a G with a negative entry.  A positive-weight sum is
order-preserving unconditionally; the explicit drift map preserves
pointwise order iff dt * L_R <= 1 where L_R = max(0, -min f') on the
clamp interval [-R, R].  Each drift family states L_R in closed form
(cubic K x - x^3: max(0, 3 R^2 - K); linear a x: max(0, -a); zero: 0),
and the product guard is enforced at config time, so the whole scheme
is provably monotone.  The dissipativity margins of each family are
closed forms too.

A step evaluates the drift in closed form (the cubic as x (K - x x), which
avoids numpy's slow general power), builds the right-hand side r in one
buffer and applies the dense positive resolvent in fixed row blocks: it
forms b + (r - b) G with b the first entry of each row (G's rows sum to
one, so this is r G, and a constant row stays exactly constant), as one
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

`integrate` is the one time-stepping loop: it advances a tuple of
ensembles on one shared noise path, checks finiteness after every step
and hands each step to an observer.  `simulate` and the experiments are
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
per-shard reduction: it maps a shard's rows at step k to a partial
result array, and the parent concatenates the partials of step k in
path order (snapshots and per-path distances row by row; a maximum as
one value per shard, whose maximum the caller takes).  A shard that
meets a non-finite value stops and returns that step's index; the
parent raises NonFinite for the smallest one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .serialize import ConfigError, array, integer, number, read_keys
from .shards import run_sharded, usable_cpus

ASSUMPTION_RANGE = 50.0


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


def _drift_function(name, params):
    """(f(x), L(R)) of a drift family; L(R) = max(0, -min f' on [-R, R])
    in closed form."""
    if name == "cubic":
        K = params["K"]
        return (lambda x: x * (K - x * x),
                lambda R: max(0.0, 3.0 * R * R - K))
    if name == "linear":
        a = params["a"]
        return lambda x: a * x, lambda R: max(0.0, -a)
    return np.zeros_like, lambda R: 0.0


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
        if self.K1 <= 0 or self.K2 <= 0:
            raise ConfigError("need K1, K2 > 0")
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

    def negative_slope_bound(self, R: float) -> float:
        """L_R = max(0, -min f' on [-R, R]), exact."""
        return _drift_function(self.name, self.params)[1](float(R))

    @staticmethod
    def from_json_obj(obj) -> "DriftSpec":
        return DriftSpec(**read_keys(obj, _DRIFT_READERS, "drift",
                                     _DRIFT_READERS))


# the drift keys, all required; __post_init__ reads the params by family
_DRIFT_READERS = {"name": str, "params": lambda params: params,
                  "K1": number, "K2": number, "K3": number}


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
            raise ConfigError(f"field 'values': {len(spec['values'])} "
                              f"values, but the grid has {N} points")
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
            raise ConfigError("m must match the number of noise profiles")

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
_SOLVER_READERS = {"N": integer, "dt": number, "T": number,
                   "drift": DriftSpec.from_json_obj,
                   "noise": NoiseSpec.from_json_obj, "seed": integer,
                   "n_paths": integer, "clamp_R": number}


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
        if self.N < 2 or self.dt <= 0 or self.T < 0 or self.n_paths < 1:
            raise ConfigError("invalid grid/time parameters")
        if not 0 <= self.seed <= SEED_MAX:
            raise ConfigError(f"field 'seed': must be in [0, {SEED_MAX}], "
                              f"not {self.seed!r}")
        L_R = self.drift.negative_slope_bound(self.clamp_R)
        if self.dt * L_R > 1.0 + 1e-12:
            raise ConfigError(
                f"monotonicity restriction violated: dt * L_R = "
                f"{self.dt * L_R:.6g} > 1 (L_R = {L_R:.6g})")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

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
        self.f = _drift_function(config.drift.name, config.drift.params)[0]

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
        """One semi-implicit step of an ensemble u (paths on leading axes);
        `noise` is `increment` of the draws of u's rows."""
        cfg = self.config
        clamped = np.clip(u, -cfg.clamp_R, cfg.clamp_R)
        # u + dt f(clamp(u)) built in the drift's fresh array; IEEE + and *
        # commute, so the order of the operands does not change the result
        rhs = self.f(clamped)
        rhs *= cfg.dt
        rhs += u
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


def integrate(config: SpdeConfig, ensembles: tuple, n_steps: int,
              observe) -> dict:
    """Advance every ensemble in `ensembles` (arrays (n_paths, N)) through
    steps 1..n_steps, all on the one noise path keyed by `config.seed`.

    The paths are split into row shards (module docstring).  After each
    step k, observe(k, ensembles) sees a shard's stepped rows and returns
    a partial result, an array with one row per path or per shard, or None
    to record nothing.  Returns {k: the partials of step k concatenated in
    path order}.  Raises NonFinite(k) for the first step k after which any
    ensemble has a non-finite value.
    """
    n_paths, N = ensembles[0].shape
    work = n_paths * N * len(ensembles) * n_steps
    shards = max(1, min(usable_cpus(), n_paths, work // _SHARD_MIN_WORK))
    results = run_sharded(n_paths, shards, lambda lo, hi: _integrate_rows(
        config, ensembles, lo, hi, n_steps, observe))
    failed = [k for k, _ in results if k is not None]
    if failed:
        raise NonFinite(min(failed))
    return {k: np.concatenate([partials[k] for _, partials in results])
            for k in results[0][1]}


def _integrate_rows(config, ensembles, lo, hi, n_steps, observe):
    """Rows lo:hi of `integrate`: (first non-finite step or None,
    {k: observe's partial})."""
    stepper = Stepper(config)
    n_paths = ensembles[0].shape[0]
    ensembles = tuple(U[lo:hi] for U in ensembles)
    partials = {}
    for k in range(1, n_steps + 1):
        # the whole block is drawn, as the generator makes it in one
        # stream, but only rows lo:hi of its increment are formed
        noise = stepper.increment(
            noise_draws(config.seed, k, n_paths, config.noise.m)[lo:hi])
        ensembles = tuple(stepper.step(U, noise) for U in ensembles)
        if not all(np.all(np.isfinite(U)) for U in ensembles):
            return k, partials
        partial = observe(k, ensembles)
        if partial is not None:
            partials[k] = partial
    return None, partials


def simulate(config: SpdeConfig, u0, record_times):
    """Run an ensemble and return {time: array (n_paths, N)} snapshots.

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
    steps_for = {}
    for t in record_times:
        k = int(round(t / config.dt))
        if abs(k * config.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ConfigError(f"record time {t} is not a multiple of dt")
        steps_for.setdefault(k, float(t))
    out = {steps_for[0]: U} if 0 in steps_for else {}
    # every step returns fresh arrays, so a snapshot needs no copy
    snaps = integrate(config, (U,), max(steps_for, default=0),
                      lambda k, ensembles:
                      ensembles[0] if k in steps_for else None)
    out.update((steps_for[k], snap) for k, snap in snaps.items())
    return out

