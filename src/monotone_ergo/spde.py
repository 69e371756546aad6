"""Monotone semi-implicit solver for a stochastic reaction-diffusion
equation on the unit-volume 1-D torus with finitely many noise modes.

    du = [Laplacian(u) + f(u, xi)] dt + sum_k sigma_k(xi) dW^k.

One step is drift-explicit / diffusion-implicit:

    u+ = (I - dt * L_h)^{-1} [u + dt f(clamp(u)) + sqrt(dt) sum_k sigma_k g_k]

with L_h the 3-point circulant Laplacian scaled by N^2, solved by FFT
diagonalization.  The implicit factor is the inverse of an M-matrix and
hence order-preserving unconditionally; the explicit drift map preserves
pointwise order iff dt * L_R <= 1 where L_R = max(0, -min f') on the clamp
interval [-R, R].  Each drift family states L_R in closed form (cubic
K x - x^3: max(0, 3 R^2 - K); linear a x: max(0, -a); zero: 0), and the
product guard is enforced at config time, so the whole scheme is provably
monotone.  The dissipativity margins of each family are closed forms too.

A step evaluates the drift in closed form (the cubic as x (K - x x), which
avoids numpy's slow general power), builds the right-hand side in one
buffer and solves through `scipy.fft`'s real transforms; each step returns
a fresh array, because observers may keep the stepped ensembles.

Noise draws come from a counter-based generator keyed by (seed, step):
paths and modes are indexed by array position inside one block, which
makes runs bit-reproducible and lets two initial conditions share the
identical noise path.

`integrate` is the one time-stepping loop: it advances a tuple of
ensembles on one shared noise path, checks finiteness after every step
and hands each step to an observer.  `simulate`, `comparison_check` and
the experiments are observers on top of it.

Stepping is row-independent bit for bit, so `integrate` splits the path
axis into contiguous row shards, one per usable CPU, as long as every
shard gets `_SHARD_MIN_WORK` cell-steps (a shorter job costs less than
the forks that would spread it), and runs them through
`shards.run_sharded`: each shard steps in its own `fork`ed worker
process, and a single shard runs in-process through the same function.
Every shard draws the full noise block of each step, forms the noise
increment of the whole block and keeps its own rows, so the noise stream
and every output are those of one unsharded loop.  An observer is
therefore a per-shard reduction: it maps a shard's rows at step k to a
partial result array, and the parent concatenates the partials of step k
in path order (snapshots and per-path distances row by row; a maximum
as one value per shard, whose maximum the caller takes).  A shard that
meets a non-finite value stops and returns that step's index; the
parent raises NonFinite for the smallest one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft

from .shards import run_sharded, usable_cpus

ASSUMPTION_RANGE = 50.0


class SpdeError(ValueError):
    pass


class ConfigError(SpdeError):
    pass


class NonFinite(SpdeError):
    def __init__(self, step_index):
        self.step_index = step_index
        super().__init__(f"non-finite field values at step {step_index} "
                         f"(dt too large?)")

    def __reduce__(self):
        return NonFinite, (self.step_index,)


class NotOrdered(SpdeError):
    def __init__(self, pair_index):
        self.pair_index = pair_index
        super().__init__(f"field pair {pair_index} is not pointwise ordered")


# ---------------------------------------------------------------------------
# drift and noise specifications
# ---------------------------------------------------------------------------

def _drift_function(name, params):
    """(f(x, xi), L(R)) of a drift family; L(R) = max(0, -min f' on [-R, R])
    in closed form."""
    if name == "cubic":
        K = float(params.get("K", 1.0))
        return (lambda x, xi: x * (K - x * x),
                lambda R: max(0.0, 3.0 * R * R - K))
    if name == "linear":
        a = float(params.get("a", -1.0))
        return lambda x, xi: a * x, lambda R: max(0.0, -a)
    if name == "zero":
        return lambda x, xi: np.zeros_like(x), lambda R: 0.0
    raise ConfigError(f"unknown drift {name!r}")


def _dissipativity_margins(name, params, K1, K2, K3, R):
    """Exact (growth margin, Lipschitz margin, Cf) of a drift family on
    |x| <= R: min of K1 - K2 x^2 - x f(x), min of K3 - f', and
    max(0, max of f on [0, R])."""
    if name == "cubic":
        K = float(params.get("K", 1.0))
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
    # linear a x; zero is a = 0.  K1 - (K2 + a) x^2 is smallest at |x| = R
    # when K2 + a > 0, else at x = 0.
    a = float(params.get("a", -1.0)) if name == "linear" else 0.0
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
        _drift_function(self.name, self.params)  # validates the name

    def check_dissipativity(self, R: float = ASSUMPTION_RANGE):
        """One-sided growth and one-sided Lipschitz bounds on |x| <= R, in
        closed form.

        Returns (ok, report); report carries the worst margins and Cf.
        """
        m1, m2, cf = _dissipativity_margins(self.name, self.params, self.K1,
                                            self.K2, self.K3, float(R))
        ok = bool(m1 >= -1e-9 and m2 >= -1e-9)
        return ok, {"min_growth_margin": float(m1),
                    "min_lipschitz_margin": float(m2), "Cf": float(cf)}

    def negative_slope_bound(self, R: float) -> float:
        """L_R = max(0, -min f' on [-R, R]), exact."""
        return _drift_function(self.name, self.params)[1](float(R))

    def to_json_obj(self):
        return {"name": self.name, "params": dict(self.params),
                "K1": self.K1, "K2": self.K2, "K3": self.K3}

    @staticmethod
    def from_json_obj(obj):
        allowed = {"name", "params", "K1", "K2", "K3"}
        _reject_unknown(obj, allowed, "drift")
        return DriftSpec(name=obj["name"], params=dict(obj.get("params", {})),
                         K1=float(obj["K1"]), K2=float(obj["K2"]),
                         K3=float(obj["K3"]))


def _sigma_values(spec, grid):
    kind = spec.get("kind")
    amp = float(spec.get("amp", 1.0))
    if kind == "const":
        return np.full_like(grid, amp)
    if kind == "cos":
        return amp * np.cos(2 * np.pi * float(spec.get("freq", 1)) * grid)
    if kind == "sin":
        return amp * np.sin(2 * np.pi * float(spec.get("freq", 1)) * grid)
    raise ConfigError(f"unknown noise profile {kind!r}")


@dataclass(frozen=True)
class NoiseSpec:
    m: int
    sigma: tuple          # tuple of profile dicts (closed-form expressions)

    def __post_init__(self):
        if self.m != len(self.sigma):
            raise ConfigError("m must match the number of noise profiles")
        object.__setattr__(self, "sigma", tuple(dict(s) for s in self.sigma))

    def tabulate(self, N: int) -> np.ndarray:
        grid = np.arange(N) / N
        if self.m == 0:
            return np.zeros((0, N))
        return np.stack([_sigma_values(s, grid) for s in self.sigma])

    def to_json_obj(self):
        return {"m": self.m, "sigma": [dict(s) for s in self.sigma]}

    @staticmethod
    def from_json_obj(obj):
        _reject_unknown(obj, {"m", "sigma"}, "noise")
        return NoiseSpec(m=int(obj["m"]), sigma=tuple(obj.get("sigma", [])))


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Field:
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise SpdeError("non-finite field values")
        object.__setattr__(self, "values", v)
        self.values.setflags(write=False)

    @property
    def N(self):
        return len(self.values)

    def leq(self, other: "Field") -> bool:
        return bool(np.all(self.values <= other.values))


def l2_sq(values: np.ndarray) -> np.ndarray:
    """Quadrature-weighted squared L2 norm along the grid axis."""
    return (np.asarray(values, dtype=float) ** 2).mean(axis=-1)


def phi(values) -> np.ndarray | float:
    """Signed square functional 2 * integral of x^2 sign(x)."""
    v = np.asarray(values, dtype=float)
    return 2.0 * (v ** 2 * np.sign(v)).mean(axis=-1)


def psi(values) -> np.ndarray | float:
    return 4.0 * math.sqrt(2.0) * (1.0 + l2_sq(values))


def field_distance_sq(x, y) -> float:
    """d(x, y) = squared L2 distance with unit-volume quadrature."""
    return float(l2_sq(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))


def phi_condition_check(pairs, tol: float = 1e-10):
    """Verify the premetric sandwich and the square-root Hoelder bound on a
    list of pointwise-ordered field pairs (x below y)."""
    results = []
    for idx, (x, y) in enumerate(pairs):
        xv = x.values if isinstance(x, Field) else np.asarray(x, dtype=float)
        yv = y.values if isinstance(y, Field) else np.asarray(y, dtype=float)
        if not np.all(xv <= yv):
            raise NotOrdered(idx)
        d = field_distance_sq(xv, yv)
        gap = float(phi(yv) - phi(xv))
        sandwich = -tol <= d <= gap + tol
        holder = abs(float(phi(xv) - phi(yv))) <= \
            d ** 0.5 * (psi(xv) + psi(yv)) + tol
        results.append({"pair": idx, "d": d, "phi_gap": gap,
                        "sandwich": bool(sandwich), "holder": bool(holder)})
    verdict = all(r["sandwich"] and r["holder"] for r in results)
    return verdict, results


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _reject_unknown(obj, allowed, where):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} field(s): {sorted(unknown)}")


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
    scheme: str = "semi_implicit"

    def __post_init__(self):
        if self.scheme != "semi_implicit":
            raise ConfigError(f"unsupported scheme {self.scheme!r}")
        if self.N < 2 or self.dt <= 0 or self.T < 0 or self.n_paths < 1:
            raise ConfigError("invalid grid/time parameters")
        L_R = self.drift.negative_slope_bound(self.clamp_R)
        if self.dt * L_R > 1.0 + 1e-12:
            raise ConfigError(
                f"monotonicity restriction violated: dt * L_R = "
                f"{self.dt * L_R:.6g} > 1 (L_R = {L_R:.6g})")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    def with_seed(self, seed: int) -> "SpdeConfig":
        return replace(self, seed=int(seed))

    def to_json_obj(self):
        return {"N": self.N, "dt": self.dt, "T": self.T,
                "drift": self.drift.to_json_obj(),
                "noise": self.noise.to_json_obj(),
                "seed": self.seed, "n_paths": self.n_paths,
                "clamp_R": self.clamp_R, "scheme": self.scheme}

    @staticmethod
    def from_json_obj(obj) -> "SpdeConfig":
        allowed = {"N", "dt", "T", "drift", "noise", "seed", "n_paths",
                   "clamp_R", "scheme"}
        _reject_unknown(obj, allowed, "config")
        return SpdeConfig(
            N=int(obj["N"]), dt=float(obj["dt"]), T=float(obj["T"]),
            drift=DriftSpec.from_json_obj(obj["drift"]),
            noise=NoiseSpec.from_json_obj(obj["noise"]),
            seed=int(obj.get("seed", 0)),
            n_paths=int(obj.get("n_paths", 1)),
            clamp_R=float(obj.get("clamp_R", 20.0)),
            scheme=obj.get("scheme", "semi_implicit"))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def noise_draws(seed: int, step_index: int, n_paths: int, m: int) -> np.ndarray:
    """Standard-normal block for one time step, counter-keyed by
    (seed, step); paths and modes are identified by array position."""
    gen = np.random.Generator(
        np.random.Philox(key=np.array([seed, step_index], dtype=np.uint64)))
    return gen.standard_normal((n_paths, m))


class Stepper:
    """Precomputed tables for repeated steps of one configuration."""

    def __init__(self, config: SpdeConfig):
        self.config = config
        N = config.N
        self.grid = np.arange(N) / N
        self.sigma = config.noise.tabulate(N)          # (m, N)
        j = np.arange(N // 2 + 1)
        lam = -2.0 * N * N * (1.0 - np.cos(2.0 * np.pi * j / N))
        self.implicit_factor = 1.0 / (1.0 - config.dt * lam)
        self.sqrt_dt = math.sqrt(config.dt)
        self.f = _drift_function(config.drift.name, config.drift.params)[0]

    def increment(self, draws: np.ndarray) -> np.ndarray:
        """The noise increment sqrt(dt) sum_k sigma_k g_k of each row of a
        draw block (paths, m)."""
        return self.sqrt_dt * (draws @ self.sigma)

    def step(self, u: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """One semi-implicit step of an ensemble u (paths on leading axes);
        `noise` holds u's rows of `increment(draws)`."""
        cfg = self.config
        clamped = np.clip(u, -cfg.clamp_R, cfg.clamp_R)
        # u + dt f(clamp(u)) built in the drift's fresh array; IEEE + and *
        # commute, so the order of the operands does not change the result
        rhs = self.f(clamped, self.grid)
        rhs *= cfg.dt
        rhs += u
        if cfg.noise.m:
            rhs += noise
        spec = scipy.fft.rfft(rhs, axis=-1)
        spec *= self.implicit_factor
        return scipy.fft.irfft(spec, n=cfg.N, axis=-1)


# cell-steps (paths x grid points x ensembles x steps) one forked shard
# must carry; below it the fork and the hand-back cost more than the
# stepping they spread
_SHARD_MIN_WORK = 1 << 22


def integrate(config: SpdeConfig, ensembles: tuple, seed: int,
              n_steps: int, observe) -> dict:
    """Advance every ensemble in `ensembles` (arrays (n_paths, N)) through
    steps 1..n_steps, all on the one noise path keyed by `seed`.

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
        config, ensembles, lo, hi, seed, n_steps, observe))
    failed = [k for k, _ in results if k is not None]
    if failed:
        raise NonFinite(min(failed))
    return {k: np.concatenate([partials[k] for _, partials in results])
            for k in results[0][1]}


def _integrate_rows(config, ensembles, lo, hi, seed, n_steps, observe):
    """Rows lo:hi of `integrate`: (first non-finite step or None,
    {k: observe's partial})."""
    stepper = Stepper(config)
    n_paths = ensembles[0].shape[0]
    ensembles = tuple(U[lo:hi] for U in ensembles)
    partials = {}
    for k in range(1, n_steps + 1):
        # the increment of the whole block, as one unsharded loop forms it
        noise = stepper.increment(
            noise_draws(seed, k, n_paths, config.noise.m))[lo:hi]
        ensembles = tuple(stepper.step(U, noise) for U in ensembles)
        if not all(np.all(np.isfinite(U)) for U in ensembles):
            return k, partials
        partial = observe(k, ensembles)
        if partial is not None:
            partials[k] = partial
    return None, partials


def simulate(config: SpdeConfig, u0, record_times, seed: int | None = None):
    """Run an ensemble and return {time: array (n_paths, N)} snapshots.

    u0 may be a Field (broadcast over paths) or an (n_paths, N) array.
    `seed` overrides config.seed, which is how a second initial condition
    rides the identical noise path (same seed) or an independent one.
    """
    seed = config.seed if seed is None else int(seed)
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
    snaps = integrate(config, (U,), seed, max(steps_for, default=0),
                      lambda k, ensembles:
                      ensembles[0] if k in steps_for else None)
    out.update((steps_for[k], snap) for k, snap in snaps.items())
    return out


def comparison_check(config: SpdeConfig, x: Field, y: Field, T: float,
                     n_paths: int) -> float:
    """Max pointwise order violation (u_x - u_y)+ over shared-noise pairs,
    all steps, all grid points."""
    if not x.leq(y):
        raise SpdeError("initial fields must satisfy x <= y pointwise")
    cfg = replace(config, T=T, n_paths=n_paths)
    worst = integrate(
        cfg, (np.broadcast_to(x.values, (n_paths, cfg.N)).copy(),
              np.broadcast_to(y.values, (n_paths, cfg.N)).copy()),
        cfg.seed, cfg.n_steps,
        lambda k, ensembles: np.array([(ensembles[0] - ensembles[1]).max()]))
    return max([0.0, *(float(v.max()) for v in worst.values())])
