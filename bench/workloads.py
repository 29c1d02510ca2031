"""Workload inputs, the rendered report of a pass, and the output check.

A workload is a fixed list of ops; an op is one unit of work as a user
would request it (one verify cell, one beta sweep, one J profile).  The
benchmark seed sets the bin edges of the verify workloads; seed 0
reproduces the suite's bin seed 5, the input the stored references in
``reference/`` were produced from.  ``random_fourier_q`` keeps the suite's
seed 11 whatever the benchmark seed.  Its x window, and with it the work,
varies up to 2x between state seeds (40 k to 76 k X nodes at m=48 over
seeds 11-24).  State seeds 16, 17 and 18 at m=6 raise ResolutionError at
beta 1e-3 and 0.1, the same defect ``verify_tails`` shows on
``uniform_q``.  A seeded state would thus measure the seed, not the code.

gupcert is imported inside the functions, after the worker has put the
checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

STATE_SEED = 11
J_TOLERANCE = 1e-6
ZETAS = (-1.0, 0.0, 2.0)

WORKLOADS = ("verify_light", "verify_tails", "sweep_fourier", "jprofile_custom")


def bins_seed(seed: int) -> int:
    return 5 + seed


@dataclass
class Op:
    name: str
    call: Callable[[], object]


@dataclass
class Workload:
    name: str
    seed: int
    kind: str                       # "records" or "j"
    ops: list
    seeded: bool = True             # do the bin edges depend on the seed?
    closed_form: dict = field(default_factory=dict)   # op name -> J array


def _verify_op(spec: dict, beta: float, sigmas, alphas, seed: int) -> Op:
    from gupcert import suite

    config = suite.RunConfig(
        beta_grid=[beta], sigma_grid=list(sigmas), alpha_grid=list(alphas),
        states=[spec], bins={"delta_min": 0.05, "delta_max": 2.0,
                             "seed": bins_seed(seed)}).validate()
    return Op(f"{spec['name']}@beta={beta:g}",
              lambda: suite.run_verify(config)[0])


def _sweep_op(modes: int) -> Op:
    from gupcert import suite

    config = suite.RunConfig(
        beta_grid=[1e-3, 1e-2, 0.1, 1.0, 10.0],
        states=[{"name": "random_fourier_q", "shape_args": [modes],
                 "seed": STATE_SEED}]).validate()
    return Op(f"random_fourier_q(m={modes})",
              lambda: suite.run_sweep(config, "beta"))


def acceptance_tables():
    """The two tabulated |f|^2 profiles: Gaussian and raised-cosine squared."""
    import numpy as np

    z = np.linspace(-6.0, 6.0, 513)
    gaussian = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    t = np.linspace(-3.0, 3.0, 513)
    raised = (0.5 * (1.0 + np.cos(math.pi * t / 3.0))) ** 2 / 2.25  # unit mass
    return {"gaussian_table": (z, gaussian), "raised_cosine2_table": (t, raised)}


def _jprofile_ops() -> tuple[list, dict]:
    import numpy as np
    from gupcert import measurement
    from gupcert.core import Domain, Grid, make_params

    zeta_grid = Grid(nodes=np.array(ZETAS), weights=np.ones(len(ZETAS)),
                     domain_tag=Domain.ZETA)
    ops, closed = [], {}
    for table, (nodes, values) in acceptance_tables().items():
        f = measurement.custom_acceptance(nodes, values)
        for beta in (1.0, 10.0):
            params = make_params(beta)
            name = f"{table}@beta={beta:g}"
            ops.append(Op(name, lambda f=f, p=params:
                          measurement.j_profile(f, p, zeta_grid)))
            if table == "gaussian_table":
                closed[name] = measurement.j_profile(
                    measurement.gaussian_acceptance(1.0), params, zeta_grid)
    return ops, closed


def build(name: str, seed: int) -> Workload:
    if name == "verify_light":
        states = ({"name": "raised_cosine_q", "shape_args": [], "seed": None},
                  {"name": "truncated_gaussian_q", "shape_args": [0.25],
                   "seed": None},
                  {"name": "random_fourier_q", "shape_args": [6],
                   "seed": STATE_SEED})
        ops = [_verify_op(spec, beta, (0.1, 1.0, 10.0), (1.5, 2.0, 4.0), seed)
               for spec in states for beta in (1e-3, 0.1, 1.0)]
        return Workload(name, seed, "records", ops)
    if name == "verify_tails":
        spec = {"name": "uniform_q", "shape_args": [], "seed": None}
        ops = [_verify_op(spec, beta, (1.0, 10.0), (1.5, 2.0, 4.0), seed)
               for beta in (1e-3, 0.1, 1.0)]
        return Workload(name, seed, "records", ops)
    if name == "sweep_fourier":
        ops = [_sweep_op(m) for m in (8, 48)]
        return Workload(name, seed, "records", ops, seeded=False)
    if name == "jprofile_custom":
        ops, closed = _jprofile_ops()
        return Workload(name, seed, "j", ops, seeded=False,
                        closed_form=closed)
    raise ValueError(f"unknown workload {name!r}")


def warm_up() -> None:
    """One light verify cell: triggers the lazy imports (scipy.signal)."""
    from gupcert import suite

    config = suite.RunConfig(
        beta_grid=[1.0], sigma_grid=[1.0], alpha_grid=[2.0],
        states=[{"name": "raised_cosine_q", "shape_args": [], "seed": None}])
    suite.run_verify(config)


# ---------------------------------------------------------------------------
# rendering and serialization
# ---------------------------------------------------------------------------

def render(workload: Workload, outputs: dict) -> str:
    """The merged report of one pass, rendered through the library."""
    if workload.kind == "records":
        from gupcert import suite

        merged = [r for out in outputs.values() if isinstance(out, list)
                  for r in out]
        merged.sort(key=lambda r: r["digest"])
        return suite.render_json(merged)
    lines = [f"{name}: " + " ".join(format(float(v), ".17g") for v in out)
             for name, out in outputs.items() if not isinstance(out, Exception)]
    return "\n".join(lines) + "\n"


def _num(x):
    x = float(x)
    return None if math.isnan(x) else x


def serialize(workload: Workload, outputs: dict) -> dict:
    """JSON form of one pass's outputs, the format of ``reference/``."""
    ops = {}
    for name, out in outputs.items():
        if isinstance(out, Exception):
            ops[name] = {"error": type(out).__name__, "message": str(out)}
        elif workload.kind == "records":
            ops[name] = {"records": [[r["digest"], r["verdict"],
                                      _num(r["margin"]), _num(r["est_error"])]
                                     for r in out]}
        else:
            ops[name] = {"j": [float(v) for v in out]}
    return {"workload": workload.name, "seed": workload.seed, "ops": ops}


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------

def _margin_ok(margin, ref_margin, ref_est) -> bool:
    if margin is None or ref_margin is None:
        return margin is None and ref_margin is None
    return abs(margin - ref_margin) <= ref_est + 1e-12 * (1.0 + abs(ref_margin))


def _check_records(rows, ref_rows, exact: bool) -> str | None:
    """Compare one op's records with its reference; None when they agree.

    With the reference inputs every record must reappear with the same
    digest and verdict and a margin within the reference est_error.  With
    another seed the bin edges differ, so digests carry other bin widths:
    records are matched on their digest without the bin widths, verdicts
    must agree, and margins are compared where the record does not depend
    on the bins.
    """
    def key(digest):
        return digest if exact else digest.split(";delta_k=", 1)[0]

    ref = {}
    for digest, verdict, margin, est in ref_rows:
        ref.setdefault(key(digest), []).append((digest, verdict, margin, est))
    got = {}
    for digest, verdict, margin, est in rows:
        got.setdefault(key(digest), []).append((digest, verdict, margin, est))
    if sorted(ref) != sorted(got):
        missing = sorted(set(ref) - set(got))[:2]
        extra = sorted(set(got) - set(ref))[:2]
        return f"record sets differ: missing {missing}, extra {extra}"
    for k, entries in got.items():
        expected = ref[k]
        if sorted(e[1] for e in entries) != sorted(e[1] for e in expected):
            return f"verdicts differ for {k}"
        for digest, verdict, margin, est in entries:
            if not exact and not digest.endswith("delta_k=-;delta_x=-"):
                continue
            match = [e for e in expected if e[0] == digest]
            if not match or not _margin_ok(margin, match[0][2], match[0][3]):
                return f"margin moved beyond est_error for {digest}"
    return None


def check(workload: Workload, serialized: dict, reference: dict) -> dict:
    """Map each op whose output disagrees with the reference to a message.

    An op that raised is a failure but not a disagreement; an op whose
    reference raised has nothing to be compared with.
    """
    exact = not workload.seeded or workload.seed == reference["seed"]
    bad = {}
    for name, got in serialized["ops"].items():
        want = reference["ops"][name]
        if "error" in got or "error" in want:
            continue
        if workload.kind == "records":
            msg = _check_records(got["records"], want["records"], exact)
        else:
            closed = workload.closed_form.get(name)
            target = want["j"] if closed is None else [float(v) for v in closed]
            gap = max(abs(a - b) for a, b in zip(got["j"], target))
            what = "closed form" if closed is not None else "reference"
            msg = None if gap <= J_TOLERANCE and len(got["j"]) == len(target) \
                else f"J differs from the {what} by {gap:.3e}"
        if msg is not None:
            bad[name] = msg
    return bad
