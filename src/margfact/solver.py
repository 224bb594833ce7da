"""Block coordinate descent with projected gradient steps.

Each sweep updates the shared block first, then every modality block in
declaration order. A step is a non-negative projection of a gradient
step, with Armijo backtracking on the step size so accepted sweeps never
increase the objective.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .model import SHARED, gradient_block, objective, projected_step


@dataclass
class TrainReport:
    loss_trace: list = field(default_factory=list)  # (sweep, objective)
    converged: bool = False
    sweeps_run: int = 0
    wall_time: float = 0.0
    step_log: list = field(default_factory=list)  # {sweep, objective, step_accepted_per_block}

    def to_dict(self):
        # wall_time deliberately omitted: persisted model directories must be
        # byte-identical across reruns with the same seed
        return {"loss_trace": [[s, f] for s, f in self.loss_trace],
                "converged": self.converged, "sweeps_run": self.sweeps_run,
                "steps": self.step_log}


def train(model, cfg=None):
    """Run BCD sweeps until the relative objective decrease falls below tol."""
    cfg = cfg or model.spec.solver
    start = time.perf_counter()
    f = objective(model)
    if not np.isfinite(f):
        raise NumericError(f"objective not finite at initialization: {f}")

    report = TrainReport()
    report.loss_trace.append((0, f))
    blocks = [SHARED] + model.spec.modality_order

    def set_block(name, values):
        if name == SHARED:
            model.shared = values
        else:
            model.factors[name] = values

    def get_block(name):
        return model.shared if name == SHARED else model.factors[name]

    converged = False
    sweep = 0
    for sweep in range(1, cfg.max_sweeps + 1):
        f_prev = f
        accepted_flags = {}
        for name in blocks:
            grad = gradient_block(model, name)

            def eval_objective(candidate, _name=name):
                old = get_block(_name)
                set_block(_name, candidate)
                try:
                    return objective(model)
                finally:
                    set_block(_name, old)

            new_values, f, accepted = projected_step(get_block(name), grad,
                                                     eval_objective, f, cfg)
            set_block(name, new_values)
            accepted_flags[name] = accepted

        if sweep % cfg.log_every == 0 or sweep == cfg.max_sweeps:
            report.loss_trace.append((sweep, f))
            report.step_log.append({"sweep": sweep, "objective": f,
                                    "step_accepted_per_block": accepted_flags})
        rel = abs(f_prev - f) / max(1.0, abs(f_prev))
        if rel < cfg.tol:
            converged = True
            if report.loss_trace[-1][0] != sweep:
                report.loss_trace.append((sweep, f))
                report.step_log.append({"sweep": sweep, "objective": f,
                                        "step_accepted_per_block": accepted_flags})
            break

    report.converged = converged
    report.sweeps_run = sweep if cfg.max_sweeps > 0 else 0
    report.wall_time = time.perf_counter() - start
    model.trace = report
    return report
