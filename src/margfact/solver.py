"""Block coordinate descent with projected gradient steps.

Each sweep updates the shared block first, then every modality block in
declaration order. A step is a non-negative projection of a gradient
step, with Armijo backtracking on the step size (at most
model.MAX_HALVINGS halvings) so accepted sweeps never increase the
objective. Each block is one row of model.projected_step and keeps its
own step size: its first search starts at cfg.step0 and every later one
where the last left off, so a block whose gradient is huge near the
bound is not re-searched from step0 every sweep.

The solver keeps the parts of the current objective (model.objective):
each NLL term and each modality's unweighted penalty sums. A trial
evaluates only the parts its block touches and reads the others from a
copy of the current ones; the block's search adopts its last trial's parts
only when the block moved to that trial. So every trial and every sweep
value is the same float as a full evaluation of the objective.

A fit stops when a sweep lowers the objective by less than tol
(relative), or after cfg.max_sweeps sweeps. The stop reason is
`converged` when every block accepted its step in that last sweep,
`stalled` when some block's search was rejected (a sweep in which every
block rejected is the extreme case: the objective does not move at all),
and `budget` when the sweeps ran out.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .model import SHARED, gradient_block, objective, projected_step


@dataclass
class TrainReport:
    loss_trace: list = field(default_factory=list)  # (sweep, objective)
    stop_reason: str = "budget"  # "converged" | "stalled" | "budget"
    sweeps_run: int = 0
    # {sweep, objective, step_accepted_per_block, step_size_per_block}
    step_log: list = field(default_factory=list)

    @property
    def converged(self):
        return self.stop_reason == "converged"

    def to_dict(self):
        return {"loss_trace": [[s, f] for s, f in self.loss_trace],
                "converged": self.converged, "stop_reason": self.stop_reason,
                "sweeps_run": self.sweeps_run, "steps": self.step_log}


def train(model, cfg=None):
    """Run BCD sweeps until converged, stalled or out of budget.

    Every block carries its step size from one sweep to the next; the
    step log records, per logged sweep, whether each block accepted its
    step and the step its next search starts from.
    """
    cfg = cfg or model.spec.solver
    parts = {}  # the current iterate's objective parts
    f = objective(model, parts=parts)
    if not np.isfinite(f):
        raise NumericError(f"objective not finite at initialization: {f}")

    report = TrainReport()
    report.loss_trace.append((0, f))
    blocks = [SHARED] + model.spec.modality_order
    steps = dict.fromkeys(blocks, cfg.step0)

    def set_block(name, values):
        if name == SHARED:
            model.shared = values
        else:
            model.factors[name] = values

    def get_block(name):
        return model.shared if name == SHARED else model.factors[name]

    stop_reason = "budget"
    sweep = 0
    for sweep in range(1, cfg.max_sweeps + 1):
        f_prev = f
        accepted_flags = {}
        for name in blocks:
            grad = gradient_block(model, name)
            old = get_block(name)
            last = {}  # the parts of the search's last trial

            def eval_rows(trial, _idx, _name=name, _old=old):  # the block is one row
                nonlocal last
                set_block(_name, trial.reshape(_old.shape))
                last = dict(parts)
                try:
                    return objective(model, _name, last)
                finally:
                    set_block(_name, _old)

            new_values, f_new, accepted, eta = projected_step(
                old, grad, eval_rows, [f], steps[name])
            set_block(name, new_values)
            # plain float and bool, as the JSON step log needs
            f, accepted_flags[name] = float(f_new[0]), bool(accepted[0])
            steps[name] = float(eta[0])
            if not np.array_equal(new_values, old):
                # an accepted trial is the search's last; a block that did
                # not move keeps the current parts, whatever it tried
                parts = last

        if abs(f_prev - f) / max(1.0, abs(f_prev)) < cfg.tol:
            stop_reason = "converged" if all(accepted_flags.values()) else "stalled"
        if sweep % cfg.log_every == 0 or sweep == cfg.max_sweeps or stop_reason != "budget":
            report.loss_trace.append((sweep, f))
            report.step_log.append({"sweep": sweep, "objective": f,
                                    "step_accepted_per_block": accepted_flags,
                                    "step_size_per_block": dict(steps)})
        if stop_reason != "budget":
            break

    report.stop_reason = stop_reason
    report.sweeps_run = sweep
    model.trace = report
    return report
