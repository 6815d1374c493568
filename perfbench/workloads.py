"""The benchmark's workloads: fixed CLI calls whose initial amplitude is drawn from the seed.

The seed chooses only ``a0_re``/``a0_im``, each from a narrow fixed range in
which every pipeline runs (for Van der Pol, ``kappa * a1^2 < 1``).  The step
count never depends on the seed, so the work per operation is the same for
every seed.  The ranges are narrow because the renormalized error scales
roughly like ``|a0|^5`` and depends on the phase of ``a0`` through the
zeroth-order initial-data bridge; wider ranges would make ``renorm_err_ratio``
a measure of the seed rather than of the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

COMPARE_HEADER = (
    "n",
    "t",
    "z_oracle",
    "z_naive",
    "z_renorm_discrete",
    "z_renorm_continuum",
    "err_naive",
    "err_renorm",
)
SUMMARY_KEYS = (
    "max_err_naive",
    "max_err_renorm",
    "slope_err_naive",
    "slope_err_renorm",
    "period_oracle",
    "limit_amplitude_oracle",
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "compare" or "sweep"
    kind: str
    dt: float
    t_max: float
    eps_values: tuple[float, ...]  # one per pipeline; a sweep runs each
    a0_re: tuple[float, float]
    a0_im: tuple[float, float]
    output_format: str = "csv"
    stride: int = 1

    def n_steps(self, scale: float = 1.0) -> int:
        return int(round(self.t_max * scale / self.dt))

    def steps_per_op(self, scale: float = 1.0) -> int:
        return self.n_steps(scale) * len(self.eps_values)

    def amplitude(self, seed: int) -> tuple[float, float]:
        rng = random.Random(f"{self.name}:{seed}")
        return rng.uniform(*self.a0_re), rng.uniform(*self.a0_im)

    def argv(self, seed: int, output_path: str, scale: float = 1.0) -> list[str]:
        """Exact argv for ``renormdiff.cli.main``; ``scale`` shortens the horizon."""
        a0_re, a0_im = self.amplitude(seed)
        # "--flag=value": argparse reads "-3e-05" after a space as an option.
        flags = {
            "kind": self.kind,
            "dt": repr(self.dt),
            "t-max": repr(self.t_max * scale),
            "a0-re": repr(a0_re),
            "a0-im": repr(a0_im),
            "root-convention": "exact",
            "scheme": "standard",
            "output-format": self.output_format,
            "output-path": output_path,
        }
        if self.command == "sweep":
            flags.update({"param": "eps", "values": ",".join(map(repr, self.eps_values))})
        else:
            flags.update({"eps": repr(self.eps_values[0]), "stride": str(self.stride)})
        return [self.command] + [f"--{flag}={value}" for flag, value in flags.items()]


WORKLOADS = {
    w.name: w
    for w in (
        # The full cubic trajectory table users publish: the CSV writer in
        # `cli` does most of the work, so writer changes show here.
        Workload(
            name="compare-csv",
            command="compare",
            kind="cubic",
            dt=0.004,
            t_max=200.0,
            eps_values=(0.01,),
            a0_re=(0.4995, 0.5005),
            a0_im=(-0.0005, 0.0005),
        ),
        # The JSON writer at a tenth of the rows, and the only workload that
        # runs the Van der Pol branches of oracle, renormalization, asymptotic.
        Workload(
            name="compare-json-vdp",
            command="compare",
            kind="vdp",
            dt=0.002,
            t_max=200.0,
            eps_values=(0.01,),
            a0_re=(0.29, 0.31),
            a0_im=(-0.03, 0.03),
            output_format="json",
            stride=10,
        ),
        # The eps^2-scaling study: four pipelines, four output rows, so the
        # compute layers dominate and writer-only changes predict no change.
        Workload(
            name="sweep-eps",
            command="sweep",
            kind="cubic",
            dt=0.004,
            t_max=200.0,
            eps_values=(0.04, 0.02, 0.01, 0.005),
            a0_re=(0.4995, 0.5005),
            a0_im=(-0.0005, 0.0005),
        ),
    )
}
