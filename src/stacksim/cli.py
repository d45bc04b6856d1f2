"""Command-line entry points for the synthesis and downlink experiments."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click

from . import harness
from .errors import ValidationError


@click.group()
def main() -> None:
    """Randomized space-time coded metasurface stack simulator."""


def _finite(ctx, param, value):
    if value is not None and not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


def _preset_options(downlink: bool):
    def wrap(f):
        f = click.option("--seed", type=int, default=None, help="Master seed [default: 0].")(f)
        f = click.option("--trials", type=int, default=None, help="Trials per sweep point.")(f)
        f = click.option("--out", type=click.Path(), default=None, help="Output directory.")(f)
        scale = click.FloatRange(0.0, 1.0, min_open=True)
        f = click.option(
            "--scale", type=scale, default=1.0, show_default=True, callback=_finite, help="Desk-scale shrink factor."
        )(f)
        if downlink:
            f = click.option("--eta", type=float, default=None, callback=_finite, help="Path-loss exponent.")(f)
        return f

    return wrap


# Metrics whose medians the console prints, by whether the run serves users.
_HEADLINES = {True: ("ta_sum_rate", "fairness_per_slot", "fairness_coherence"), False: ("objective_db",)}


def _execute(load, out: str | None, seed, trials, scale, eta=None) -> None:
    """The presets' and ``run``'s one path: run ``load()`` with the flags applied and
    write its results to ``out``, else ``results/<kind>``."""
    try:
        config = harness.with_overrides(load(), seed, trials, scale, eta)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    out_dir = Path(out or Path("results") / config.kind.value)
    try:
        records = harness.run_experiment(config, trace_dir=out_dir)
    except ValidationError as exc:
        raise click.ClickException(str(exc)) from exc
    harness.write_csv(records, out_dir / "results.csv")
    harness.write_summary_json(records, config, out_dir / "summary.json")

    summary = harness.summarize(records)
    for headline in _HEADLINES[config.kind.downlink]:
        rows = [r for r in summary if r.get("metric") == headline]
        if rows:
            keys = [k for k, _ in records[0].sweep]
            click.echo(f"{headline} (median over trials):")
            for row in rows:
                label = ", ".join(f"{k}={row[k]}" for k in keys) or "base point"
                click.echo(f"  {label}: {row['median']:.4g}")
    click.echo(f"wrote {out_dir / 'results.csv'} and {out_dir / 'summary.json'}")


_PRESET_HELP = {
    "fig3": "Synthesis error vs number of phase-controlled layers and inner cells.",
    "fig4": "Optimizer convergence traces for several inner layer sizes.",
    "fig5": "Time-averaged sum rate vs user count, against the full-feedback baseline.",
    "fig6": "Fairness vs user count for several slot counts.",
}


def _add_preset(name: str) -> None:
    @main.command(name, help=_PRESET_HELP[name])
    @_preset_options(downlink=harness.PRESETS[name].kind.downlink)
    def preset(out, **flags) -> None:
        _execute(lambda: harness.PRESETS[name], out, **flags)


for _name in harness.PRESETS:
    _add_preset(_name)


@main.command()
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False))
@_preset_options(downlink=True)
def run(config_file, out, **flags) -> None:
    """Run a custom experiment from a JSON config file."""
    _execute(lambda: harness.config_from_dict(json.loads(Path(config_file).read_text())), out, **flags)


if __name__ == "__main__":
    sys.exit(main())
