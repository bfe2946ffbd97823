"""Command-line front end: run scenarios, validate scenario files, list
the bundled catalog.

Exit codes for ``run``: 0 when every task passes, 1 when a task fails or
errors, 2 when the scenario does not validate.
"""

from __future__ import annotations

import sys

import click

from .errors import ScenarioValidationError
from .runner import run_scenario
from .scenarios import builtin_catalog, load_scenario, validate_scenario


@click.group()
def main():
    """Harmonic maps between generalized Lagrange spaces: minimizer
    certificates for first-order systems and conformal field equations."""


@main.command()
@click.argument("scenario")
@click.option("--out", "out_dir", default="out", show_default=True,
              help="Directory for the report and CSV dumps.")
@click.option("--stencil", type=click.Choice(["2", "4"]), default=None,
              help="Override the stencil order of every chart.")
def run(scenario, out_dir, stencil):
    """Run a scenario (bundled name or YAML file path)."""
    try:
        report = run_scenario(load_scenario(scenario), out_dir,
                              stencil_override=int(stencil) if stencil else None)
    except ScenarioValidationError as exc:
        for msg in exc.messages:
            click.echo(f"invalid: {msg}", err=True)
        sys.exit(2)
    for task in report["tasks"]:
        line = f"[{task['status']:5s}] {task['task']}"
        if "reason" in task:
            line += f"  ({task['reason']})"
        click.echo(line)
    click.echo(f"report: {out_dir}/{report['scenario']}__report.json")
    sys.exit(0 if report["status"] == "pass" else 1)


@main.command()
@click.argument("scenario")
def validate(scenario):
    """Validate a scenario file (or bundled name) without running it."""
    try:
        spec = load_scenario(scenario)
    except ScenarioValidationError as exc:
        for msg in exc.messages:
            click.echo(f"invalid: {msg}", err=True)
        sys.exit(2)
    errors = validate_scenario(spec)
    if errors:
        for msg in errors:
            click.echo(f"invalid: {msg}", err=True)
        sys.exit(2)
    click.echo(f"{spec['name']}: valid")


@main.command("list-builtins")
def list_builtins():
    """List the bundled scenarios."""
    for name, description in builtin_catalog():
        click.echo(f"{name:24s} {description}")


if __name__ == "__main__":
    main()
