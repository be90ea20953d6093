"""The command line that regenerates the paper's evaluation.

``python -m repro.experiments`` runs any table/figure (or extra
scenario) through the scenario registry; ``tests/golden/`` pins the rows
the paper reports.  Programmatic callers use :mod:`repro.scenarios`
directly: ``ScenarioRunner().run(table5_spec(...))`` or
``ScenarioRunner().run(scenarios.get("table5"))``.
"""
