"""Cross-validated evaluation across fault rates and visibility scenarios.

For each (fault rate, scenario) cell: generate a fresh corpus, inject
faults, filter what the observer may see, and run k-fold cross validation
of the frequency classifier. The global observer dominates; a single
partner loses the faults hidden in other partners' private segments, and
dropping context events on top of that leaves almost nothing to detect.
"""

from efp import PipelineConfig, Scenario, default_fault_plan, default_spec
from efp.evaluation import plot_data, sweep, sweep_table

spec = default_spec(seed=5)
rates = [0.25, 0.5, 0.75]
scenarios = [
    Scenario.parse("global"),
    Scenario.parse("local:carrier"),
    Scenario.parse("nocontext"),
    Scenario.parse("nocontext-local:carrier"),
]

cells = sweep(
    spec,
    lambda rate: default_fault_plan(spec, rate),
    rates,
    scenarios,
    k=3,
    n_instances=300,
    config=PipelineConfig(),
    seed=5,
)

print(sweep_table(cells))
print("plot-ready MCC table (rate, then mean/sigma per scenario):\n")
print(plot_data(cells, "mcc"))

by_cell = {(c.rate, str(c.scenario)): c.report.mcc for c in cells}
print("MCC at rate 0.5 by scenario:")
for scenario in scenarios:
    print(f"  {str(scenario):<24} {by_cell[(0.5, str(scenario))]:.3f}")

report = next(c.report for c in cells
              if c.rate == 0.5 and str(c.scenario) == "global")
print("\nfull summary of the global cell at rate 0.5:")
print(report.summary())
