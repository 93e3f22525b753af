"""Consensus versus synchronization on a fixed weight budget.

The 4-site ring with two local swaps is the smallest network where the
two objectives pull the weights in different directions.  This script
scans the budget face, prints the extremes of the trade-off curve and a
balanced compromise, and leaves the full point cloud in a CSV.
"""

import csv

import numpy as np

from qconsensus import (
    BudgetConstraint,
    generator_set,
    maximize_rate,
    pareto_scan,
)

OUT = "pareto_tradeoff.csv"


def describe(tag, weights, cons, synch):
    w = " ".join(f"{x:.5f}" for x in weights)
    print(f"{tag:<22} weights [{w}]  cons {cons:.5f}  synch {synch:.5f}")


def main():
    gens = generator_set(4, [[[1, 2, 3, 4]], [[1, 2]], [[3, 4]]],
                         labels=["ring", "left", "right"])
    constraint = BudgetConstraint.for_generators(gens, budget=1.0)

    weights, cons, synch, on_front = pareto_scan(gens, constraint, resolution=60)
    front = np.flatnonzero(on_front)
    print(f"scanned {len(cons)} weight vectors, {len(front)} on the front")

    knee = front[np.argmax(np.minimum(cons, synch)[front])]
    for tag, i in (("fastest consensus", np.argmax(cons)),
                   ("fastest synch", np.argmax(synch)),
                   ("balanced knee", knee)):
        describe(tag, weights[i], cons[i], synch[i])

    # the pattern search sharpens the two grid extremes
    for objective in ("consensus", "synchronization"):
        w, value = maximize_rate(gens, constraint, objective=objective)
        print(f"refined {objective:<15} {value:.6f} at "
              + " ".join(f"{x:.6f}" for x in w))

    with open(OUT, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(gens.labels) + ["lambda_cons", "lambda_synch", "on_front"])
        for row, flag in zip(np.column_stack([weights, cons, synch]).tolist(), on_front):
            writer.writerow(row + [int(flag)])
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
