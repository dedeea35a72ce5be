#!/usr/bin/env python3
"""Check the paper's Figure 8 from Python, and add a claim of your own.

``python -m repro experiment figure8`` prints the committed Figure 8 table
and its claim rows.  This script drives the same experiment table as a
library: it measures the Figure 8 runs, prints the experiment, then checks
one more claim over the measured rows -- Appendix 3's argument that what AR
saves over 2PC is the coordinator's two forced log writes less AR's two
register writes.

Run with:  python examples/reproduce_figure8.py
"""

from repro.experiments import catalog


def main() -> None:
    rows = catalog.run(["figure8"])["figure8"]
    text, verdicts = catalog.render("figure8", rows)
    print(text)

    paper = catalog.PAPER_FIGURE8
    saving = catalog.Claim(
        "2PC - AR latency, ms", lambda r: r["2PC"]["total"] - r["AR"]["total"],
        expected=sum(paper["2PC"][c] - paper["AR"][c] for c in ("log-start", "log-outcome")),
        source="Appendix 3", tolerance=1.0)
    measured, holds = catalog.evaluate(saving, rows)
    print(f"\n{saving.label}: measured {measured:.1f}, the paper's log rows predict "
          f"{saving.expected:.1f} +/- {saving.tolerance:g}: {'pass' if holds else 'FAIL'}")
    if not (all(verdicts) and holds):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
