"""``python -m tools.codelint``: lint ``src/repro``, print each module
with findings and a totals line; exit 1 on any finding, else 0."""

import sys

from tools.codelint import analyzer
from tools.codelint.model import ERROR


def main():
    reports = analyzer.analyze_code()
    for report in reports:
        if report.findings:
            print(report.render())
    findings = [f for r in reports for f in r.findings]
    n_err = sum(f.severity == ERROR for f in findings)
    print(f"{len(reports)} module(s) analyzed: {n_err} error(s), "
          f"{len(findings) - n_err} warning(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
