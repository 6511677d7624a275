"""Output checks: properties of the method, or numbers computed here.

No check compares against a stored copy of an output.  Each returns a
list of problems; an empty list means the output passed.  Text outputs
are parsed from what ``rdns-privacy`` prints; the matrix is read from
the JSON ``evaluate --out`` writes.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Sequence, Tuple

#: The study's leak thresholds at default scale (Section 5).
MIN_UNIQUE_NAMES = 6
MIN_RATIO = 0.1
#: Figure-4 shares must sum to 100 within this, before print rounding.
SHARE_TOLERANCE = 0.1
#: Each printed share is rounded to one decimal.
PRINT_ROUNDING = 0.05

_DYNAMICITY = re.compile(r"^Dynamicity \(.*\): (\d+) of (\d+) observed /24s are dynamic$")
_CAMPAIGN = re.compile(
    r"^Campaign \S+: ([\d,]+) ICMP responses \((\d+) addresses\); "
    r"([\d,]+) rDNS lookups \((\d+) addresses, (\d+) unique PTRs\)$"
)
_SHARE = re.compile(r"^  (\w+)\s+(-?[\d.]+)%$")


def _table_rows(lines: Sequence[str], header_prefix: str) -> List[List[str]]:
    """Cells of the ``|`` table whose header starts with ``header_prefix``."""
    for index, line in enumerate(lines):
        if line.startswith(header_prefix) and "|" in line:
            rows = []
            for row in lines[index + 2:]:
                if "|" not in row:
                    break
                rows.append([cell.strip() for cell in row.split("|")])
            return rows
    return []


def check_study(text: str) -> List[str]:
    """Dynamicity bounds, Figure-4 shares and the leak thresholds."""
    problems: List[str] = []
    lines = text.splitlines()
    match = next(filter(None, (_DYNAMICITY.match(line) for line in lines)), None)
    if match is None:
        return ["no dynamicity line"]
    dynamic, observed = int(match.group(1)), int(match.group(2))
    if not 0 < dynamic <= observed:
        problems.append(f"dynamic /24s {dynamic} not in (0, observed={observed}]")

    shares: Dict[str, float] = {}
    if "Type breakdown (Figure 4):" in lines:
        for line in lines[lines.index("Type breakdown (Figure 4):") + 1:]:
            share = _SHARE.match(line)
            if share is None:
                break
            shares[share.group(1)] = float(share.group(2))
    if not shares:
        problems.append("no Figure-4 shares")
    else:
        slack = SHARE_TOLERANCE + PRINT_ROUNDING * len(shares)
        total = sum(shares.values())
        if abs(total - 100.0) > slack:
            problems.append(f"Figure-4 shares sum to {total:.2f}, not 100 ± {slack:.2f}")
        largest = max(shares, key=shares.get)
        if largest != "academic":
            problems.append(f"largest Figure-4 share is {largest}, not academic")

    rows = _table_rows(lines, "Suffix")
    identified = next(
        (int(line.rsplit(":", 1)[1]) for line in lines
         if line.startswith("Identified identity-leaking networks:")),
        None,
    )
    if identified is None or identified != len(rows):
        problems.append(f"{len(rows)} suffix rows, header says {identified}")
    if not rows:
        problems.append("no identified suffixes")
    for suffix, records, unique, _ in rows:
        records_n, unique_n = int(records), int(unique)
        if unique_n < MIN_UNIQUE_NAMES:
            problems.append(f"{suffix}: {unique_n} unique names < {MIN_UNIQUE_NAMES}")
        if records_n < unique_n:
            problems.append(f"{suffix}: {records_n} records < {unique_n} unique names")
        if records_n and unique_n / records_n < MIN_RATIO:
            problems.append(f"{suffix}: ratio {unique_n / records_n:.3f} < {MIN_RATIO}")
    return problems


def check_campaign(text: str, pool_sizes: Mapping[str, int]) -> List[str]:
    """Table-4 percents against pool sizes taken from the world."""
    problems: List[str] = []
    lines = text.splitlines()
    match = next(filter(None, (_CAMPAIGN.match(line) for line in lines)), None)
    if match is None:
        return ["no campaign summary line"]
    icmp_unique, rdns_unique = int(match.group(2)), int(match.group(4))
    total_pool = sum(pool_sizes.values())
    for label, unique in (("ICMP", icmp_unique), ("rDNS", rdns_unique)):
        if not 0 < unique <= total_pool:
            problems.append(f"{label} unique addresses {unique} not in (0, {total_pool}]")
    rows = _table_rows(lines, "Network")
    if sorted(row[0] for row in rows) != sorted(pool_sizes):
        problems.append(f"Table-4 networks {[row[0] for row in rows]} != {sorted(pool_sizes)}")
        return problems
    observed_total = 0
    for name, _, observed, percent in rows:
        observed_n, pool = int(observed), pool_sizes[name]
        observed_total += observed_n
        if observed_n > pool:
            problems.append(f"{name}: observed {observed_n} > pool {pool}")
        expected = round(100.0 * observed_n / pool, 1)
        if abs(float(percent) - expected) > 1e-9:
            problems.append(f"{name}: percent {percent} != 100 × {observed_n} / {pool}")
    if observed_total != icmp_unique:
        problems.append(f"Table-4 observed sum {observed_total} != {icmp_unique} ICMP addresses")
    return problems


def check_matrix(payload: dict, worlds: Sequence[str], policies: Sequence[str]) -> List[str]:
    """Row count, ranking order, score ranges and the Section-8 ordering."""
    problems: List[str] = []
    cells = payload.get("cells", [])
    if len(cells) != len(worlds) * len(policies):
        problems.append(f"{len(cells)} cells, want {len(worlds)} × {len(policies)}")
    by_id = {cell["cell_id"]: cell for cell in cells}
    ranking = payload.get("ranking", [])
    if sorted(ranking) != sorted(by_id):
        problems.append("ranking does not list every cell once")
        return problems
    keys = [(by_id[cell]["exposure"], by_id[cell]["utility_score"]) for cell in ranking]
    if keys != sorted(keys, reverse=True):
        problems.append("ranking not ordered by exposure, then utility, descending")
    for cell in cells:
        for field in ("exposure", "utility_score"):
            if not 0.0 <= cell[field] <= 1.0:
                problems.append(f"{cell['cell_id']}: {field} {cell[field]} outside [0, 1]")
    exposure: Dict[Tuple[str, str], float] = {
        (cell["world"], cell["policy"]): cell["exposure"] for cell in cells
    }
    for world in worlds:
        carry, hashed = exposure.get((world, "carry-over")), exposure.get((world, "hashed"))
        if carry is None or hashed is None or not carry > hashed:
            problems.append(f"{world}: carry-over exposure {carry} not above hashed {hashed}")
    return problems


def check_parity(served: Mapping[str, dict], batch: Mapping[str, dict]) -> List[str]:
    """Served /24 verdicts equal a batch analysis of the served histories.

    Both sides map prefix → ``{eligible, is_dynamic, change_days,
    observed_days}``.
    """
    problems: List[str] = []
    if sorted(served) != sorted(batch):
        return [f"{len(served)} served prefixes, {len(batch)} in the batch analysis"]
    for prefix in sorted(served):
        if served[prefix] != batch[prefix]:
            problems.append(f"{prefix}: served {served[prefix]} != batch {batch[prefix]}")
    return problems
