"""The output checks accept a sound output and reject a perturbed one."""

import copy

from checks import check_campaign, check_matrix, check_parity, check_study

STUDY = """\
Dynamicity (2021-01-01 .. 2021-04-01): 101 of 285 observed /24s are dynamic

Identified identity-leaking networks: 3
Suffix                | Records | Unique names | Ratio
----------------------+---------+--------------+------
club01.example        |      18 |            6 |   0.3
coastal-broadband.net |      41 |           17 |   0.4
techuni.ac.nl         |      68 |           24 |   0.3

Type breakdown (Figure 4):
  academic      59.4%
  isp           18.8%
  enterprise     9.4%
  government     3.1%
  other          9.4%
"""

CAMPAIGN = """\
Campaign 2021-11-01..2021-11-08: 118,153 ICMP responses (427 addresses); 13,594 rDNS lookups (400 addresses, 387 unique PTRs)
Network      | Type       | Observed | Percent
-------------+------------+----------+--------
Academic-A   | academic   |      201 |    39.3
Academic-C   | academic   |      224 |    43.8
ISP-B        | isp        |        2 |     0.8
"""
POOLS = {"Academic-A": 512, "Academic-C": 512, "ISP-B": 256}


def _cell(world, policy, exposure, utility):
    return {"cell_id": f"{world}/{policy}/none", "world": world, "policy": policy,
            "exposure": exposure, "utility_score": utility}


def _matrix():
    cells = [
        _cell("campus", "carry-over", 0.75, 0.995),
        _cell("campus", "hashed", 0.083, 0.995),
        _cell("multi16", "carry-over", 0.806, 0.995),
        _cell("multi16", "hashed", 0.472, 0.995),
    ]
    ranking = [c["cell_id"] for c in sorted(
        cells, key=lambda c: (-c["exposure"], -c["utility_score"], c["cell_id"]))]
    return {"cells": cells, "ranking": ranking}


WORLDS = ("campus", "multi16")
POLICIES = ("carry-over", "hashed")


def test_sound_outputs_pass():
    assert check_study(STUDY) == []
    assert check_campaign(CAMPAIGN, POOLS) == []
    assert check_matrix(_matrix(), WORLDS, POLICIES) == []


def test_study_rejects_a_suffix_below_the_leak_thresholds():
    assert check_study(STUDY.replace("|            6 |", "|            5 |"))
    assert check_study(STUDY.replace("|      41 |", "|      16 |"))


def test_study_rejects_broken_shares_and_counts():
    assert check_study(STUDY.replace("59.4%", "49.4%"))
    assert check_study(STUDY.replace("academic      59.4%", "academic      18.0%")
                       .replace("isp           18.8%", "isp           60.2%"))
    assert check_study(STUDY.replace("101 of 285", "286 of 285"))
    assert check_study(STUDY.replace("101 of 285", "0 of 285"))


def test_campaign_rejects_a_percent_off_the_pool():
    assert check_campaign(CAMPAIGN.replace("39.3", "39.4"), POOLS)
    assert check_campaign(CAMPAIGN, {**POOLS, "Academic-A": 256})
    assert check_campaign(CAMPAIGN.replace("(427 addresses)", "(9999 addresses)"), POOLS)


def test_matrix_rejects_order_range_and_section8_violations():
    swapped = _matrix()
    swapped["ranking"][0], swapped["ranking"][1] = swapped["ranking"][1], swapped["ranking"][0]
    assert check_matrix(swapped, WORLDS, POLICIES)

    out_of_range = _matrix()
    out_of_range["cells"][0]["utility_score"] = 1.5
    assert check_matrix(out_of_range, WORLDS, POLICIES)

    inverted = _matrix()
    inverted["cells"][1]["exposure"] = 0.9
    inverted["ranking"] = [c["cell_id"] for c in sorted(
        inverted["cells"], key=lambda c: (-c["exposure"], -c["utility_score"]))]
    assert check_matrix(inverted, WORLDS, POLICIES)

    short = copy.deepcopy(_matrix())
    short["cells"].pop()
    assert check_matrix(short, WORLDS, POLICIES)


def test_parity_rejects_a_differing_verdict():
    verdict = {"eligible": True, "is_dynamic": True, "change_days": 9, "observed_days": 96}
    served = {"192.0.2.0/24": verdict}
    assert check_parity(served, {"192.0.2.0/24": dict(verdict)}) == []
    assert check_parity(served, {"192.0.2.0/24": {**verdict, "is_dynamic": False}})
    assert check_parity(served, {})
