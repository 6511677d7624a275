"""Cross-cell cache isolation (the PR's cache-key bugfix).

Every evaluation-matrix cell must own its snapshot *and* campaign
cache entries: the cell's policy is folded in through the plan
(fingerprint + ``policy_token``) and the fault profile through the
fault token.  Before the fix, two plans differing only in a policy's
*parameters* (a hashed key, a template) produced the same
``Internet.cache_token`` — a warm run of cell B could replay cell A's
bytes.
"""

import datetime as dt

from repro.eval import MatrixSpec, campus_plan, run_matrix
from repro.ipam.policy import POLICY_NAMES, HashedPolicy, StaticTemplatePolicy
from repro.netsim.internet import Internet
from repro.netsim.network import Network, NetworkType, Subnet, SubnetRole
from repro.netsim.person import PersonGenerator
from repro.netsim.population import _take_devices
from repro.netsim.rng import RngStreams
from repro.scan.cache import CampaignCache, SnapshotCache
from repro.scan.campaign import SupplementalCampaign
from repro.scan.sharded import ShardedCollector

WINDOW = (dt.date(2021, 1, 1), dt.date(2021, 1, 8))
CAMPAIGN_WINDOW = (dt.date(2021, 11, 1), dt.date(2021, 11, 3))


def spec_2x2x2():
    return MatrixSpec(
        worlds={"campus": campus_plan(7)},
        policies=("carry-over", "hashed"),
        faults=("none", "mild"),
    ).validate()


class TestCellKeyDistinctness:
    def test_every_cell_owns_both_cache_keys(self, tmp_path):
        spec = spec_2x2x2()
        snapshot_cache = SnapshotCache(tmp_path / "snapshots")
        campaign_cache = CampaignCache(tmp_path / "campaigns")
        snapshot_keys = set()
        campaign_keys = set()
        for cell in spec.cells():
            plan = spec.plan_for(cell)
            fault_plan = spec.fault_plan_for(cell)
            fault_token = fault_plan.cache_token() if fault_plan else None
            collector = ShardedCollector(plan, shards=1, fault_token=fault_token)
            snapshot_keys.add(collector._cache_key(snapshot_cache, *WINDOW))
            campaign = SupplementalCampaign(plan, fault_plan=fault_plan)
            campaign_keys.add(campaign.cache_key(campaign_cache, *CAMPAIGN_WINDOW))
        cells = len(spec.cells())
        assert len(snapshot_keys) == cells
        assert len(campaign_keys) == cells
        # Snapshot and campaign namespaces never collide either.
        assert not snapshot_keys & campaign_keys

    def test_policy_changes_plan_fingerprint(self):
        base = campus_plan(7)
        fingerprints = {
            base.with_update_policy(name).fingerprint() for name in POLICY_NAMES
        }
        assert len(fingerprints) == len(POLICY_NAMES)

    def test_policy_token_none_for_undeclared_plans(self):
        # Plans that never declare a policy keep pre-existing cache keys.
        assert campus_plan(7).policy_token() is None


class TestPolicyParamsReachWorldToken:
    """The latent bug: ``Internet.cache_token`` used only the policy's
    class name, so same-class policies with different parameters were
    indistinguishable to the legacy (non-plan) cache path."""

    @staticmethod
    def _internet_with(policy):
        rngs = RngStreams(3)
        generator = PersonGenerator(rngs.stream("population", "n"))
        people = generator.make_population(4, id_prefix="tok")
        network = Network(
            "n", NetworkType.ACADEMIC, "10.9.0.0/16", "t.example.edu", rngs=rngs
        )
        network.add_subnet(
            Subnet(
                "10.9.1.0/24",
                SubnetRole.DYNAMIC_CLIENTS,
                devices=_take_devices(people),
                policy=policy,
            )
        )
        internet = Internet()
        internet.add(network)
        return internet

    def test_hashed_keys_distinguished(self):
        a = self._internet_with(HashedPolicy("t.example.edu", key=b"key-a"))
        b = self._internet_with(HashedPolicy("t.example.edu", key=b"key-b"))
        assert a.cache_token() != b.cache_token()

    def test_templates_distinguished(self):
        a = self._internet_with(StaticTemplatePolicy("t.example.edu"))
        b = self._internet_with(
            StaticTemplatePolicy("t.example.edu", template="pc-{last_octet}")
        )
        assert a.cache_token() != b.cache_token()

    def test_raw_hash_key_never_in_token(self):
        secret = b"extremely-secret-zone-key"
        internet = self._internet_with(HashedPolicy("t.example.edu", key=secret))
        token = internet.cache_token()
        assert secret.decode() not in token
        assert secret.hex() not in token


class TestWarmRerunIntegrity:
    def test_warm_rerun_hits_every_cell_and_matches_cold(self, tmp_path):
        from repro.eval import matrix_payload

        spec = spec_2x2x2()
        snapshot_cache = SnapshotCache(tmp_path / "snapshots")
        campaign_cache = CampaignCache(tmp_path / "campaigns")
        cold = run_matrix(
            spec, snapshot_cache=snapshot_cache, campaign_cache=campaign_cache
        )
        warm = run_matrix(
            spec, snapshot_cache=snapshot_cache, campaign_cache=campaign_cache
        )
        assert all(r.snapshot_cache_hit and r.campaign_cache_hit for r in warm.results)
        # Poisoning regression: replayed cells must reproduce the cold
        # run bit-for-bit (a shared key would splice one cell's bytes
        # into another's score).
        assert matrix_payload(warm) == matrix_payload(cold)
