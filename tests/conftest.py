import pytest

from storagelab.policy import PolicyKind
from storagelab.psl import builtin_rules
from storagelab.simulator import replay
from storagelab.synthetic import (
    SyntheticSpec,
    TrackerSpec,
    default_tracker_sites,
    generate_synthetic_trace,
)

# Scale used by the ordering/separation checks: 10 sites, 3 trackers embedded
# everywhere, 2 profiles, 2 crawl iterations.
N_SITES = 10
N_TRACKERS = 3
N_PROFILES = 2
N_ITERS = 2
SEED = 42


def make_spec(**overrides) -> SyntheticSpec:
    params = dict(
        n_sites=N_SITES,
        trackers=tuple(TrackerSpec(s) for s in default_tracker_sites(N_TRACKERS)),
        pages_per_site=1,
        crawl_iters=N_ITERS,
        profiles=N_PROFILES,
        seed=SEED,
    )
    params.update(overrides)
    return SyntheticSpec(**params)


@pytest.fixture(scope="session")
def rules():
    return builtin_rules()


@pytest.fixture(scope="session")
def policy_outputs(rules):
    """SimOutput per policy for the shared synthetic scenario's one trace."""
    events = generate_synthetic_trace(make_spec()).events
    return {policy: replay(events, policy, rules) for policy in PolicyKind}
