from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# selected with --hypothesis-profile=thorough, for the rewiring tests
settings.register_profile("thorough", settings.get_profile("ci"), max_examples=2000)
settings.load_profile("ci")


def pytest_addoption(parser):
    # the exhaustive sweep of tests/test_conditions.py: every labelled
    # graph on at most this many vertices, and blow-ups of those on two fewer
    parser.addoption("--sweep-order", type=int, default=5)
