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
