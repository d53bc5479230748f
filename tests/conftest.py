from hypothesis import HealthCheck, Phase, settings

settings.register_profile(
    "petrel",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
# for tests/mutants.py: a failure is all it needs, so it skips shrinking
settings.register_profile("mutants", settings.get_profile("petrel"),
                          phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("petrel")
