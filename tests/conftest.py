from hypothesis import settings

pytest_plugins = ["pytester"]

settings.register_profile("ci", max_examples=50, derandomize=True)
settings.load_profile("ci")
