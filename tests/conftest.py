import hypothesis

pytest_plugins = ["pytester"]

hypothesis.settings.register_profile(
    "package", derandomize=True, max_examples=100
)
hypothesis.settings.load_profile("package")
