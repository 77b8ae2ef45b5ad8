"""Suite-wide pytest options."""


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="re-record golden files instead of comparing against them",
    )
