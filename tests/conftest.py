"""Suite-wide pytest options and environment."""

import os

#: Cache directory of extractors built without ``cache_dir``
#: (``repro.tsv.extractor.CACHE_ENV_VAR``).
TSV_CACHE_ENV_VAR = "REPRO_TSV_CACHE"


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="re-record golden files instead of comparing against them",
    )


def pytest_configure(config):
    """Keep the suite's extraction cache in the checkout's pytest cache.

    Without this, extractors built without ``cache_dir`` (the figures'
    ``cap_model_for``, for one) read and write ``~/.cache/repro_tsv``.
    Inside the git-ignored ``.pytest_cache`` repeated runs stay warm
    without touching ``$HOME``, and subprocess tests inherit the
    setting. An explicit ``REPRO_TSV_CACHE`` is left as it is.
    """
    if TSV_CACHE_ENV_VAR not in os.environ:
        directory = config.rootpath / ".pytest_cache" / "repro_tsv"
        os.environ[TSV_CACHE_ENV_VAR] = str(directory)
        config.add_cleanup(lambda: os.environ.pop(TSV_CACHE_ENV_VAR, None))
