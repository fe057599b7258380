"""Numerical laboratory for weighted series of random-walk tail probabilities.

Evaluates series of the form sum_n w(n) * P(|S_n| >= eps * a(n)) and the
companion single-variable and exponential series, certifies the sequence
regularity conditions they depend on, estimates the probabilities by
deterministic Monte Carlo with exact small-instance oracles, and constructs
an explicit sparse-atom distribution whose adaptive-exponent series is
certified to diverge while its log-weighted second moment stays finite.
"""

__version__ = "0.1.0"

from . import convergence, counterexample, distmodel, mcengine, reports, seeding, seqkit


def __getattr__(name):
    # ``cli`` loads on first use, so ``python -m cclab.cli`` runs the module
    # once, as __main__, and ``import cclab`` does not pay for argparse.
    if name == "cli":
        import importlib
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "cli",
    "convergence",
    "counterexample",
    "distmodel",
    "mcengine",
    "reports",
    "seeding",
    "seqkit",
]
