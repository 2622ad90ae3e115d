import inspect

import star_consensus
from star_consensus import optimality, simulate, spectral, topology, weights


def test_public_names_are_the_module_all_lists():
    """The package exports each module's ``__all__`` and nothing else, so a
    public name is declared once, where ``tools/api_report.py`` sees it."""
    public = {name for name, value in vars(star_consensus).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    declared = [name for module in (topology, weights, spectral, optimality,
                                    simulate)
                for name in module.__all__]
    assert len(declared) == len(set(declared)) == 44
    assert public == set(declared)
