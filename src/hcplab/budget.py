"""One memory budget for every sized allocation, checked before it is made:
each call site states its units and their bytes at its traced peak (a test
holds it to them), and a request past the budget names the knobs to lower."""

# 300 MiB, the smallest of the per-site limits this replaced (2^22 off-lattice
# pairs at 75 bytes), on a 2-core machine with about 7 GB of RAM
BUDGET_BYTES = 75 << 22


class BudgetError(ValueError):
    """A sized allocation would exceed the memory budget."""


def need(n_units: float, bytes_per_unit: int, what: str, knobs: str) -> None:
    """Refuse ``n_units`` of ``bytes_per_unit`` bytes past the budget, naming
    ``what`` is allocated and the ``knobs`` to lower."""
    asked = float(n_units) * bytes_per_unit  # inf past the float range; nan is refused too
    if not asked <= BUDGET_BYTES:
        raise BudgetError(f"{what} needs {asked / 2**20:.4g} MiB at {bytes_per_unit} bytes "
                          f"each, above the memory budget of {BUDGET_BYTES / 2**20:.4g} MiB; "
                          f"lower {knobs}")
