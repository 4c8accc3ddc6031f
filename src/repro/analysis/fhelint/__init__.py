"""fhelint — overflow/domain static analyzer for the batched FHE kernels.

``python -m repro.analysis.fhelint src/`` runs three rule families over
the library (see DESIGN.md §9):

* **B-xxx — width/bounds abstract interpretation**: an interval lattice
  in units of ``q`` (plus absolute log2 bounds) over the numpy
  expressions of ``@bounded``-annotated kernels, proving lazy butterflies
  stay inside their declared window, limb GEMMs fit the int32
  tensor-core accumulator, and wide-accumulator sums cannot wrap uint64;
  plus repo-wide object-dtype promotion checks.
* **D-xxx — domain tags**: a call-graph pass over ``@coeff_form`` /
  ``@eval_form`` and ``@montgomery_domain`` / ``@standard_domain``
  annotations so an eval-form stack can never feed a coeff-form
  consumer (and vice versa).
* **A-xxx — aliasing/purity**: functions returning views of ``self``
  buffers or cached stacks (the ``to_eval()`` bug class) and mutation
  of ``@frozen`` compiled plans.

Findings can be grandfathered in a committed per-rule baseline file and
suppressed inline with ``# fhelint: allow-<rule>`` where a usage is
intentionally outside a rule's model.
"""

from .findings import Finding, load_baseline
from .runner import LintResult, run_lint

__all__ = ["Finding", "LintResult", "load_baseline", "run_lint"]
