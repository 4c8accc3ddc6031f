"""Per-rule fixture tests for fhelint.

Each test writes a minimal kernel snippet that violates exactly one
invariant, runs the real lint driver over it and asserts the expected
rule fires (and that the clean twin of the snippet does not). These are
the "deliberately break a bound" acceptance cases: an 8q butterfly
store, a wrapping int32 accumulator, an aliased view return, a frozen
plan mutation and friends must all exit non-zero.
"""

import textwrap

from repro.analysis.fhelint.findings import Baseline
from repro.analysis.fhelint.runner import run_lint


def lint_source(tmp_path, source, rel="fixture.py", baseline=None):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return run_lint([str(tmp_path)], baseline)


def active_rules(result):
    return {f.rule for f in result.active}


# -- B-xxx: width/bounds ------------------------------------------------------


class TestBoundsRules:
    def test_lazy_store_outside_window_flags(self, tmp_path):
        result = lint_source(tmp_path, """
            from repro.analysis.annotations import bounded

            @bounded(in_q=2, max_q_multiple=4, params={"a": {"q": 2}})
            def bad_butterfly(a):
                a[0] = a[0] + a[0] + a[0] + a[0]
                return a
            """)
        assert "B-LAZY" in active_rules(result)
        assert result.exit_code == 1

    def test_lazy_store_inside_window_clean(self, tmp_path):
        result = lint_source(tmp_path, """
            from repro.analysis.annotations import bounded

            @bounded(in_q=2, max_q_multiple=4, params={"a": {"q": 2}})
            def ok_butterfly(a):
                a[0] = a[0] + a[0]
                return a
            """)
        assert "B-LAZY" not in active_rules(result)

    def test_output_bound_violation_flags(self, tmp_path):
        result = lint_source(tmp_path, """
            from repro.analysis.annotations import bounded

            @bounded(out_q=1, params={"x": {"q": 1}})
            def doubled(x):
                return x + x
            """)
        assert "B-OUT" in active_rules(result)

    def test_provable_argument_violation_flags(self, tmp_path):
        result = lint_source(tmp_path, """
            from repro.analysis.annotations import bounded

            @bounded(in_q=2, out_q=2, params={"x": {"q": 2}})
            def lazy_identity(x):
                return x

            @bounded(params={"y": {"q": 1}})
            def caller(y):
                big = y + y + y + y
                return lazy_identity(big)
            """)
        assert "B-ARG" in active_rules(result)

    def test_reducer_fed_beyond_proven_range_flags(self, tmp_path):
        result = lint_source(tmp_path, """
            from repro.analysis.annotations import bounded

            class FakeReducer:
                @bounded(assume=True, out_q=1,
                         params={"t": {"ubound": 1 << 62}})
                def reduce_mat(self, t):
                    return t

            @bounded(params={"x": {"q": 1}})
            def fold(x, r: FakeReducer):
                t = (x * x) * (x * x)
                return r.reduce_mat(t)
            """)
        assert "B-RED" in active_rules(result)

    def test_reducer_fed_proven_range_clean(self, tmp_path):
        result = lint_source(tmp_path, """
            from repro.analysis.annotations import bounded

            class FakeReducer:
                @bounded(assume=True, out_q=1,
                         params={"t": {"ubound": 1 << 62}})
                def reduce_mat(self, t):
                    return t

            @bounded(out_q=1, params={"x": {"q": 1}})
            def fold(x, r: FakeReducer):
                t = x * x
                return r.reduce_mat(t)
            """)
        assert result.active == []

    def test_int32_accumulator_overflow_flags(self, tmp_path):
        # 2**12 * 2**12 products over 2**15 lanes reach 2**39: far past
        # the int32 tensor-core accumulator.
        result = lint_source(tmp_path, """
            from repro.analysis.annotations import bounded

            @bounded(dtype="int32", max_lanes=1 << 15,
                     params={"x": {"ubound": 1 << 12},
                             "w": {"ubound": 1 << 12}})
            def gemm(x, w):
                return x @ w
            """)
        assert "B-OVF" in active_rules(result)

    def test_int32_accumulator_in_capacity_clean(self, tmp_path):
        # 2**8 * 2**8 over 2**12 lanes peaks at 2**28 < 2**31.
        result = lint_source(tmp_path, """
            from repro.analysis.annotations import bounded

            @bounded(dtype="int32", max_lanes=1 << 12,
                     params={"x": {"ubound": 1 << 8},
                             "w": {"ubound": 1 << 8}})
            def gemm(x, w):
                return x @ w
            """)
        assert result.active == []

    def test_unbounded_reduction_axis_flags(self, tmp_path):
        result = lint_source(tmp_path, """
            from repro.analysis.annotations import bounded

            @bounded(params={"x": {"bits": 31}, "w": {"bits": 31}})
            def dot(x, w):
                return (x * w).sum(axis=1)
            """)
        assert "B-ACC" in active_rules(result)

    def test_object_dtype_flags(self, tmp_path):
        result = lint_source(tmp_path, """
            import numpy as np

            def widen(x):
                return x.astype(object) * 2
            """)
        assert "B-OBJ" in active_rules(result)

    def test_narrowing_astype_in_numeric_roots_flags(self, tmp_path):
        result = lint_source(tmp_path, """
            def truncate(x):
                return x.astype("int32")
            """, rel="repro/ntt/fixture.py")
        assert "B-OVF" in active_rules(result)


# -- D-xxx: representation tags ----------------------------------------------


class TestDomainRules:
    def test_eval_into_coeff_consumer_flags(self, tmp_path):
        result = lint_source(tmp_path, """
            from repro.analysis.annotations import eval_form, takes_form

            @eval_form
            def ntt(x):
                return x

            @takes_form(x="coeff")
            def automorphism(x):
                return x

            def pipeline(p):
                y = ntt(p)
                return automorphism(y)
            """)
        assert "D-FORM" in active_rules(result)

    def test_matched_forms_clean(self, tmp_path):
        result = lint_source(tmp_path, """
            from repro.analysis.annotations import (
                coeff_form, eval_form, takes_form,
            )

            @coeff_form
            def intt(x):
                return x + 0

            @eval_form
            @takes_form(x="coeff")
            def ntt(x):
                return x + 0

            def pipeline(p):
                y = intt(p)
                return ntt(y)
            """)
        assert result.active == []

    def test_montgomery_into_standard_consumer_flags(self, tmp_path):
        result = lint_source(tmp_path, """
            from repro.analysis.annotations import (
                montgomery_domain, takes_domain,
            )

            @montgomery_domain
            def to_mont(x):
                return x

            @takes_domain(x="standard")
            def plain_add(x):
                return x

            def pipeline(p):
                y = to_mont(p)
                return plain_add(y)
            """)
        assert "D-DOM" in active_rules(result)


# -- A-xxx: aliasing / purity -------------------------------------------------


class TestAliasRules:
    def test_view_return_of_self_buffer_flags(self, tmp_path):
        result = lint_source(tmp_path, """
            import numpy as np

            class TwiddleCache:
                def __init__(self, n):
                    self.table = np.zeros(n)

                def first_half(self):
                    return self.table[: len(self.table) // 2]
            """)
        assert "A-VIEW" in active_rules(result)

    def test_copied_return_clean(self, tmp_path):
        result = lint_source(tmp_path, """
            import numpy as np

            class TwiddleCache:
                def __init__(self, n):
                    self.table = np.zeros(n)

                def first_half(self):
                    return self.table[: len(self.table) // 2].copy()
            """)
        assert "A-VIEW" not in active_rules(result)

    def test_returns_view_blessing_suppresses(self, tmp_path):
        result = lint_source(tmp_path, """
            import numpy as np
            from repro.analysis.annotations import returns_view

            class TwiddleCache:
                def __init__(self, n):
                    self.table = np.zeros(n)

                @returns_view
                def first_half(self):
                    return self.table[: len(self.table) // 2]
            """)
        assert "A-VIEW" not in active_rules(result)

    def test_frozen_plan_self_mutation_flags(self, tmp_path):
        result = lint_source(tmp_path, """
            from repro.analysis.annotations import frozen

            @frozen
            class Plan:
                def __init__(self):
                    self.table = [1]

                def corrupt(self):
                    self.table[0] = 2
            """)
        assert "A-FROZEN" in active_rules(result)

    def test_frozen_plan_external_mutation_flags(self, tmp_path):
        # The instance comes back from a call whose return annotation
        # names the frozen class — no local annotation needed.
        result = lint_source(tmp_path, """
            from repro.analysis.annotations import frozen

            @frozen
            class Plan:
                def __init__(self):
                    self.table = [1]

            def compile_plan() -> Plan:
                return Plan()

            def misuse():
                plan = compile_plan()
                plan.table[0] = 3
                return plan
            """)
        assert "A-FROZEN" in active_rules(result)

    def test_frozen_plan_ctor_writes_clean(self, tmp_path):
        result = lint_source(tmp_path, """
            from repro.analysis.annotations import frozen

            @frozen
            class Plan:
                def __init__(self):
                    self.table = [1]
                    self.table[0] = 2
            """)
        assert "A-FROZEN" not in active_rules(result)


# -- suppression mechanics ----------------------------------------------------


class TestSuppression:
    SOURCE = """
        from repro.analysis.annotations import bounded

        @bounded(out_q=1, params={"x": {"q": 1}})
        def doubled(x):
            return x + xWAIVER
        """

    def test_inline_waiver_suppresses(self, tmp_path):
        flagged = lint_source(tmp_path, self.SOURCE.replace("WAIVER", ""))
        assert flagged.exit_code == 1
        waived = lint_source(
            tmp_path,
            self.SOURCE.replace("WAIVER", "  # fhelint: allow-B-OUT"),
            rel="waived.py",
        )
        assert not [f for f in waived.active
                    if f.path.endswith("waived.py")]

    def test_baseline_covers_but_does_not_gate(self, tmp_path):
        first = lint_source(tmp_path, self.SOURCE.replace("WAIVER", ""))
        assert first.exit_code == 1
        baseline = Baseline.from_findings(first.findings)
        second = lint_source(
            tmp_path, self.SOURCE.replace("WAIVER", ""), baseline=baseline
        )
        assert second.exit_code == 0
        assert any(f.baselined for f in second.findings)
