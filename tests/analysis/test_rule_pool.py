"""POOL001 fixtures: process-pool callables must be module-level."""

from repro.analysis import all_rules

from .conftest import mk, run_rules


def findings(rule_id, *modules):
    rules = all_rules(only=[rule_id])
    return run_rules(rules, *(mk(rel, src) for rel, src in modules))


class TestPool001Picklable:
    def test_positive_lambda(self):
        out = findings("POOL001", ("src/pkg/m.py", """
            from concurrent.futures import ProcessPoolExecutor

            def go(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(lambda x: x + 1, items))
        """))
        assert [f.rule for f in out] == ["POOL001"]
        assert "lambda" in out[0].message

    def test_positive_nested_function(self):
        out = findings("POOL001", ("src/pkg/m.py", """
            from concurrent.futures import ProcessPoolExecutor

            def go(items):
                def work(x):
                    return x + 1
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(work, items))
        """))
        assert [f.rule for f in out] == ["POOL001"]
        assert "nested" in out[0].message

    def test_negative_module_level_function(self):
        out = findings("POOL001", ("src/pkg/m.py", """
            from concurrent.futures import ProcessPoolExecutor

            def work(x):
                return x + 1

            def go(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(work, items))
        """))
        assert out == []


class TestPool001Sites:
    def test_positive_bound_method(self):
        out = findings("POOL001", ("src/pkg/m.py", """
            from concurrent.futures import ProcessPoolExecutor

            class Runner:
                def work(self, x):
                    return x + 1

                def go(self, items):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(self.work, items))
        """))
        assert [f.rule for f in out] == ["POOL001"]
        assert "Runner.go" in out[0].message
        assert "bound method" in out[0].message

    def test_positive_nested_initializer(self):
        out = findings("POOL001", ("src/pkg/m.py", """
            import concurrent.futures as cf

            def go(items):
                def init():
                    pass
                pool = cf.ProcessPoolExecutor(initializer=init)
                return list(pool.map(len, items))
        """))
        assert [f.rule for f in out] == ["POOL001"]
        assert "initializer" in out[0].message

    def test_negative_imported_module_attribute(self):
        out = findings("POOL001", ("src/pkg/m.py", """
            from concurrent.futures import ProcessPoolExecutor
            from pkg import workers

            def go(items):
                with ProcessPoolExecutor(
                    initializer=workers.init,
                ) as pool:
                    return list(pool.map(workers.run, items))
        """))
        assert out == []

    def test_negative_non_pool_receiver(self):
        out = findings("POOL001", ("src/pkg/m.py", """
            def go(graph, items):
                def step(x):
                    return x
                return list(graph.map(step, items))
        """))
        assert out == []
