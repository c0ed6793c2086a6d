"""Tests of the benchmark's own helpers, on hand-made inputs.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

import io
import os
import random
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import relcone  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from relcone import cech, cli, fixtures, geo, homology, jsonio  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p90_of_one_hundred_samples_leaves_ten_beyond(self):
        values = list(range(100, 0, -1))
        self.assertEqual(worker.percentile(values, 0.9), 90)
        self.assertEqual(worker.percentile(values, 0.5), 50)
        self.assertEqual(worker.samples_beyond(100, 0.9), 10)
        self.assertEqual(sum(v > 90 for v in values), 10)

    def test_fewer_than_one_hundred_samples_leave_too_few_beyond_p90(self):
        self.assertEqual(worker.samples_beyond(99, 0.9), 9)
        self.assertEqual(worker.samples_beyond(108, 0.9), 10)

    def test_single_sample(self):
        self.assertEqual(worker.percentile([7.0], 0.9), 7.0)


class SpeedGaugeTest(unittest.TestCase):
    def test_scale_is_reference_over_kernel_time_and_is_reused_briefly(self):
        ticks = iter(i * 0.005 for i in range(1000))
        gauge = worker.SpeedGauge(clock=lambda: next(ticks))
        # every clock read advances 5 ms, so the kernel "takes" 5 ms
        self.assertAlmostEqual(gauge.factor(), worker.SpeedGauge.REFERENCE_S / 0.005)
        sampled_at = gauge.last
        gauge.factor()
        self.assertEqual(gauge.last, sampled_at)  # 5 ms later: no new sample
        for _ in range(50):
            gauge.factor()
        self.assertGreater(gauge.last, sampled_at)  # past 0.2 s: sampled again


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent(self):
        tr = tracer.Tracer()
        root = tr.record("a", 0.0, 10.0)
        tr.record("b", 1.0, 3.0, root)
        tr.record("b", 2.0, 5.0, root)  # overlaps its sibling
        tr.record("c", 8.0, 12.0, root)  # runs past the parent's end
        selfs = tracer.self_times(tr)
        self.assertAlmostEqual(selfs[root], 10.0 - 4.0 - 2.0)
        self.assertAlmostEqual(selfs[1], 2.0)
        self.assertAlmostEqual(selfs[3], 4.0)

    def test_outermost_time_counts_nested_spans_of_a_group_once(self):
        tr = tracer.Tracer()
        outer = tr.record("homology.field_rank", 0.0, 4.0)
        tr.record("homology.kernel_field", 1.0, 2.0, outer)
        tr.record("homology.solve_field", 5.0, 6.0)
        calls, secs = tracer.layer_totals(tr, tracer.GROUPS["homology.field"])
        self.assertEqual(calls, 3)
        self.assertAlmostEqual(secs, 5.0)

    def test_child_time_counts_direct_children_only(self):
        tr = tracer.Tracer()
        snf = tr.record("homology.snf", 0.0, 10.0)
        tr.record("matrix.matmul", 1.0, 4.0, snf)
        other = tr.record("homology.solve_int", 4.0, 6.0, snf)
        tr.record("matrix.matmul", 4.5, 5.0, other)
        self.assertAlmostEqual(tracer.child_time(tr, "matrix.matmul", "homology.snf"), 3.0)


class UsefulShareTest(unittest.TestCase):
    def test_hand_made_product(self):
        a = [[1, 0], [0, 0]]
        b = [[2, 3], [0, 5]]
        useful = tracer.useful_products(a, b, 2)
        self.assertEqual(useful, 2)
        self.assertAlmostEqual(tracer.useful_share(useful, 2 * 2 * 2), 0.25)
        self.assertEqual(tracer.useful_share(0, 0), 0.0)

    def test_matches_brute_force_count(self):
        rng = random.Random(7)
        for _ in range(50):
            m, k, n = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
            a = [[rng.choice((0, 0, 1, -2)) for _ in range(k)] for _ in range(m)]
            b = [[rng.choice((0, 0, 3)) for _ in range(n)] for _ in range(k)]
            brute = sum(1 for i in range(m) for t in range(k) for j in range(n) if a[i][t] and b[t][j])
            self.assertEqual(tracer.useful_products(a, b, k), brute)


class WrapperTest(unittest.TestCase):
    def setUp(self):
        self.tr = tracer.Tracer()
        self.undo = tracer.install_spans(self.tr, relcone)

    def tearDown(self):
        tracer.uninstall(self.undo)

    def names_under(self, root_name):
        tr = self.tr
        roots = {sid for sid in range(len(tr.name)) if tr.names[tr.name[sid]] == root_name}
        found = set()
        for sid in range(len(tr.name)):
            p = tr.parent[sid]
            while p >= 0:
                if p in roots:
                    found.add(tr.names[tr.name[sid]])
                    break
                p = tr.parent[p]
        return found

    def test_calls_made_inside_cli_are_caught(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rp2.json")
            jsonio.write_text(path, jsonio.dumps(jsonio.simplicial_to_json(fixtures.projective_plane())))
            with redirect_stdout(io.StringIO()):
                self.assertEqual(cli.main(["homology", path]), 0)
        under = self.names_under("cli.main")
        for name in ("jsonio.read_json", "simplicial.chain_complex", "homology.homology_at",
                     "homology.snf", "matrix.matmul", "chain.GradedComplex", "jsonio.dumps"):
            self.assertIn(name, under)

    def test_calls_made_inside_geo_and_cech_are_caught(self):
        geo.classify(fixtures.half_gerbe_cocycle())
        under = self.names_under("geo.classify")
        for name in ("geo.validate", "cech.rel_diff", "cech.pullback", "cech.cech_diff",
                     "cech.bockstein", "cech.relative_cone_complex", "simplicial.chain_complex",
                     "simplicial.chain_map", "homology.homology_data"):
            self.assertIn(name, under)
        self.assertIn("simplicial.chain_complex", self.names_under("cech.cech_diff"))

    def test_uninstall_restores_every_binding(self):
        tracer.uninstall(self.undo)
        self.undo = []
        self.assertIs(cli.homology_at, homology.homology_at)
        self.assertFalse(hasattr(homology.snf, "__wrapped__"))
        self.assertFalse(hasattr(cech.chain_complex, "__wrapped__"))
        self.assertFalse(hasattr(relcone.matrix.Matrix.__matmul__, "__wrapped__"))


class CounterTest(unittest.TestCase):
    def test_counts_ring_calls_and_entries(self):
        tr = tracer.Tracer()
        undo, flush = tracer.install_counters(tr, relcone)
        try:
            m = relcone.Matrix(relcone.INT, 2, 2, [[1, 2], [3, 4]])
            m @ m
        finally:
            tracer.uninstall(undo)
        flush()
        # a 2x2 product makes 8 mul and 8 add calls; two 2x2 matrices are
        # built, each entry normalized, and the product asks once for zero()
        self.assertEqual(tr.counts["coeffs.ring_op_calls"], 16)
        self.assertEqual(tr.counts["matrix.build_entries"], 8)
        self.assertEqual(tr.counts["coeffs.normalize_calls"], 8 + 1)


class ClosedFormTest(unittest.TestCase):
    def test_invariant_factors(self):
        self.assertEqual(inputs.invariant_factors([2, 4, 6, 3]), (2, 6, 12))
        self.assertEqual(inputs.invariant_factors([12, 18]), (6, 36))
        self.assertEqual(inputs.invariant_factors([1, 1]), ())

    def test_uct_on_the_projective_plane(self):
        groups = {0: (1, ()), 1: (0, (2,))}
        self.assertEqual([inputs.field_dim(groups, n, 2) for n in range(3)], [1, 1, 1])
        self.assertEqual([inputs.field_dim(groups, n, 3) for n in range(3)], [1, 0, 0])
        self.assertEqual(inputs.homology_mod(groups, 2, 4), (0, (2,)))

    def test_block_complex_matches_its_construction(self):
        rng = random.Random(3)
        ranks, diffs, groups = inputs.block_complex(rng, 0, 3, 2, 2, 6)
        c = relcone.GradedComplex(
            relcone.INT, ranks,
            {n: relcone.Matrix(relcone.INT, len(r), len(r[0]), r) for n, r in diffs.items()},
        )
        for n in c.degrees():
            g = homology.homology_at(c, n)
            self.assertEqual((g.free_rank, g.torsion), groups.get(n, (0, ())))


if __name__ == "__main__":
    unittest.main()
