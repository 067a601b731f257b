"""Tests of the benchmark's arithmetic: medians and counts, the failure
share, and span self times. Run from the repository root:

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import metrics


def span(id, parent, name, start, end, step=1):
    return {"id": id, "parent": parent, "name": name, "start": start,
            "end": end, "step": step}


def solve(iters, converged):
    return {"iters": iters, "relres": 1e-5, "converged": converged}


def step(wall, adapted=False, elements=100, solves=()):
    return {"wall_s": wall, "adapted": adapted, "elements": elements,
            "solves": list(solves)}


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(metrics.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(metrics.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.median([])


class FailFracTest(unittest.TestCase):
    def test_rule_of_succession(self):
        self.assertAlmostEqual(metrics.fail_frac(12, 16), 13.0 / 18.0)
        self.assertAlmostEqual(metrics.fail_frac(0, 40), 1.0 / 42.0)

    def test_never_zero_or_one(self):
        self.assertGreater(metrics.fail_frac(0, 1000), 0.0)
        self.assertLess(metrics.fail_frac(1000, 1000), 1.0)

    def test_moves_with_failures(self):
        self.assertLess(metrics.fail_frac(3, 16), metrics.fail_frac(4, 16))

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            metrics.fail_frac(5, 4)

    def test_operations_of_a_convection_episode(self):
        ep = {"setup_solves": [solve(80, True), solve(150, False)],
              "steps": [step(0.01), step(1.5, solves=[solve(150, False)] * 2),
                        step(1.4, True, solves=[solve(70, True), solve(150, False)])],
              "failures": []}
        self.assertEqual(metrics.episode_operations(ep, True), (6, 4))

    def test_operations_of_a_transport_episode(self):
        ep = {"setup_solves": [], "steps": [step(0.1)] * 40, "failures": []}
        self.assertEqual(metrics.episode_operations(ep, False), (40, 0))


class StepSamplesTest(unittest.TestCase):
    def test_first_step_left_out_and_adapting_steps_apart(self):
        ep = {"steps": [step(0.01), step(1.0), step(2.0, True), step(1.2),
                        step(2.2, True)]}
        self.assertEqual(metrics.step_samples(ep), ([1.0, 1.2], [2.0, 2.2]))

    def test_end_to_end_medians_and_counts(self):
        eps = [{"setup_s": [1.0, 1.2], "setup_solves": [solve(10, True)],
                "steps": [step(0.01), step(1.0, solves=[solve(150, False)]),
                          step(2.0, True, solves=[solve(20, True)])],
                "failures": []},
               {"setup_s": [1.4, 5.0], "setup_solves": [solve(10, True)],
                "steps": [step(0.01), step(3.0, solves=[solve(150, False)]),
                          step(4.0, True, solves=[solve(20, True)])],
                "failures": []}]
        host = {"peak_rss_bytes": 3 * metrics.MIB}
        m = metrics.end_to_end(eps, host, True)
        expected = {"setup_s": (1.3, "s", 4), "run_s": (5.01, "s", 2),
                    "step_s": (2.0, "s", 2), "adapt_step_s": (3.0, "s", 2),
                    "peak_rss_mb": (3.0, "MiB", 1),
                    "fail_frac": (2.0 / 5.0, "ratio", 2)}
        self.assertEqual(m.keys(), expected.keys())
        for name, (value, unit, count) in expected.items():
            self.assertAlmostEqual(m[name][0], value, msg=name)
            self.assertEqual(m[name][1:], (unit, count), msg=name)


class SelfTimeTest(unittest.TestCase):
    # step [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 6].
    SPANS = [span(0, -1, "step", 0.0, 10.0), span(1, 0, "a", 1.0, 4.0),
             span(2, 1, "b", 2.0, 3.0), span(3, 0, "c", 5.0, 6.0)]

    def test_self_time_subtracts_direct_children_only(self):
        own = metrics.self_times(self.SPANS)
        self.assertEqual(own, {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})

    def test_self_times_sum_to_the_root(self):
        self.assertEqual(sum(metrics.self_times(self.SPANS).values()), 10.0)

    def test_ledger_splits_layers_and_remainder(self):
        self.assertEqual(metrics.step_ledger(self.SPANS), {1: (10.0, 4.0, 6.0)})

    def test_unit_section_only_for_layers_the_steps_never_call(self):
        spans = self.SPANS + [span(4, -1, "units", 20.0, 30.0, -1),
                              span(5, 4, "a", 21.0, 22.0, -1),
                              span(6, 4, "d", 23.0, 25.0, -1)]
        self.assertEqual(metrics.layer_calls(spans, "a"), [2.0])
        self.assertEqual(metrics.layer_calls(spans, "d"), [2.0])
        self.assertEqual(metrics.layer_calls(spans, "e"), [])

    def test_barrier_wait_is_mean_over_ranks_median_over_steps(self):
        by_rank = {
            0: [span(0, -1, "par.barrier", 0.0, 1.0, 1),
                span(1, -1, "par.barrier", 0.0, 2.0, 2),
                span(2, -1, "par.barrier", 0.0, 3.0, 3)],
            1: [span(0, -1, "par.barrier", 0.0, 3.0, 1),
                span(1, -1, "par.barrier", 0.0, 4.0, 2),
                span(2, -1, "par.barrier", 0.0, 0.5, 2),
                span(3, -1, "par.barrier", 0.0, 9.0, 3)],
        }
        # Per step: mean(1, 3) = 2, mean(2, 4.5) = 3.25, mean(3, 9) = 6.
        self.assertEqual(metrics.barrier_wait_per_step(by_rank), 3.25)


class SameWorkTest(unittest.TestCase):
    EP = {"setup_solves": [solve(80, True)],
          "steps": [step(1.0, elements=100), step(1.0, elements=120,
                                                  solves=[solve(150, False)])]}

    def test_identical_work_passes(self):
        self.assertEqual(metrics.same_work(self.EP, self.EP), [])

    def test_different_counts_are_reported(self):
        other = {"setup_solves": [solve(80, True)],
                 "steps": [step(1.0, elements=100),
                           step(1.0, elements=121, solves=[solve(149, False)])]}
        self.assertEqual(len(metrics.same_work(self.EP, other)), 2)


if __name__ == "__main__":
    unittest.main()
