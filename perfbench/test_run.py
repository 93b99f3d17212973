#!/usr/bin/env python3
"""Tests of the benchmark's own checks: every way a run can be refused.

    python3 perfbench/test_run.py

They exercise run.py's report validation and workload lookup on crafted
harness reports; no build and no measurement is needed.
"""

import copy
import json
import os
import unittest

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def load(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


BENCHMARK = load("../BENCHMARK.json")
WORKLOADS = load("workloads.json")


def good_report(declared, traced):
    """A report that passes: every declared metric, sane values, plus the
    latency percentiles the harness reports beside them."""
    metrics = {}
    for spec in declared:
        m = {"value": 1.0, "unit": spec["unit"]}
        if "p50" in spec["name"]:
            m.update(value=1.0, samples=5000, quantile=0.5)
        if "p99" in spec["name"]:
            m.update(value=2.0, samples=5000, quantile=0.99)
        metrics[spec["name"]] = m
    if not traced:
        metrics["rec_latency_p50_ms"] = {"value": 1.0, "unit": "ms",
                                         "samples": 5000, "quantile": 0.5}
        metrics["rec_latency_p99_ms"] = {"value": 2.0, "unit": "ms",
                                         "samples": 5000, "quantile": 0.99}
    return {"workload": "wire-fanout", "seed": 1, "trace": int(traced),
            "attempted": 100, "failed": 0,
            "checks": {"digest_match": True, "recovered_state_match": True},
            "metrics": metrics}


class ValidateTest(unittest.TestCase):

    def setUp(self):
        self.e2e = BENCHMARK["end_to_end"]
        self.layers = BENCHMARK["per_layer"]

    def errors(self, report, traced=False):
        return run.validate(report, self.layers if traced else self.e2e,
                            traced)

    def test_good_reports_pass(self):
        self.assertEqual(self.errors(good_report(self.e2e, False)), [])
        self.assertEqual(
            self.errors(good_report(self.layers, True), traced=True), [])

    def test_missing_metric(self):
        report = good_report(self.e2e, False)
        del report["metrics"]["ingest_eps"]
        self.assertIn("metric ingest_eps is missing", self.errors(report))

    def test_missing_per_layer_metric(self):
        report = good_report(self.layers, True)
        del report["metrics"]["net.take.rtt_p99_us"]
        self.assertTrue(any("net.take.rtt_p99_us is missing" in e
                            for e in self.errors(report, traced=True)))

    def test_nan_and_non_numbers(self):
        for bad in ("nan", None, True, float("nan"), float("inf")):
            report = good_report(self.e2e, False)
            report["metrics"]["setup_s"]["value"] = bad
            self.assertTrue(
                any("setup_s is not a finite number" in e
                    for e in self.errors(report)), bad)

    def test_wrong_unit(self):
        report = good_report(self.e2e, False)
        report["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(any("setup_s has unit ms" in e
                            for e in self.errors(report)))

    def test_p50_above_p99(self):
        report = good_report(self.e2e, False)
        report["metrics"]["rec_latency_p50_ms"]["value"] = 3.0
        self.assertTrue(any("rec_latency_p50_ms = 3.0 exceeds" in e
                            for e in self.errors(report)))
        layers = good_report(self.layers, True)
        layers["metrics"]["core.on_edge.p50_us"]["value"] = 9.0
        self.assertTrue(any("core.on_edge.p50_us = 9.0 exceeds" in e
                            for e in self.errors(layers, traced=True)))

    def test_percentile_with_too_few_samples(self):
        report = good_report(self.e2e, False)
        report["metrics"]["rec_latency_p99_ms"]["samples"] = 999
        self.assertTrue(any("rec_latency_p99_ms rests on 999 samples" in e
                            for e in self.errors(report)))
        report["metrics"]["rec_latency_p99_ms"]["samples"] = 1000
        self.assertEqual(self.errors(report), [])
        report["metrics"]["rec_latency_p50_ms"]["samples"] = 19
        self.assertTrue(any("rec_latency_p50_ms rests on 19 samples" in e
                            for e in self.errors(report)))

    def test_percentile_without_sample_count(self):
        report = good_report(self.e2e, False)
        del report["metrics"]["rec_latency_p99_ms"]["samples"]
        del report["metrics"]["rec_latency_p99_ms"]["quantile"]
        self.assertIn("percentile rec_latency_p99_ms carries no sample count",
                      self.errors(report))

    def test_failed_correctness_check(self):
        report = good_report(self.e2e, False)
        report["checks"]["digest_match"] = False
        self.assertIn("check digest_match failed", self.errors(report))

    def test_no_checks(self):
        report = good_report(self.e2e, False)
        report["checks"] = {}
        self.assertIn("report has no correctness checks", self.errors(report))

    def test_mirror_coverage_range(self):
        for cov, ok in ((0.89, False), (0.9, True), (1.1, True), (1.11, False)):
            report = good_report(self.layers, True)
            report["metrics"]["core.mirror_coverage"]["value"] = cov
            errors = self.errors(report, traced=True)
            self.assertEqual(errors == [], ok, (cov, errors))

    def test_mirror_mismatch_is_a_failed_check(self):
        report = good_report(self.layers, True)
        report["checks"]["mirror_recs_match"] = False
        self.assertIn("check mirror_recs_match failed",
                      self.errors(report, traced=True))

    def test_counts(self):
        report = good_report(self.e2e, False)
        report["attempted"] = 0
        self.assertIn("report attempted nothing", self.errors(report))
        report["failed"] = -1
        self.assertIn("report field failed is not a count",
                      self.errors(report))


class WorkloadTest(unittest.TestCase):

    def test_every_listed_workload_has_a_shape(self):
        for w in BENCHMARK["workloads"]:
            pairs = run.workload_config(BENCHMARK, WORKLOADS, w["name"])
            self.assertIn("--set", pairs)

    def test_unknown_workload(self):
        with self.assertRaisesRegex(run.BenchError, "unknown workload"):
            run.workload_config(BENCHMARK, WORKLOADS, "no-such-workload")

    def test_listed_workload_without_shape(self):
        shapes = copy.deepcopy(WORKLOADS)
        del shapes["durable-replicas"]
        with self.assertRaisesRegex(run.BenchError, "no shape"):
            run.workload_config(BENCHMARK, shapes, "wire-fanout")

    def test_lists_become_comma_separated(self):
        pairs = run.workload_config(BENCHMARK, WORKLOADS, "wire-fanout")
        rungs = [p for p in pairs if p.startswith("rungs_eps=")]
        self.assertEqual(len(rungs), 1)
        self.assertNotIn("[", rungs[0])


if __name__ == "__main__":
    unittest.main()
