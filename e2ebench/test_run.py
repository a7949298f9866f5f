"""Tests of run.py's stamp handling: runs with different build stamps are
never compared. Run with `python3 e2ebench/run.py --selftest`, or directly
with `python3 -m unittest test_run` from e2ebench/."""

import json
import os
import tempfile
import unittest

import run

CACHE = {
    "CMAKE_BUILD_TYPE": "Release",
    "POLARICE_NATIVE": "ON",
    "POLARICE_METRICS": "ON",
    "POLARICE_MEM_STATS": "ON",
    "POLARICE_FAULT_INJECT": "ON",
    "POLARICE_SANITIZER": "",
}


def record(stamp, p50):
    return {"workload": "serve_unique", "stamp": stamp,
            "end_to_end": {"p50_ms": {"value": p50, "unit": "ms"}},
            "per_layer": {}}


class StampTest(unittest.TestCase):
    def test_portable_build_has_its_own_tier(self):
        native = run.make_stamp(CACHE, "GNU 12.2.0", "avx512", 4)
        portable = run.make_stamp(dict(CACHE, POLARICE_NATIVE="OFF"),
                                  "GNU 12.2.0", "avx512", 4)
        self.assertEqual(native["isa_tier"], "avx512")
        self.assertEqual(portable["isa_tier"], "portable")
        self.assertTrue(run.stamp_difference(native, portable))

    def test_compare_refuses_different_stamps(self):
        native = run.make_stamp(CACHE, "GNU 12.2.0", "avx512", 4)
        for changed in (dict(CACHE, POLARICE_NATIVE="OFF"),
                        dict(CACHE, POLARICE_METRICS="OFF"),
                        dict(CACHE, POLARICE_SANITIZER="address"),
                        dict(CACHE, CMAKE_BUILD_TYPE="Debug")):
            other = run.make_stamp(changed, "GNU 12.2.0", "avx512", 4)
            with self.assertRaises(run.Refused):
                run.compare(record(native, 10.0), record(other, 0.3))
        with self.assertRaises(run.Refused):
            run.compare(record(native, 10.0),
                        record(run.make_stamp(CACHE, "GNU 12.2.0", "avx2", 4),
                               9.0))
        with self.assertRaises(run.Refused):
            run.compare(record(native, 10.0),
                        record(run.make_stamp(CACHE, "GNU 12.2.0", "avx512", 8),
                               9.0))

    def test_compare_accepts_equal_stamps(self):
        stamp = run.make_stamp(CACHE, "GNU 12.2.0", "avx512", 4)
        rows = run.compare(record(stamp, 10.0), record(dict(stamp), 12.0))
        self.assertEqual(rows, [("p50_ms", 10.0, 12.0, 1.2, "ms")])

    def test_checkout_refuses_a_changed_stamp(self):
        stamp = run.make_stamp(CACHE, "GNU 12.2.0", "avx512", 4)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "stamp.json")
            run.check_stamp(stamp, path)  # first run records it
            run.check_stamp(dict(stamp), path)  # same config: accepted
            with open(path, encoding="utf-8") as f:
                self.assertEqual(json.load(f), stamp)
            with self.assertRaises(run.Refused):
                run.check_stamp(dict(stamp, compiler="Clang 17.0.0"), path)


if __name__ == "__main__":
    unittest.main()
