"""Calibration of model constants against measurements.

The GPU model's free constants (alignment-efficiency floor, bandwidth
efficiency, tile peak fractions) set the absolute scale of its outputs.
:mod:`repro.calibration.fit` fits them to measurement samples by least
squares, and :mod:`repro.calibration.data` carries the paper-derived
anchor ratios used by EXPERIMENTS.md to judge reproduction quality.
"""
