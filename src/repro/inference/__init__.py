"""Inference latency substrate (paper Sec VII-C, Fig 13).

Replaces the DeepSpeed-MII measurements with a first-principles model:
prefill reuses the training-forward GEMMs; autoregressive decode is a
stream of skinny, memory-bound GEMMs (weights + KV cache traffic) plus
per-kernel launch overheads.  The Pythia suite's published shapes are
evaluated through it to reproduce the off-trend 410M / 1B pair.
"""
