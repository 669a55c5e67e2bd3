"""NumPy decoder-only transformer substrate.

A complete, executable implementation of the GPT-2-style architecture
the paper studies (Sec III-C, Fig 4), including the architectural
variants of Sec VI-C (parallel layers, rotary/ALiBi embeddings, SwiGLU
MLPs, FlashAttention-style tiled attention).

Its role in the reproduction is ground truth: every matrix
multiplication executed by the real computation is recorded by
:class:`repro.transformer.trace.OpTrace`, and tests assert the recorded
shapes equal the paper's Table II mapping as implemented analytically in
:mod:`repro.core.gemms`.  Parameter-count and FLOP formulas are likewise
validated against the actual weight arrays and traced operations.
"""
