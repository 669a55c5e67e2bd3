"""Brute-force shape tuners for the paper's case studies.

- :mod:`repro.autotune.search` — generic ranked search over one integer
  shape dimension,
- :mod:`repro.autotune.swiglu` — the Sec VII-B intermediate-size search
  near 8h/3 (Llama-2),
- :mod:`repro.autotune.vocab` — vocabulary padding to multiples of 64
  (Fig 20, the nanoGPT 50257 -> 50304 trick).
"""
