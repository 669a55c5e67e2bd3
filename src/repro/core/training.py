"""Mixed-precision Adam per-parameter constants of the training step.

The paper's "trained 20% faster" claim is priced by
:mod:`repro.trainstep`: :func:`repro.trainstep.memory.estimate_memory`
charges every learned element :data:`ADAM_STATE_BYTES_PER_PARAM` of
residency, and :class:`repro.trainstep.step.TrainStepEstimator` prices
the optimizer update as one streaming pass of
:data:`ADAM_TRAFFIC_BYTES_PER_PARAM` per element.  Both constants are
defined here and nowhere else.
"""

#: Resident bytes per parameter: fp16 weight + fp16 gradient + fp32
#: master weight, m, v = 2 + 2 + 4 + 4 + 4.
ADAM_STATE_BYTES_PER_PARAM = 16

#: Bytes of optimizer traffic per parameter for one update: read+write
#: fp32 master weight, m, v (6 x 4 B) plus the fp16 weight write and
#: gradient read (2 x 2 B).
ADAM_TRAFFIC_BYTES_PER_PARAM = 28
