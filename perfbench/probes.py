"""Layer probes for the traced run: single-op timings and tape counts.

The matmul and LSTM-step probes run at the shapes of the workload's own LSTM;
the conv-encoder probe runs the fixed 3x32x32 encoder, the same on every
workload.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from reviewnet import trainer as rn_trainer
from reviewnet.layers import LSTMState, TinyConvEncoder
from reviewnet.tensor import Tensor, backward, matmul, sum_all, topo_order

from workloads import ENCODER_DIM

PROBE_SECONDS = 0.3
PROBE_MAX_CALLS = 3000
TAPE_INSTANCES = 64  # training instances per variant whose tape is counted


def _repeat(build, timed) -> list[float]:
    """Seconds per call of ``timed(build())``, with ``build`` outside the timer."""
    samples: list[float] = []
    deadline = perf_counter() + PROBE_SECONDS
    while perf_counter() < deadline and len(samples) < PROBE_MAX_CALLS:
        arg = build()
        t0 = perf_counter()
        timed(arg)
        samples.append(perf_counter() - t0)
    return samples


def layer_timings(jobs, seed: int) -> dict[str, list[float]]:
    rng = np.random.default_rng(seed)
    lstm_job = max((j for j in jobs if j.variant.has_generator),
                   key=lambda j: j.model.config.hidden_dim)
    cell = lstm_job.model.cells[0]
    w = lstm_job.model.params["lstm0.w_input"]
    x = Tensor(rng.normal(size=w.data.shape[1]))
    state = LSTMState(Tensor(rng.normal(size=cell.hidden_dim)),
                      Tensor(rng.normal(size=cell.hidden_dim)))
    encoder = next((j.model.encoder for j in jobs if j.model.encoder is not None), None)
    if encoder is None:
        encoder = TinyConvEncoder(ENCODER_DIM, rng=np.random.default_rng(seed))
    image = Tensor(rng.random(TinyConvEncoder.IMAGE_SHAPE))
    us, ms = 1e6, 1e3
    out = {
        "tensor.matmul_fwd_us": _repeat(lambda: None, lambda _: matmul(w, x)),
        "tensor.matmul_bwd_us": _repeat(lambda: sum_all(matmul(w, x)), backward),
        "layers.lstm_step_fwd_us": _repeat(lambda: None, lambda _: cell.step(state, x)),
        "layers.lstm_step_bwd_us": _repeat(lambda: sum_all(cell.step(state, x).h), backward),
        "layers.conv_encoder_fwd_ms": _repeat(lambda: None, lambda _: encoder(image)),
        "layers.conv_encoder_bwd_ms": _repeat(lambda: sum_all(encoder(image)), backward),
    }
    for name in out:
        scale = us if name.endswith("_us") else ms
        out[name] = [s * scale for s in out[name]]
    return out


def tape_counts(jobs) -> tuple[float, float]:
    """(graph nodes, MB of node gradients) per training instance.

    Counts every tracked non-parameter node of the instance losses of the first
    ``TAPE_INSTANCES`` training instances of each variant, under the reference
    dropout; each such node allocates a gradient the size of its data.
    """
    nodes = nbytes = instances = 0
    for job in jobs:
        params = {id(p) for p in job.model.params.values()}
        rng = np.random.default_rng(job.config.seed)
        for inst in job.instances[:TAPE_INSTANCES]:
            loss = rn_trainer.instance_loss(job.model, inst, job.config, rng)
            for node in topo_order(loss):
                if id(node) not in params:
                    nodes += 1
                    nbytes += node.data.nbytes
            instances += 1
    return nodes / instances, nbytes / instances / 1e6
