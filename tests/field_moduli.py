"""The moduli pairs in field arithmetic: an oracle for ``inequalities._moduli_pairs``.

It restates the pairs, not the estimates: the reduction of the pairs to bin
minima and grid maxima is ``inequalities._moduli_pass`` alone.  Each chunk's
unit pairs are held as batch Fields and every derived field is formed by
Field arithmetic, one operation at a time: h1 + t h2 and h1 - t h2 for each
grid point, then h1 - h2 and (h1 + h2) / 2, with their norms from one
``field_norms`` stack.  A chunk of n pairs draws its own rows of the
streams, not through the pass's ``_draws``: rows start .. start + n of the
ginibre stream a, pair k's h1 from row k and its neighbour g from row k + 1,
and rows start .. start + n - 1 of the angle stream t.  The chunks are the
package's, so the walk matches this one bit for bit exactly when it draws
the same rows and forms each field by the same elementwise operations in
the same order.
"""

import math

import numpy as np

from dualnorm import inequalities
from dualnorm.dualmodel import Field, mix_seed, random_stacks, random_uniforms
from dualnorm.norms import _finite_interior, field_norm, field_norms


def moduli_pairs(model, p, family, convexity, t_grid, samples, seed):
    """Each chunk's (quotients, separations, gaps), as ``inequalities._moduli_pairs`` yields them.

    The arguments are taken as valid; the pass is the one that checks them.
    """
    p = _finite_interior(p)
    ts = [float(t) for t in t_grid]
    key_a, key_t = mix_seed(seed, "a"), mix_seed(seed, "t")
    stacked = 2 * len(ts) + (2 if convexity else 0)
    for chunk in inequalities._chunks(model, samples, stacked):
        a = random_stacks(model, key_a, chunk.start, len(chunk) + 1)
        angle = math.pi * random_uniforms(key_t, chunk.start, len(chunk))
        cos_t, sin_t = np.cos(angle), np.sin(angle)
        norm_a = field_norm(a, p, family)
        if not norm_a.all():
            raise ZeroDivisionError("a ginibre draw has zero norm")
        units = (1.0 / norm_a) * a
        h1 = Field(model, tuple(b[:-1] for b in units.blocks))
        g = Field(model, tuple(b[1:] for b in units.blocks))
        mixed = cos_t * h1 + sin_t * g
        norm = field_norm(mixed, p, family)
        flat = norm == 0.0
        if flat.any():
            mixed, norm = mixed + flat * g, np.where(flat, 1.0, norm)
        h2 = (1.0 / norm) * mixed
        fields = [x for t in ts for x in (h1 + t * h2, h1 - t * h2)]
        if convexity:
            fields += [h1 - h2, 0.5 * (h1 + h2)]
        norms = field_norms(fields, p, family)
        quotients = np.array([(norms[2 * i] + norms[2 * i + 1]) / 2.0 - 1.0
                              for i in range(len(ts))]).reshape(len(ts), len(chunk))
        yield quotients, *((norms[-2], 1.0 - norms[-1]) if convexity else (None, None))
