"""Factor twisted loops: the splitting into a real factor times a positive
one, and the splitting into negative and positive frequency halves.

Loops live over the order-four automorphism of the motion group, so Fourier
coefficients are graded mod 4.  The first factorization is what turns
holomorphic data into surfaces; the second extracts potentials.
"""

import numpy as np

from hamstat import TwistedLoop, birkhoff, iwasawa
from hamstat.algebra import EPS, EPS_BAR, ID4, LI_EPS

# a small twisted loop written down by hand: identity rotation plus three
# translation coefficients on the odd grading slots, each in the i^k
# eigenspace of the twist (eps_bar and L_i eps at k = 1 mod 4, eps at 3)
loop = TwistedLoop(
    np.array([-3, -1, 0, 1]),
    np.array([np.zeros((4, 4)), np.zeros((4, 4)), ID4, np.zeros((4, 4))],
             dtype=complex),
    np.array([0.3 * EPS_BAR + 0.1j * LI_EPS, 1.0 * EPS, np.zeros(4),
              0.5 * EPS_BAR]))
print("input loop: exponents", loop.ks.tolist(),
      " twist residual", f"{loop.twist_residual():.1e}")

u, b = iwasawa(loop, nsamples=64)
print("real factor exponents:    ", u.ks.tolist())
print("positive factor exponents:", b.ks.tolist())
ru, tu = u.sample(64)
rb, tb = b.sample(64)
rh, th = loop.sample(64)
recon = np.einsum("mij,mj->mi", ru, tb) + tu
print("reconstruction residual:  ",
      f"{max(np.max(np.abs(ru @ rb - rh)), np.max(np.abs(recon - th))):.2e}")
print("real factor is real:      ", f"{u.reality_residual():.1e}")

gm, gp = birkhoff(loop, neg_degree=8, nsamples=64)
print("\nnegative/positive split:")
print("   negative exponents:", gm.ks.tolist())
print("   positive exponents:", gp.ks.tolist())
prod = gm.compose(gp, 64)
rp, tp = prod.sample(64)
print("   product residual:  ",
      f"{max(np.max(np.abs(rp - rh)), np.max(np.abs(tp - th))):.2e}")
