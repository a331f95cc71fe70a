"""Walk through the eigengap auto-tuning scan on a synthetic 3-speaker corpus.

For each binarization threshold p, from 1 upward, the scan prunes the
cosine affinity graph, takes the unnormalized Laplacian's spectrum, and
computes the normalized maximum eigengap g_p plus the tuning ratio
r_p = p / g_p. The p with minimal ratio wins, and its largest eigengap
fixes k. Since g_p <= 1, every r_p >= p, so the scan stops once p reaches
the smallest ratio so far; on long recordings that is often before p_max.
Before it takes a spectrum, the scan also bounds r_p from below with
eigenvalue inequalities, and skips the p whose bound is no better than the
best ratio so far. A p whose graph still falls apart into more pieces than
the gap window reads (m = max_speakers + 1) has g_p = 0 and r_p = p/epsilon
exactly, so it is skipped with that bound after a component count; at p = 1
each segment links only to itself, L = 0, and its spectrum needs no solve.
Beside each skipped p's bound the demo prints its exact r_p, which one
nme_probes walk over the skipped p computes after the scan.
"""

import numpy as np

from nmesc import NmeConfig, SynthSpec, best_map_accuracy, cosine_affinity, generate, nme_probes, nme_sc, nme_scan
from nmesc.nme import _EPSILON  # the epsilon of g_p and r_p, a fixed constant (1e-10)

spec = SynthSpec(n_clusters=3, segments_per_cluster=40, dim=32, noise=0.12, seed=14)
emb, truth = generate(spec)
print(f"synthetic corpus: {emb.n} segments, {spec.n_clusters} true speakers, dim {spec.dim}\n")

cfg = NmeConfig()
a = cosine_affinity(emb)
scan = nme_scan(a, cfg)
skipped = dict(scan.skipped)
evaluated = {e.p: e for e in scan.entries}
exact = {probe.p: probe.rp for probe in nme_probes(a, skipped, cfg)}
last = max([*evaluated, *skipped])
print(f"{'p':>4} {'g_p':>10} {'r_p':>14} {'k(p)':>5}   exact r_p")
for p in range(1, last + 1):
    if p in skipped:
        reason = "  (>= m components: r_p = p/epsilon)" if skipped[p] == p / _EPSILON else ""
        print(f"{p:>4} {'skipped':>10} {'>= ' + format(skipped[p], '.4f'):>14} {'':>5}   {exact[p]:.4f}{reason}")
        continue
    entry = evaluated[p]
    marker = "  <- p_hat" if entry.p == scan.p_hat else ""
    print(f"{entry.p:>4} {entry.gp:>10.6f} {entry.rp:>14.4f} {entry.k_at_p:>5}{marker}")

print(f"\n{len(scan.entries)} p evaluated, {len(skipped)} skipped: each bound is >= the best r_p before it")
if last < scan.p_max:
    print(f"stopped after p = {last} of p_max = {scan.p_max}: p = {last + 1} >= min r_p, so no later p can win")
else:
    print(f"scanned every p up to p_max = {scan.p_max}")
print(f"\nselected p_hat = {scan.p_hat}, estimated k = {scan.k_hat} (true k = {spec.n_clusters})")

result, _ = nme_sc(emb, NmeConfig())
acc = best_map_accuracy(result.labels, truth)
print(f"clustering accuracy after optimal label mapping: {acc:.4f}")

counts = np.bincount(result.labels)
print(f"cluster sizes: {counts.tolist()} (true sizes: {np.bincount(truth).tolist()})")
