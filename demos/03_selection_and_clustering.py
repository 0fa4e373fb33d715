"""Feature selection and clustering on a synthetic genre-like dataset.

Plants four class-dependent features among noise, walks through the
engineering -> normalization -> ensemble-selection pipeline, then clusters
with both k-means++ and divisive bisection and evaluates against truth.
The points' distances are computed once, as one ``Distances`` that carries
the points too, and every function that reads them gets that one object.
Run:

    python3 demos/03_selection_and_clustering.py
"""

import numpy as np

from edm_atlas.cluster import divisive_cluster, kmeans, select_natural_k
from edm_atlas.metrics import Distances, ari, evaluate_all, nmi
from edm_atlas.selection import engineer_features, ensemble_normalize, ensemble_select
from edm_atlas.table import FeatureMatrix

rng = np.random.default_rng(0)
n_per, n_classes, d_noise = 80, 4, 60
n = n_per * n_classes
y = np.repeat(np.arange(n_classes), n_per)

# four informative columns carry the class structure at different strengths
informative = np.column_stack(
    [y * s + rng.normal(0, 0.3, n) for s in (3.0, 2.0, 1.5, 1.0)]
)
noise = rng.normal(0, 1, (n, d_noise))
data = np.column_stack([informative, noise])
names = [f"signal_{i}" for i in range(4)] + [f"noise_{i:02d}" for i in range(d_noise)]
groups = ["rhythmic", "spectral", "harmonic", "timbral"] + ["spectral"] * d_noise
m = FeatureMatrix([f"track_{i:03d}" for i in range(n)], names, groups, data)

engineered = engineer_features(m)
print(f"engineering: {m.shape[1]} -> {engineered.shape[1]} columns")
normalized = ensemble_normalize(engineered)
selected, report = ensemble_select(normalized, y, top_k=20, seed=0)  # y: class index per row

order = np.argsort(-report.ensemble)
print("\ntop 8 features by ensemble score:")
for i in order[:8]:
    print(f"  {report.feature_names[i]:24s} {report.ensemble[i]:.4f}")

x = selected.data  # k-means takes the plain array
distances = Distances.of(x)  # the rest take the points with their distances
km = kmeans(x, n_classes, seed=0)
dv = divisive_cluster(distances, n_classes, seed=0)
print(f"\nkmeans   ARI {ari(km.labels, y):.3f}  NMI {nmi(km.labels, y):.3f}")
print(f"divisive ARI {ari(dv.labels, y):.3f}  NMI {nmi(dv.labels, y):.3f}")

sweep = select_natural_k(distances, (2, 12), seed=0, restarts=20)
print(f"\nnatural cluster count over [2, 12]: {sweep.chosen_k} (truth: {n_classes})")

full = evaluate_all(
    distances,
    km.labels,
    y,
    clusterer=lambda d, s: kmeans(d.points, n_classes, restarts=10, seed=s).labels,
    B=25,
    seed=0,
    context={"method": "kmeans", "k": n_classes, "seed": 0},
)
print("\nfull evaluation report:")
for section in ("external", "internal", "distribution"):
    for key, value in getattr(full, section).items():
        print(f"  {section:12s} {key:22s} {value:8.4f}")
