"""edm-atlas: acoustic feature extraction and unsupervised genre-structure analysis.

Library layout follows the pipeline: audio -> features/tempogram -> table
-> selection -> cluster -> metrics, with pipeline/cli gluing the stages
together and plots/fixtures providing SVG emission and synthetic audio.
"""

from .audio import (
    AudioClip,
    FrameSeries,
    MalformedWavError,
    SampleStream,
    UnsupportedWavError,
    WavHeader,
    frame_series,
    load_wav,
    read_wav_header,
    resample,
    stft,
    stream_wav,
    synth_click_track,
    synth_noise,
    synth_sine,
)
from .cluster import ClusterModel, KSweepResult, divisive_cluster, heterogeneity, kmeans, select_natural_k
from .features import (
    band_beat_emphasis,
    chroma_features,
    danceability_dfa,
    dfa_exponent,
    fundamental_feature_vector,
    mfcc_features,
    spectral_stats,
    tempo_estimates,
)
from .metrics import (
    ClusterProfile,
    EvaluationReport,
    ari,
    balance_metrics,
    calinski_harabasz,
    cluster_profiles,
    cophenetic_bootstrap,
    cophenetic_dendrogram,
    davies_bouldin,
    evaluate_all,
    mi_score,
    nmi,
    purity,
    silhouette,
)
from .selection import (
    SelectionReport,
    anova_f,
    cluster_separation_score,
    engineer_features,
    ensemble_normalize,
    ensemble_select,
    mutual_info,
    variance_score,
)
from .table import (
    FeatureMatrix,
    TrackRecord,
    assemble_matrix,
    import_embeddings,
    load_labels,
    load_manifest,
    load_matrix,
    save_labels,
    save_matrix,
)
from .tempogram import (
    NoveltyCurve,
    Tempogram,
    TrackAnalysis,
    analyze_track,
    autocorr_tempogram,
    cyclic_tempogram,
    fourier_tempogram,
    novelty_curve,
    tempogram_feature_vector,
    tempogram_summary,
)
from .types import FeatureVector

__version__ = "0.1.0"
