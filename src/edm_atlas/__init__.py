"""edm-atlas: acoustic feature extraction and unsupervised genre-structure analysis.

Library layout follows the pipeline: audio -> features/tempogram -> table
-> selection -> cluster -> metrics, with pipeline/cli gluing the stages
together and plots/fixtures providing SVG emission and synthetic audio.

The package root exports no names: import each one from its module, for
example ``from edm_atlas.tempogram import analyze_track``. So importing
the package loads none of its modules.
"""

__version__ = "0.1.0"
