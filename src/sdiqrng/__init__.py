"""sdiqrng: simulator and post-processing toolkit for a source-device-independent
continuous-variable quantum random number generator.

Subpackages cover the pipeline end to end: state models and quadrature
statistics (``states``), the homodyne digitizer model (``detector``), offline
filtering (``dsp``), variance-vs-power calibration (``calibration``), the
min-entropy certificate (``entropy``), Toeplitz randomness extraction
(``extractor``), an adversarial sanity lab (``attacklab``), a statistical
test battery (``stats``) and the command-line interface (``cli``).

Importing the package loads none of them: import the submodule you use, so
that each stage loads only what it runs.  numpy is the one FFT engine and
``math.erf`` the one erf on the path of simulate, calibrate, extract, attack
and verify, none of which loads a scipy module: ``attacklab`` computes the
attack's Kolmogorov-Smirnov p-value itself.  Only ``stats`` (for ``test``)
loads ``scipy.special``.
"""

__version__ = "0.1.0"
