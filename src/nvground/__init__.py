"""nvground: NV-center ground-state spin toolkit.

Exact and perturbative transition frequencies for both nitrogen
isotopes under axial/transverse fields and temperature, inverse
extraction of the coupling parameters from measured line sets, and
Ramsey-fringe detuning analysis.
"""

__version__ = "0.1.0"
