"""Regularization of critical Hele-Shaw interface flows.

The library follows one pipeline:

1. exact Gel'fand-Dikii algebra (:mod:`heleshaw.diffpoly`),
2. dispersionless hodograph branches and gradient catastrophes
   (:mod:`heleshaw.hodograph`),
3. numerical Painleve-I tritronquee construction (:mod:`heleshaw.painleve`),
4. multiscale reduction and inner/outer matching (:mod:`heleshaw.multiscale`),
5. the bubble break-off / merging branch (:mod:`heleshaw.toda`),
6. interface curves and topological events (:mod:`heleshaw.geometry`),
7. a CLI orchestrating scenarios (:mod:`heleshaw.cli`).

Import each name from the module that defines it.  Importing the package
loads none of these modules, so a CLI run loads only the layers it uses.
"""

__version__ = "0.1.0"
