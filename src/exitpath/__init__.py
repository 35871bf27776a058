"""Exit-path simplicial sets of linked spans.

Build the exit complex Ex of a span M <- L -> N (projection and link
inclusion), drive its faces and degeneracies through the shuffle index
calculus, and machine-check simplicial identities, inner-horn filling,
and fibration properties on the result.  The API is imported from the
submodules, for example exitpath.construction and exitpath.verify.
"""

__version__ = "0.1.0"
