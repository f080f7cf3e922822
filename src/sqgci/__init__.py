"""Pseudospectral convex-integration iteration for stationary weak
solutions of the surface quasi-geostrophic equation on the 2-torus.

The package builds the scalar potential f (theta = Lambda f) as a sum
of frequency-localized modulated waves whose amplitudes are chosen to
cancel the current stress field, evaluates every product exactly on
dealiased grids, and verifies the construction's identities at runtime.
"""
